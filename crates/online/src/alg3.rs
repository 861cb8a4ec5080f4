//! Algorithm 3 — online unweighted calibration on multiple machines
//! (12-competitive, Theorem 3.10; analyzed with the primal–dual LP of
//! Figures 1–2).
//!
//! Per time step:
//! 1. (engine) previously calibrated idle machines pick up the earliest
//!    waiting jobs — pseudocode lines 6–9;
//! 2. while `|Q| ≥ G/T` or the hypothetical queue flow `f ≥ G`: calibrate
//!    the next machine in round-robin order and pre-place ("reserve") up to
//!    `G/T` jobs from `Q` into that interval in release order — lines 10–14.
//!
//! The paper notes that in practice one would use Algorithm 3 only for its
//! calibration times and re-assign jobs with Observation 2.1; that variant
//! is [`run_alg3_practical`] (the E10 ablation).

use calib_core::{assign_greedy_with_policy, Cost, Instance, PriorityPolicy, Time};

use crate::engine::{run_online, EngineView, RunResult};
use crate::rules::{Rules, Size};
use crate::scheduler::{Decision, OnlineScheduler};
use crate::tunable::Ratio;

/// Trigger labels recorded in the run trace.
pub mod reason {
    /// The `|Q| ≥ G/T` queue-size rule fired.
    pub const QUEUE: &str = "alg3:queue>=G/T";
    /// The hypothetical queue flow reached `G`.
    pub const FLOW: &str = "alg3:flow>=G";
}

/// `|Q| ≥ G/T` or `f ≥ G`; jobs are reserved in release order.
pub(crate) const RULES: Rules = Rules {
    size: Some(Size::Count),
    full_queue: false,
    flow: Some(Ratio::ONE),
    order: PriorityPolicy::EarliestReleaseFirst,
    immediate: None,
    labels: [Some(reason::QUEUE), None, Some(reason::FLOW), None],
};

/// Algorithm 3 of the paper (explicit "spec" assignment mode).
#[derive(Debug, Clone, Default)]
pub struct Alg3;

impl Alg3 {
    /// The algorithm exactly as in the paper (spec assignment mode).
    pub fn new() -> Self {
        Alg3
    }
}

impl OnlineScheduler for Alg3 {
    fn name(&self) -> String {
        "Alg3".into()
    }

    fn auto_policy(&self) -> PriorityPolicy {
        RULES.order
    }

    fn decide_late(&mut self, view: &EngineView) -> Decision {
        RULES.decide_late(view)
    }

    fn next_wake(&self, view: &EngineView) -> Option<Time> {
        RULES.wake(view)
    }
}

/// The "practical" variant suggested in Section 3.3: run Algorithm 3 for its
/// calibration decisions only, then re-assign the jobs optimally with
/// Observation 2.1 over the same calibration times. The calibration cost is
/// identical; the flow can only improve.
pub fn run_alg3_practical(instance: &Instance, cal_cost: Cost) -> RunResult {
    run_practical(instance, cal_cost, &mut Alg3::new())
}

/// Runs `scheduler` for its calibration times and re-assigns the jobs over
/// them with Observation 2.1 (heaviest first).
pub(crate) fn run_practical(
    instance: &Instance,
    cal_cost: Cost,
    scheduler: &mut dyn OnlineScheduler,
) -> RunResult {
    let spec = run_online(instance, cal_cost, scheduler);
    let times = spec.schedule.calibration_times();
    // The spec run scheduled every job under these calibrations, so
    // Observation 2.1 can too; if the assigner ever disagrees, the spec
    // schedule is still a correct (just unoptimized) answer.
    let schedule = assign_greedy_with_policy(instance, &times, PriorityPolicy::HighestWeightFirst)
        .unwrap_or(spec.schedule);
    let flow = schedule.total_weighted_flow(instance);
    let calibrations = schedule.calibration_count();
    RunResult {
        cost: cal_cost * Cost::try_from(calibrations).unwrap_or(Cost::MAX) + flow,
        flow,
        calibrations,
        schedule,
        intervals: spec.intervals,
        trace: spec.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calib_core::InstanceBuilder;

    #[test]
    fn burst_spreads_across_machines() {
        // P = 2, G = 4, T = 2 -> quota ⌊G/T⌋ = 2, queue rule at 2 jobs.
        // Four jobs at 0: two calibrations at t = 0, one per machine,
        // all four jobs in slots 0 and 1.
        let inst = InstanceBuilder::new(2)
            .machines(2)
            .unit_jobs([0, 0, 0, 0])
            .build()
            .unwrap();
        let res = run_online(&inst, 4, &mut Alg3::new());
        assert_eq!(res.calibrations, 2);
        assert_eq!(res.flow, 1 + 1 + 2 + 2);
        let machines: std::collections::HashSet<u32> = res
            .schedule
            .assignments
            .iter()
            .map(|a| a.machine.0)
            .collect();
        assert_eq!(machines.len(), 2);
    }

    #[test]
    fn single_machine_alg3_matches_flow_trigger() {
        // P = 1: the flow rule behaves like Alg1's. One job, G = 5, T = 3:
        // calibrate at t = 3.
        let inst = InstanceBuilder::new(3).unit_jobs([0]).build().unwrap();
        let res = run_online(&inst, 5, &mut Alg3::new());
        assert_eq!(res.calibrations, 1);
        assert_eq!(res.trace[0].0, 3);
        assert_eq!(res.flow, 4);
    }

    #[test]
    fn while_loop_issues_multiple_calibrations() {
        // P = 3, G = 2, T = 2 -> quota 1, queue rule at 1 job. Three jobs
        // at 0 -> three calibrations in the same step, one per machine.
        let inst = InstanceBuilder::new(2)
            .machines(3)
            .unit_jobs([0, 0, 0])
            .build()
            .unwrap();
        let res = run_online(&inst, 2, &mut Alg3::new());
        assert_eq!(res.calibrations, 3);
        assert_eq!(res.flow, 3); // all at slot 0
        assert!(res.trace.iter().all(|&(t, _)| t == 0));
    }

    #[test]
    fn practical_mode_never_has_more_flow() {
        let inst = InstanceBuilder::new(3)
            .machines(2)
            .unit_jobs([0, 0, 1, 4, 4, 5, 11])
            .build()
            .unwrap();
        for g in [1u128, 3, 9, 27] {
            let spec = run_online(&inst, g, &mut Alg3::new());
            let practical = run_alg3_practical(&inst, g);
            assert_eq!(practical.calibrations, spec.calibrations, "G={g}");
            assert!(practical.flow <= spec.flow, "G={g}");
        }
    }

    #[test]
    fn arrivals_into_open_interval_run_immediately() {
        // One calibration covers later arrivals (lines 6-9).
        let inst = InstanceBuilder::new(8)
            .machines(2)
            .unit_jobs([0, 0, 2, 3])
            .build()
            .unwrap();
        let res = run_online(&inst, 4, &mut Alg3::new());
        // G/T = 0.5 -> queue rule at any job; quota 1 per interval... first
        // step calibrates for the two waiting jobs (two intervals, quota 1
        // each; |Q| * T >= G whenever Q non-empty).
        assert!(res.calibrations >= 2);
        // Jobs at 2 and 3 arrive inside open coverage and run at release.
        assert_eq!(res.schedule.start_of(calib_core::JobId(2)), Some(2));
        assert_eq!(res.schedule.start_of(calib_core::JobId(3)), Some(3));
        assert_eq!(res.flow, 4);
    }
}
