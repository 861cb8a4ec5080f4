//! Algorithm 1 — online unweighted calibration on one machine
//! (3-competitive, Theorem 3.3).
//!
//! At each uncalibrated step `t` with waiting queue `Q` (release order):
//!
//! * calibrate if `|Q| ≥ G/T` or the hypothetical flow
//!   `f` (all of `Q` run back-to-back from `t+1`) is at least `G`;
//! * otherwise, *immediate calibration*: calibrate if the most recent
//!   interval's jobs had total flow `p < G/2` and a job was released at `t`.
//!
//! Whenever the step is calibrated and `Q` is non-empty, the earliest
//! released job runs (the engine's earliest-release auto policy).

use calib_core::{PriorityPolicy, Time};

use crate::engine::EngineView;
use crate::rules::{Rules, Size};
use crate::scheduler::{Decision, OnlineScheduler};
use crate::tunable::Ratio;
use reason::{FLOW, IMMEDIATE, QUEUE};

/// Trigger labels recorded in the run trace.
pub mod reason {
    /// The `|Q| ≥ G/T` queue-size rule fired.
    pub const QUEUE: &str = "alg1:queue>=G/T";
    /// The hypothetical queue flow reached `G`.
    pub const FLOW: &str = "alg1:flow>=G";
    /// Immediate calibration after a cheap interval (lines 11–14).
    pub const IMMEDIATE: &str = "alg1:immediate";
}

/// `|Q| ≥ G/T`, then `f ≥ G` in release order (line 18 of the
/// pseudocode serves the earliest release), then `p < G/2`.
pub(crate) const RULES: Rules = Rules {
    size: Some(Size::Count),
    full_queue: false,
    flow: Some(Ratio::ONE),
    order: PriorityPolicy::EarliestReleaseFirst,
    immediate: Some(2),
    labels: [Some(QUEUE), None, Some(FLOW), Some(IMMEDIATE)],
};

/// Algorithm 1 of the paper. `immediate_rule` enables the line 11–14
/// "immediate calibration" after a cheap interval; disabling it is the E10
/// ablation (and the paper's suggested simplification when `T < G/T`).
#[derive(Debug, Clone)]
pub struct Alg1 {
    /// Enable the lines 11–14 immediate-calibration rule (paper default).
    pub immediate_rule: bool,
}

impl Alg1 {
    /// The algorithm exactly as in the paper.
    pub fn new() -> Self {
        Alg1 {
            immediate_rule: true,
        }
    }

    /// The ablated variant without immediate calibrations.
    pub fn without_immediate_rule() -> Self {
        Alg1 {
            immediate_rule: false,
        }
    }
}

impl Default for Alg1 {
    fn default() -> Self {
        Alg1::new()
    }
}

impl OnlineScheduler for Alg1 {
    fn name(&self) -> String {
        if self.immediate_rule {
            "Alg1".into()
        } else {
            "Alg1(no-immediate)".into()
        }
    }

    fn auto_policy(&self) -> PriorityPolicy {
        RULES.order
    }

    fn decide_early(&mut self, view: &EngineView) -> Decision {
        debug_assert_eq!(view.machines.len(), 1, "Algorithm 1 is single-machine");
        let immediate = RULES.immediate.filter(|_| self.immediate_rule);
        Rules { immediate, ..RULES }.decide_early(view)
    }

    fn next_wake(&self, view: &EngineView) -> Option<Time> {
        RULES.wake(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_online;
    use calib_core::InstanceBuilder;

    #[test]
    fn single_job_waits_for_flow_g() {
        // G = 5, T = 3: one job at 0. f(t) = t + 2; crosses 5 at t = 3.
        let inst = InstanceBuilder::new(3).unit_jobs([0]).build().unwrap();
        let res = run_online(&inst, 5, &mut Alg1::new());
        assert_eq!(res.calibrations, 1);
        assert_eq!(res.trace[0], (3, reason::FLOW));
        assert_eq!(res.flow, 4); // scheduled at 3, released at 0
        assert_eq!(res.cost, 9);
    }

    #[test]
    fn queue_threshold_calibrates_before_flow() {
        // G = 6, T = 2 -> G/T = 3 waiting jobs trigger. Three jobs at 0,1,2.
        let inst = InstanceBuilder::new(2)
            .unit_jobs([0, 1, 2])
            .build()
            .unwrap();
        let res = run_online(&inst, 6, &mut Alg1::new());
        // At t = 1 the two waiting jobs would incur flow 3 + 3 = 6 >= G if
        // run from t+1, so the flow rule fires before the queue rule
        // (which needs 3 jobs).
        assert_eq!(res.trace[0], (1, reason::FLOW));
        // The straggler at release 2 misses slot 2 (taken by job 1), waits
        // out the interval, and gets its own calibration at t = 6.
        assert_eq!(res.calibrations, 2);
        assert_eq!(res.flow, 2 + 2 + 5);
    }

    #[test]
    fn immediate_calibration_after_cheap_interval() {
        // G = 8, T = 2. One job at 0: flow rule calibrates at t = 6
        // (f(6) = 8); the job runs at 6 with flow 7 >= G/2, so no immediate
        // rule yet. Instead make the first interval cheap: G = 8, T = 4,
        // jobs at 0 then right after the first interval.
        let inst = InstanceBuilder::new(4).unit_jobs([0, 8]).build().unwrap();
        let res = run_online(&inst, 8, &mut Alg1::new());
        // Job 0: f crosses 8 at t = 6 (f(t) = t+2). Runs at 6, flow 7.
        // 7 >= G/2 = 4, so no immediate calibration for the arrival at 8...
        assert_eq!(res.trace[0], (6, reason::FLOW));
        // Job at 8 arrives inside the interval [6, 10) and runs at 8.
        assert_eq!(res.calibrations, 1);
        assert_eq!(res.flow, 7 + 1);
    }

    #[test]
    fn immediate_rule_fires_when_interval_cheap() {
        // T = 6, G = 24 (so T < G < T²). Four jobs at 0 hit the queue rule
        // (4 · 6 ≥ 24); they run at 0..3 with total flow 1+2+3+4 = 10 <
        // G/2 = 12, so the interval is "cheap". The arrival at 7 (after the
        // interval [0, 6) ends) then triggers an immediate calibration.
        let inst = InstanceBuilder::new(6)
            .unit_jobs([0, 0, 0, 0, 7])
            .build()
            .unwrap();
        let res = run_online(&inst, 24, &mut Alg1::new());
        assert_eq!(res.trace[0], (0, reason::QUEUE));
        assert_eq!(res.trace[1], (7, reason::IMMEDIATE));
        assert_eq!(res.flow, 10 + 1);
        assert_eq!(res.cost, 48 + 11);
    }

    #[test]
    fn ablation_disables_immediate_rule() {
        // Same scenario as above: without the immediate rule the straggler
        // at 7 must wait for its own flow to reach G (23 steps of flow).
        let inst = InstanceBuilder::new(6)
            .unit_jobs([0, 0, 0, 0, 7])
            .build()
            .unwrap();
        let with_rule = run_online(&inst, 24, &mut Alg1::new());
        let without = run_online(&inst, 24, &mut Alg1::without_immediate_rule());
        assert_eq!(with_rule.flow, 11);
        // f(t) = t − 5 crosses 24 at t = 29; the job runs at 29, flow 23.
        assert_eq!(without.flow, 10 + 23);
        assert_eq!(without.trace[1].1, reason::FLOW);
        assert_eq!(with_rule.calibrations, without.calibrations);
    }

    #[test]
    fn jobs_inside_interval_run_at_release() {
        // Once calibrated, arrivals within the window run immediately.
        let inst = InstanceBuilder::new(6)
            .unit_jobs([0, 4, 5])
            .build()
            .unwrap();
        let res = run_online(&inst, 3, &mut Alg1::new());
        // G/T = 0.5 <= 1, so the queue rule fires on arrival at t = 0; the
        // interval [0, 6) catches the arrivals at 4 and 5 at their release.
        assert_eq!(res.trace[0], (0, reason::QUEUE));
        assert_eq!(res.calibrations, 1);
        assert_eq!(res.flow, 1 + 1 + 1);
    }
}
