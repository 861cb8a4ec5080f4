//! Naive online baselines — comparison points for the benches, showing why
//! the paper's threshold rules matter.

use calib_core::{PriorityPolicy, Time};

use crate::engine::EngineView;
use crate::rules::Rules;
use crate::scheduler::{Decision, OnlineScheduler};
use crate::tunable::Ratio;

/// [`CalibrateImmediately`]'s trace label.
pub(crate) const NAIVE_NOW: &str = "naive:now";

/// [`SkiRentalBatch`]'s one rule: `f ≥ G`, with `f` summed in release
/// order.
pub(crate) const SKI_RULES: Rules = Rules {
    size: None,
    full_queue: false,
    flow: Some(Ratio::ONE),
    order: PriorityPolicy::EarliestReleaseFirst,
    immediate: None,
    labels: [None, None, Some("ski:flow>=G"), None],
};

/// Calibrates the moment any job is waiting and no machine is calibrated at
/// the current step. Optimizes flow, ignores calibration cost — the "rent
/// every day" end of the ski-rental spectrum. Good when `G` is tiny,
/// unboundedly bad as `G` grows relative to job density.
#[derive(Debug, Clone, Default)]
pub struct CalibrateImmediately;

impl OnlineScheduler for CalibrateImmediately {
    fn name(&self) -> String {
        "CalibrateImmediately".into()
    }

    fn auto_policy(&self) -> PriorityPolicy {
        PriorityPolicy::HighestWeightFirst
    }

    fn decide_early(&mut self, view: &EngineView) -> Decision {
        // Calibrate until every waiting job can run *now*: one calibration
        // per idle-uncovered machine while jobs outnumber usable slots.
        let usable = view
            .machines
            .iter()
            .filter(|m| m.covers(view.t) && view.t >= m.used_until() && m.slot_free(view.t))
            .count();
        let uncovered = view.machines.iter().filter(|m| !m.covers(view.t)).count();
        let need = view.waiting.len().saturating_sub(usable).min(uncovered);
        if need > 0 {
            Decision {
                calibrate: u32::try_from(need).unwrap_or(u32::MAX),
                reserve: Vec::new(),
                reason: Some(NAIVE_NOW),
            }
        } else {
            Decision::none()
        }
    }
}

/// Pure ski-rental batching: waits until the queue's hypothetical flow
/// reaches `G`, with none of Algorithm 1's queue-size or immediate-
/// calibration rules. Single machine.
#[derive(Debug, Clone, Default)]
pub struct SkiRentalBatch;

impl OnlineScheduler for SkiRentalBatch {
    fn name(&self) -> String {
        "SkiRentalBatch".into()
    }

    fn auto_policy(&self) -> PriorityPolicy {
        PriorityPolicy::HighestWeightFirst
    }

    fn decide_early(&mut self, view: &EngineView) -> Decision {
        SKI_RULES.decide_early(view)
    }

    fn next_wake(&self, view: &EngineView) -> Option<Time> {
        SKI_RULES.wake(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_online;
    use calib_core::InstanceBuilder;

    #[test]
    fn immediate_baseline_zero_extra_flow() {
        let inst = InstanceBuilder::new(3)
            .unit_jobs([0, 5, 9])
            .build()
            .unwrap();
        let res = run_online(&inst, 100, &mut CalibrateImmediately);
        // Every job runs at release; it just pays for calibrations.
        assert_eq!(res.flow, 3);
        assert!(res.calibrations >= 2); // 5 is outside [0,3); 9 outside [5,8)
    }

    #[test]
    fn immediate_baseline_multi_machine_burst() {
        let inst = InstanceBuilder::new(4)
            .machines(3)
            .unit_jobs([0, 0, 0])
            .build()
            .unwrap();
        let res = run_online(&inst, 7, &mut CalibrateImmediately);
        assert_eq!(res.flow, 3);
        assert_eq!(res.calibrations, 3);
    }

    #[test]
    fn ski_rental_waits_for_flow() {
        let inst = InstanceBuilder::new(3).unit_jobs([0]).build().unwrap();
        let res = run_online(&inst, 5, &mut SkiRentalBatch);
        assert_eq!(res.trace[0].0, 3); // f(t) = t + 2 crosses 5 at t = 3
        assert_eq!(res.flow, 4);
    }

    #[test]
    fn ski_rental_ignores_queue_size() {
        // Many simultaneous jobs: Alg1's queue rule fires instantly;
        // ski-rental still waits for flow G.
        let inst = InstanceBuilder::new(10)
            .unit_jobs([0, 0, 0, 0, 0])
            .build()
            .unwrap();
        let g = 40u128;
        let ski = run_online(&inst, g, &mut SkiRentalBatch);
        let alg1 = run_online(&inst, g, &mut crate::alg1::Alg1::new());
        // Alg1 calibrates at t=0 (5 * 10 >= 40); ski waits until f >= 40.
        assert_eq!(alg1.trace[0].0, 0);
        assert!(ski.trace[0].0 > 0);
        assert!(ski.flow > alg1.flow);
    }
}
