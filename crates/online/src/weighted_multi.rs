//! An *extension beyond the paper*: weighted jobs on multiple machines.
//!
//! The paper proves constant competitiveness for weighted/1-machine
//! (Algorithm 2) and unweighted/P-machines (Algorithm 3) and leaves the
//! weighted multi-machine case open. This scheduler combines the two
//! designs — Algorithm 3's round-robin calibrate-and-reserve loop with
//! Algorithm 2's weight-based thresholds and heaviest-first service —
//! as an empirical heuristic. No competitive guarantee is claimed; the E12
//! experiment measures it against the (weighted) Figure 1 LP lower bound.

use calib_core::{Cost, Instance, PriorityPolicy, Time};

use crate::engine::{EngineView, RunResult};
use crate::rules::{Rules, Size};
use crate::scheduler::{Decision, OnlineScheduler};
use crate::tunable::Ratio;
use reason::{FLOW, FULL_QUEUE, WEIGHT};

/// Trigger labels.
pub mod reason {
    /// The `Σ w(Q) ≥ G/T` weight rule fired.
    pub const WEIGHT: &str = "wmulti:weight>=G/T";
    /// The hypothetical queue flow reached `G`.
    pub const FLOW: &str = "wmulti:flow>=G";
    /// A full interval's worth of jobs is waiting.
    pub const FULL_QUEUE: &str = "wmulti:|Q|=T";
}

/// Algorithm 2's thresholds (`Σ w(Q) ≥ G/T`, `|Q| ≥ T`, `f ≥ G`) in
/// Observation 2.1 order: `f` is summed, and the *heaviest* waiting jobs
/// are reserved into the earliest slots of the new interval, heaviest
/// first.
pub(crate) const RULES: Rules = Rules {
    size: Some(Size::Weight(Ratio::ONE)),
    full_queue: true,
    flow: Some(Ratio::ONE),
    order: PriorityPolicy::HighestWeightFirst,
    immediate: None,
    labels: [Some(WEIGHT), Some(FULL_QUEUE), Some(FLOW), None],
};

/// Weighted multi-machine heuristic (extension; see module docs).
#[derive(Debug, Clone, Default)]
pub struct WeightedMulti;

impl WeightedMulti {
    /// A fresh instance of the heuristic.
    pub fn new() -> Self {
        WeightedMulti
    }
}

impl OnlineScheduler for WeightedMulti {
    fn name(&self) -> String {
        "WeightedMulti".into()
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

/// The Observation 2.1 "practical" variant of [`WeightedMulti`], mirroring
/// [`crate::alg3::run_alg3_practical`]: keep the heuristic's calibration
/// times, re-assign jobs optimally.
pub fn run_weighted_multi_practical(instance: &Instance, cal_cost: Cost) -> RunResult {
    crate::alg3::run_practical(instance, cal_cost, &mut WeightedMulti::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_online;
    use crate::Alg2;
    use calib_core::{check_schedule, InstanceBuilder};

    #[test]
    fn schedules_everything_multi_machine() {
        let inst = InstanceBuilder::new(3)
            .machines(2)
            .job(0, 5)
            .job(0, 1)
            .job(1, 3)
            .job(6, 9)
            .job(7, 1)
            .build()
            .unwrap();
        for g in [1u128, 5, 20] {
            let res = run_online(&inst, g, &mut WeightedMulti::new());
            check_schedule(&inst, &res.schedule).unwrap();
            assert_eq!(res.schedule.assignments.len(), 5);
        }
    }

    #[test]
    fn heavy_job_triggers_early_calibration() {
        // G = 20, T = 4 -> weight threshold 5; a weight-9 job calibrates at
        // its release instead of waiting for flow.
        let inst = InstanceBuilder::new(4)
            .machines(2)
            .job(3, 9)
            .build()
            .unwrap();
        let res = run_online(&inst, 20, &mut WeightedMulti::new());
        assert_eq!(res.trace[0], (3, reason::WEIGHT));
        assert_eq!(res.flow, 9);
    }

    #[test]
    fn reserves_heaviest_first() {
        // Burst of mixed weights; quota 2 per interval. The heavy pair must
        // land in the first interval's first slots.
        let inst = InstanceBuilder::new(4)
            .machines(1)
            .job(0, 1)
            .job(0, 9)
            .job(0, 8)
            .job(0, 1)
            .build()
            .unwrap();
        let res = run_online(&inst, 8, &mut WeightedMulti::new()); // quota = 2
        check_schedule(&inst, &res.schedule).unwrap();
        let heavy_starts: Vec<_> = res
            .schedule
            .assignments
            .iter()
            .filter(|a| inst.job(a.job).unwrap().weight > 1)
            .map(|a| a.start)
            .collect();
        let light_starts: Vec<_> = res
            .schedule
            .assignments
            .iter()
            .filter(|a| inst.job(a.job).unwrap().weight == 1)
            .map(|a| a.start)
            .collect();
        assert!(heavy_starts.iter().max() < light_starts.iter().min());
    }

    #[test]
    fn degenerates_reasonably_on_single_machine() {
        // Not necessarily identical to Alg2 (reservation vs threshold
        // timing differ), but in the same cost ballpark.
        let inst = InstanceBuilder::new(3)
            .job(0, 2)
            .job(2, 7)
            .job(9, 1)
            .build()
            .unwrap();
        for g in [3u128, 12] {
            let wm = run_online(&inst, g, &mut WeightedMulti::new());
            let a2 = run_online(&inst, g, &mut Alg2::new());
            assert!(wm.cost <= 3 * a2.cost, "G={g}: {} vs {}", wm.cost, a2.cost);
            assert!(a2.cost <= 3 * wm.cost, "G={g}");
        }
    }
}

#[cfg(test)]
mod practical_tests {
    use super::*;
    use crate::engine::run_online;
    use calib_core::{check_schedule, InstanceBuilder};

    #[test]
    fn practical_never_more_flow() {
        let inst = InstanceBuilder::new(3)
            .machines(2)
            .job(0, 4)
            .job(0, 1)
            .job(2, 6)
            .job(5, 2)
            .job(9, 1)
            .build()
            .unwrap();
        for g in [2u128, 7, 21] {
            let spec = run_online(&inst, g, &mut WeightedMulti::new());
            let practical = run_weighted_multi_practical(&inst, g);
            check_schedule(&inst, &practical.schedule).unwrap();
            assert_eq!(practical.calibrations, spec.calibrations, "G={g}");
            assert!(practical.flow <= spec.flow, "G={g}");
        }
    }
}
