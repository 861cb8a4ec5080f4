//! Algorithm 2 — online weighted calibration on one machine
//! (12-competitive, Theorem 3.8; 6-competitive against the release-ordered
//! optimum `OPT_r`).
//!
//! At each uncalibrated step `t` with waiting queue `Q`, calibrate if
//!
//! * the queue's total weight is at least `G/T`, or
//! * `|Q| = T` (a full interval's worth of jobs is waiting), or
//! * the hypothetical flow `f` (all of `Q` run back-to-back from `t+1`) is
//!   at least `G`.
//!
//! There are no immediate calibrations in the weighted algorithm. When the
//! step is calibrated, the engine extracts a job per the configured
//! [`ExtractionPolicy`]. The paper's pseudocode (line 13) literally says
//! "smallest weight", but Observation 2.1, the surrounding prose and the
//! proof of Lemma 3.5 all schedule the *heaviest* job first; heaviest-first
//! is our default and lightest-first is kept as an ablation (DESIGN.md §5).

use calib_core::{PriorityPolicy, Time};

use crate::engine::EngineView;
use crate::rules::{Rules, Size};
use crate::scheduler::{Decision, OnlineScheduler};
use crate::tunable::Ratio;
use reason::{FLOW, FULL_QUEUE, WEIGHT};

/// Trigger labels recorded in the run trace.
pub mod reason {
    /// The `Σ w(Q) ≥ G/T` weight rule fired.
    pub const WEIGHT: &str = "alg2:weight>=G/T";
    /// A full interval's worth of jobs (`|Q| = T`) is waiting.
    pub const FULL_QUEUE: &str = "alg2:|Q|=T";
    /// The hypothetical queue flow reached `G`.
    pub const FLOW: &str = "alg2:flow>=G";
}

/// `Σ w(Q) ≥ G/T`, `|Q| = T` (`≥` for robustness; the queue only grows by
/// arrivals), then `f ≥ G`, with `f` summed in extraction order.
pub(crate) const RULES: Rules = Rules {
    size: Some(Size::Weight(Ratio::ONE)),
    full_queue: true,
    flow: Some(Ratio::ONE),
    order: PriorityPolicy::HighestWeightFirst,
    immediate: None,
    labels: [Some(WEIGHT), Some(FULL_QUEUE), Some(FLOW), None],
};

/// Which waiting job runs first once a step is calibrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractionPolicy {
    /// Observation 2.1 (default; what the analysis assumes).
    HeaviestFirst,
    /// The literal pseudocode line 13 — kept for the E10 ablation.
    LightestFirst,
}

/// Algorithm 2 of the paper.
#[derive(Debug, Clone)]
pub struct Alg2 {
    /// Which job runs first when a step is calibrated.
    pub extraction: ExtractionPolicy,
}

impl Alg2 {
    /// The algorithm with the analysis' heaviest-first extraction.
    pub fn new() -> Self {
        Alg2 {
            extraction: ExtractionPolicy::HeaviestFirst,
        }
    }

    /// The ablated literal-pseudocode variant.
    pub fn lightest_first() -> Self {
        Alg2 {
            extraction: ExtractionPolicy::LightestFirst,
        }
    }

    fn rules(&self) -> Rules {
        Rules {
            order: self.auto_policy(),
            ..RULES
        }
    }
}

impl Default for Alg2 {
    fn default() -> Self {
        Alg2::new()
    }
}

impl OnlineScheduler for Alg2 {
    fn name(&self) -> String {
        match self.extraction {
            ExtractionPolicy::HeaviestFirst => "Alg2".into(),
            ExtractionPolicy::LightestFirst => "Alg2(lightest-first)".into(),
        }
    }

    fn auto_policy(&self) -> PriorityPolicy {
        match self.extraction {
            ExtractionPolicy::HeaviestFirst => PriorityPolicy::HighestWeightFirst,
            ExtractionPolicy::LightestFirst => PriorityPolicy::LightestWeightFirst,
        }
    }

    fn decide_early(&mut self, view: &EngineView) -> Decision {
        debug_assert_eq!(view.machines.len(), 1, "Algorithm 2 is single-machine");
        self.rules().decide_early(view)
    }

    fn next_wake(&self, view: &EngineView) -> Option<Time> {
        self.rules().wake(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_online;
    use calib_core::InstanceBuilder;

    #[test]
    fn heavy_job_triggers_weight_rule() {
        // G = 20, T = 4 -> weight threshold G/T = 5. A weight-6 job
        // calibrates instantly; a weight-1 job would wait.
        let inst = InstanceBuilder::new(4).job(0, 6).build().unwrap();
        let res = run_online(&inst, 20, &mut Alg2::new());
        assert_eq!(res.trace[0], (0, reason::WEIGHT));
        assert_eq!(res.flow, 6);
    }

    #[test]
    fn light_job_waits_for_flow() {
        // Same parameters, weight-1 job: f(t) = t + 2 >= 20 at t = 18.
        let inst = InstanceBuilder::new(4).job(0, 1).build().unwrap();
        let res = run_online(&inst, 20, &mut Alg2::new());
        assert_eq!(res.trace[0], (18, reason::FLOW));
        assert_eq!(res.flow, 19);
    }

    #[test]
    fn full_queue_rule_fires() {
        // T = 2, G = 100: weight rule needs Σw >= 50, flow needs 100; two
        // light jobs fill the queue to |Q| = T = 2 first.
        let inst = InstanceBuilder::new(2).job(0, 1).job(1, 1).build().unwrap();
        let res = run_online(&inst, 100, &mut Alg2::new());
        assert_eq!(res.trace[0], (1, reason::FULL_QUEUE));
    }

    #[test]
    fn heaviest_first_beats_lightest_first_here() {
        // Two jobs waiting; heavy should run first.
        let inst = InstanceBuilder::new(4)
            .job(0, 1)
            .job(0, 10)
            .build()
            .unwrap();
        let heavy = run_online(&inst, 8, &mut Alg2::new());
        let light = run_online(&inst, 8, &mut Alg2::lightest_first());
        assert!(heavy.flow < light.flow, "{} vs {}", heavy.flow, light.flow);
    }

    #[test]
    fn arrivals_inside_interval_run_by_weight() {
        // Interval open; heavier later arrival preempts queue order.
        // G = 2, T = 6: the weight rule fires at t=0 (1*6 >= 2).
        let inst = InstanceBuilder::new(6)
            .job(0, 1)
            .job(1, 1)
            .job(1, 7)
            .build()
            .unwrap();
        let res = run_online(&inst, 2, &mut Alg2::new());
        assert_eq!(res.calibrations, 1);
        // t=0: job0 runs. t=1: jobs 1 (w=1) and 2 (w=7) wait; w=7 runs.
        let s = &res.schedule;
        assert_eq!(s.start_of(calib_core::JobId(2)), Some(1));
        assert_eq!(s.start_of(calib_core::JobId(1)), Some(2));
    }

    #[test]
    fn unweighted_alg2_similar_to_alg1_without_immediate() {
        // On unit weights, Alg2's weight rule equals Alg1's queue rule; the
        // |Q| = T rule can only fire earlier. Sanity: both schedule all jobs
        // with comparable cost on a burst.
        let inst = InstanceBuilder::new(3)
            .unit_jobs([0, 1, 2, 9, 14])
            .build()
            .unwrap();
        let a2 = run_online(&inst, 6, &mut Alg2::new());
        let a1 = run_online(&inst, 6, &mut crate::alg1::Alg1::without_immediate_rule());
        assert_eq!(a2.schedule.assignments.len(), 5);
        assert_eq!(a1.schedule.assignments.len(), 5);
    }
}
