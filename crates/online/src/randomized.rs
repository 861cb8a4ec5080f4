//! An *extension beyond the paper*: a randomized calibration trigger.
//!
//! Lemma 3.1's `2 − o(1)` lower bound holds for **deterministic** online
//! algorithms; the paper leaves randomization untouched. Classical ski
//! rental admits a randomized `e/(e−1) ≈ 1.58`-competitive strategy against
//! an *oblivious* adversary by buying at a random fraction of the purchase
//! price; this scheduler ports that idea: each time the machine is
//! uncalibrated and jobs are waiting, it waits until the queue's
//! hypothetical flow reaches `X·G` where `X ∈ (0, 1]` is drawn (per
//! interval) from the ski-rental density `f(x) = eˣ/(e−1)`.
//!
//! Algorithm 1's other rules (queue-size trigger, immediate calibration)
//! are kept — they defend against the job-train branch, which randomization
//! alone does not. No competitive guarantee is claimed; experiment E13
//! measures the expected ratio on the Lemma 3.1 instances and random
//! workloads.
//!
//! Randomness is deterministic in the seed: runs are reproducible and the
//! engine's skip/no-skip equivalence still holds for a fixed seed.

use calib_core::{earliest_flow_crossing, Cost, PriorityPolicy, Time};

use crate::engine::EngineView;
use crate::rules::{Rules, Size};
use crate::scheduler::{Decision, OnlineScheduler};
use reason::{FLOW, IMMEDIATE, QUEUE};

/// Trigger labels.
pub mod reason {
    /// The `|Q| ≥ G/T` queue-size rule fired.
    pub const QUEUE: &str = "rand:queue>=G/T";
    /// The randomized flow threshold `X·G` was reached.
    pub const FLOW: &str = "rand:flow>=X*G";
    /// Immediate calibration after a cheap interval.
    pub const IMMEDIATE: &str = "rand:immediate";
}

/// Algorithm 1's auxiliary rules, checked after the sampled flow
/// threshold (summed in release order), which carries the flow label.
pub(crate) const RULES: Rules = Rules {
    size: Some(Size::Count),
    full_queue: false,
    flow: None,
    order: PriorityPolicy::EarliestReleaseFirst,
    immediate: Some(2),
    labels: [Some(QUEUE), None, Some(FLOW), Some(IMMEDIATE)],
};

/// A tiny deterministic PRNG (SplitMix64) so the crate needs no `rand`
/// dependency and runs stay reproducible.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Randomized Algorithm 1 variant (see module docs).
#[derive(Debug, Clone)]
pub struct RandomizedSkiRental {
    rng: SplitMix64,
    /// The flow threshold for the *current* wait, as an exact integer
    /// `ceil(X·G)`; resampled after every calibration.
    current_threshold: Option<Cost>,
    keep_alg1_rules: bool,
}

impl RandomizedSkiRental {
    /// Seeded scheduler with Algorithm 1's auxiliary rules kept.
    pub fn new(seed: u64) -> Self {
        RandomizedSkiRental {
            rng: SplitMix64(seed ^ 0x5ca1ab1e),
            current_threshold: None,
            keep_alg1_rules: true,
        }
    }

    /// Pure randomized ski rental: *only* the randomized flow trigger
    /// (exposes how necessary Algorithm 1's extra rules are).
    pub fn pure(seed: u64) -> Self {
        RandomizedSkiRental {
            keep_alg1_rules: false,
            ..RandomizedSkiRental::new(seed)
        }
    }

    /// Samples `X` with density `eˣ/(e−1)` on `(0, 1]` via inverse CDF:
    /// `X = ln(1 + u(e−1))`.
    fn sample_fraction(&mut self) -> f64 {
        let u = self.rng.next_f64();
        (1.0 + u * (std::f64::consts::E - 1.0))
            .ln()
            .clamp(f64::MIN_POSITIVE, 1.0)
    }

    fn threshold(&mut self, g: Cost) -> Cost {
        if let Some(th) = self.current_threshold {
            return th;
        }
        let x = self.sample_fraction();
        let th = ((x * g as f64).ceil() as Cost).clamp(1, g.max(1));
        self.current_threshold = Some(th);
        th
    }
}

impl OnlineScheduler for RandomizedSkiRental {
    fn name(&self) -> String {
        if self.keep_alg1_rules {
            "RandSkiRental".into()
        } else {
            "RandSkiRental(pure)".into()
        }
    }

    fn auto_policy(&self) -> PriorityPolicy {
        RULES.order
    }

    fn decide_early(&mut self, view: &EngineView) -> Decision {
        if view.any_calibrated() || view.waiting.is_empty() {
            return Decision::none();
        }
        let threshold = self.threshold(view.cal_cost);
        let label = if RULES.queue_flow(view) >= threshold {
            Some(FLOW)
        } else {
            self.keep_alg1_rules.then(|| RULES.fired(view)).flatten()
        };
        if label.is_some() {
            self.current_threshold = None; // resample for the next wait
        }
        label.map_or_else(Decision::none, Decision::calibrate)
    }

    fn next_wake(&self, view: &EngineView) -> Option<Time> {
        // Conservative: wake at the crossing of the *smallest possible*
        // threshold already sampled (or 1 if none yet). The engine maxes
        // with t+1, so at worst we take a few extra single steps.
        let threshold = self.current_threshold.unwrap_or(1);
        earliest_flow_crossing(&view.queue_in(RULES.order), threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_online;
    use calib_core::{check_schedule, InstanceBuilder};

    #[test]
    fn deterministic_in_the_seed() {
        let inst = InstanceBuilder::new(4)
            .unit_jobs([0, 3, 9, 15, 16])
            .build()
            .unwrap();
        let a = run_online(&inst, 20, &mut RandomizedSkiRental::new(7));
        let b = run_online(&inst, 20, &mut RandomizedSkiRental::new(7));
        assert_eq!(a.schedule, b.schedule);
        let c = run_online(&inst, 20, &mut RandomizedSkiRental::new(8));
        // Different seeds usually calibrate at different times; at minimum
        // the run must still be feasible.
        check_schedule(&inst, &c.schedule).unwrap();
    }

    #[test]
    fn threshold_always_in_unit_range() {
        let mut s = RandomizedSkiRental::new(3);
        for _ in 0..1000 {
            let x = s.sample_fraction();
            assert!(x > 0.0 && x <= 1.0, "fraction {x}");
            let th = s.threshold(100);
            assert!((1..=100).contains(&th), "threshold {th}");
            s.current_threshold = None;
        }
    }

    #[test]
    fn expected_threshold_matches_ski_rental_density() {
        // E[X] under f(x) = e^x/(e-1) is 1/(e-1) ≈ 0.582.
        let mut s = RandomizedSkiRental::new(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| s.sample_fraction()).sum::<f64>() / n as f64;
        assert!(
            (mean - 1.0 / (std::f64::consts::E - 1.0)).abs() < 0.01,
            "mean {mean}"
        );
    }

    #[test]
    fn schedules_everything_and_beats_2g_worst_case_sometimes() {
        // Against the branch-1 adversary instance (job at 0 and at T), the
        // deterministic eager algorithm pays 2G + 2; the randomized one
        // pays less in expectation when G/T <= 1 is not forced... here just
        // assert feasibility and cost sanity across seeds.
        let t = 50i64;
        let g = 40u128;
        let inst = InstanceBuilder::new(t).unit_jobs([0, t]).build().unwrap();
        for seed in 0..20 {
            let res = run_online(&inst, g, &mut RandomizedSkiRental::pure(seed));
            check_schedule(&inst, &res.schedule).unwrap();
            assert!(
                res.cost >= g + 2,
                "must pay at least one calibration + flow"
            );
            assert!(res.cost <= 2 * g + 2 * (g + 2), "wildly off: {}", res.cost);
        }
    }
}
