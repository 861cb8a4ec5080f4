//! The ski-rental triggers shared by the threshold schedulers.
//!
//! Algorithms 1–3 and their variants calibrate when one of four rules
//! holds on the waiting queue `Q`, checked in this order:
//!
//! * **size** — `|Q| ≥ G/T`, or `Σ w(Q) ≥ r · G/T` when jobs are weighted;
//! * **full queue** — `|Q| ≥ T` (Algorithm 2);
//! * **flow** — the hypothetical flow `f` of `Q` run back-to-back from
//!   `t + 1`, in the scheduler's service order, reaches `r · G`;
//! * **immediate** — a job arrived at `t` and the most recent interval's
//!   jobs had total flow below `G / d` (Algorithm 1, lines 11–14).
//!
//! Each scheduler is a [`Rules`] preset. All tests are exact integer
//! arithmetic.

use calib_core::{
    earliest_flow_crossing, flow_if_run_consecutively, ge_ratio, Cost, PriorityPolicy, Time,
};

use crate::engine::EngineView;
use crate::scheduler::{Decision, Reservation};
use crate::tunable::Ratio;

/// How the size rule measures the queue.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Size {
    /// `|Q| · T ≥ G`.
    Count,
    /// `Σ w(Q) · T ≥ r · G`.
    Weight(Ratio),
}

/// The trace label of each rule — size, full queue, flow, immediate —
/// and `None` where the scheduler has no such rule.
pub(crate) type Labels = [Option<&'static str>; 4];

/// Every trace label the shipped schedulers emit, for re-interning the
/// labels of a restored snapshot.
pub(crate) fn known_labels() -> impl Iterator<Item = &'static str> {
    [
        crate::alg1::RULES.labels,
        crate::alg2::RULES.labels,
        crate::alg3::RULES.labels,
        crate::weighted_multi::RULES.labels,
        crate::tunable::LABELS,
        crate::randomized::RULES.labels,
        crate::baselines::SKI_RULES.labels,
    ]
    .into_iter()
    .flatten()
    .flatten()
    .chain([crate::baselines::NAIVE_NOW])
}

/// One scheduler's trigger preset.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rules {
    /// The size rule, if any.
    pub(crate) size: Option<Size>,
    /// Calibrate when `|Q| ≥ T`.
    pub(crate) full_queue: bool,
    /// The flow rule's multiplier `r` in `f ≥ r · G`, if any.
    pub(crate) flow: Option<Ratio>,
    /// The order the flow is summed in (the scheduler's service order);
    /// the reserve step also reserves in this order.
    pub(crate) order: PriorityPolicy,
    /// The immediate rule's divisor `d` in `p < G / d`, if any.
    pub(crate) immediate: Option<u32>,
    /// What [`Rules::fired`] returns for each rule.
    pub(crate) labels: Labels,
}

impl Rules {
    /// The label of the first rule that holds (so the earliest rule
    /// labels a step where several hold), or `None`, also for an empty
    /// queue.
    pub(crate) fn fired(&self, view: &EngineView) -> Option<&'static str> {
        let [size, full_queue, flow, immediate] = self.labels;
        let (len, g) = (view.waiting.len(), view.cal_cost);
        if len == 0 {
            return None;
        }
        // `cal_len >= 1` by instance validation; the fallback keeps the
        // ratio denominator positive even in the unreachable branch.
        let t_len = Cost::try_from(view.cal_len).unwrap_or(1);
        let size_holds = match self.size {
            Some(Size::Count) => ge_ratio(Cost::try_from(len).unwrap_or(Cost::MAX), g, t_len),
            Some(Size::Weight(r)) => r.le_scaled(view.queue_weight() * t_len, g),
            None => false,
        };
        let flow_holds = |r: Ratio| r.le_scaled(self.queue_flow(view), g);
        let cheap_last = |d: u32| {
            view.last_interval()
                .is_some_and(|last| last.total_flow() * Cost::from(d) < g)
        };
        if size_holds {
            size
        } else if self.full_queue && Time::try_from(len).unwrap_or(Time::MAX) >= view.cal_len {
            full_queue
        } else if self.flow.is_some_and(flow_holds) {
            flow
        } else if view.arrived_now && self.immediate.is_some_and(cheap_last) {
            immediate
        } else {
            None
        }
    }

    /// The paper's `f`: the flow of the waiting queue run back-to-back
    /// from `t + 1` in `order`.
    pub(crate) fn queue_flow(&self, view: &EngineView) -> Cost {
        flow_if_run_consecutively(&view.queue_in(self.order), view.t + 1)
    }

    /// The earliest step at which the flow rule can fire with no new
    /// arrival: `f` is linear in `t` between events, so the crossing of
    /// `⌈r · G⌉` solves in closed form. `None` for an empty queue or no
    /// flow rule; the queue size and arrivals only change at release
    /// events, which wake the engine anyway.
    pub(crate) fn wake(&self, view: &EngineView) -> Option<Time> {
        let r = self.flow?;
        let threshold = (Cost::from(r.num) * view.cal_cost).div_ceil(Cost::from(r.den));
        earliest_flow_crossing(&view.queue_in(self.order), threshold)
    }

    /// The single-machine step (Algorithms 1 and 2): calibrate when the
    /// current step is uncalibrated and a rule fires.
    pub(crate) fn decide_early(&self, view: &EngineView) -> Decision {
        if view.any_calibrated() {
            return Decision::none();
        }
        self.fired(view)
            .map_or_else(Decision::none, Decision::calibrate)
    }

    /// Algorithm 3's calibrate-and-reserve step (lines 10–14): when a rule
    /// fires, calibrate the round-robin machine and reserve up to
    /// [`reserve_quota`] waiting jobs, in `order`, into its first free
    /// slots of `[t, t + T)`. The engine re-invokes the step, which
    /// realizes the pseudocode's `while` loop.
    pub(crate) fn decide_late(&self, view: &EngineView) -> Decision {
        let Some(label) = self.fired(view) else {
            return Decision::none();
        };
        let m = view.next_rr_machine;
        let slots = view.machines[m.index()].plannable_slots_in(
            view.t,
            view.t + view.cal_len,
            reserve_quota(view.cal_cost, view.cal_len).min(view.waiting.len()),
        );
        let reserve: Vec<Reservation> = view
            .queue_in(self.order)
            .iter()
            .zip(slots)
            .map(|(job, slot)| Reservation {
                job: job.id,
                machine: m,
                slot,
            })
            .collect();
        if reserve.is_empty() {
            // The round-robin target has no free slot in [t, t+T) (possible
            // only under heavy interval overlap). Calibrating would make no
            // progress; stop this step and let time advance.
            return Decision::none();
        }
        Decision {
            reserve,
            ..Decision::calibrate(label)
        }
    }
}

/// Jobs reserved per fresh interval: `max(1, ⌊G/T⌋)`. The floor matches
/// "up to G/T jobs" (Observation 3.9 counts on the remaining `T − G/T`
/// slots being free); the `max(1, ·)` keeps progress when `G < T`, where
/// the paper's algorithms schedule arrivals immediately anyway.
fn reserve_quota(g: Cost, t: Time) -> usize {
    // `t >= 1` by instance validation; `Cost::MAX` as the fallback
    // denominator floors the quota to 0 and the `max(1)` takes over.
    let quota = g / Cost::try_from(t).unwrap_or(Cost::MAX);
    usize::try_from(quota).unwrap_or(usize::MAX).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_quota_floors_and_keeps_one() {
        assert_eq!(reserve_quota(8, 4), 2);
        assert_eq!(reserve_quota(9, 4), 2);
        assert_eq!(reserve_quota(3, 4), 1);
        assert_eq!(reserve_quota(0, 4), 1);
    }

    #[test]
    fn known_labels_are_distinct() {
        let all: Vec<&str> = known_labels().collect();
        for (i, a) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(a), "label {a} listed twice");
        }
        assert!(!all.contains(&"calibrate"));
    }
}
