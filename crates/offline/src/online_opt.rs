//! Offline optimum for the *online* objective
//! `G · (#calibrations) + total weighted flow`.
//!
//! Pricing each calibration at `G` instead of counting it against a budget
//! turns Proposition 1 into the penalized recurrence
//! `P(v) = min_{u ≤ v} { P(u−1) + G·⌈(v−u+1)/T⌉ + f(u, v, 0) }`, `P(0) = 0`,
//! over the same group DP `f` (Proposition 2). `P(n)` minimizes `G·C + flow`
//! over all partitions into groups, so it equals `min_K { K·G + F(K, n) }`
//! with no convexity assumption and no sweep over budgets. This is the
//! exact baseline `OPT` that the competitive-ratio experiments divide by.

use calib_core::{Cost, Instance};

use crate::dp::group::GroupDp;
use crate::dp::{
    check_single_machine, group_calibration_count, release_weight, to_flow, OfflineError,
};
use crate::ranks::RankedJobs;

/// The optimal offline cost and the budget that achieves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnlineOpt {
    /// `min_K { K·G + F(K, n) }`.
    pub cost: Cost,
    /// The smallest minimizing number of calibrations.
    pub calibrations: usize,
    /// The flow part of the optimum.
    pub flow: Cost,
}

/// Exact offline optimum of the online objective on one machine.
///
/// The instance must be normalized (strictly increasing releases).
pub fn opt_online_cost(instance: &Instance, cal_cost: Cost) -> Result<OnlineOpt, OfflineError> {
    // An empty instance costs nothing on any number of machines.
    if instance.n() > 0 {
        check_single_machine(instance)?;
    }
    let (jobs, t) = (instance.jobs(), instance.cal_len());
    let mut gdp = GroupDp::new(RankedJobs::new(jobs), t);
    // `best[v]`: the least `(cost, calibrations, flow)` over partitions of
    // the first `v` jobs, so cost ties go to fewer calibrations. A job alone
    // in its own interval runs at release (flow `w`): every entry is finite.
    let mut best: Vec<(Cost, usize, Cost)> = vec![(0, 0, 0)];
    for (v, job) in jobs.iter().enumerate() {
        let (cost, cals, flow) = best[v];
        let w = Cost::from(job.weight);
        let mut p = (cost + cal_cost + w, cals + 1, flow + w);
        let mut release_sum = release_weight(job);
        // Groups `u..=v` of two or more jobs, 0-based.
        for u in (0..v).rev() {
            release_sum += release_weight(&jobs[u]);
            if let Some(completion) = gdp.f(u, v, 0) {
                let used = group_calibration_count(v - u + 1, t);
                let group_flow = to_flow(completion, release_sum);
                let (cost, cals, flow) = best[u];
                let penalty = cal_cost * Cost::try_from(used).unwrap_or(Cost::MAX);
                p = p.min((cost + penalty + group_flow, cals + used, flow + group_flow));
            }
        }
        best.push(p);
    }
    let (cost, calibrations, flow) = best[jobs.len()];
    Ok(OnlineOpt {
        cost,
        calibrations,
        flow,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use calib_core::InstanceBuilder;

    #[test]
    fn empty_instance() {
        let inst = InstanceBuilder::new(3).build().unwrap();
        let opt = opt_online_cost(&inst, 100).unwrap();
        assert_eq!(opt.cost, 0);
    }

    #[test]
    fn single_job_pays_one_calibration() {
        let inst = InstanceBuilder::new(3).unit_jobs([5]).build().unwrap();
        let opt = opt_online_cost(&inst, 10).unwrap();
        // Calibrate once, run at release: 10 + 1.
        assert_eq!(opt.cost, 11);
        assert_eq!(opt.calibrations, 1);
    }

    #[test]
    fn expensive_calibrations_merge_intervals() {
        // Two far-apart jobs: cheap G -> 2 calibrations; huge G -> 1.
        let inst = InstanceBuilder::new(2).unit_jobs([0, 10]).build().unwrap();
        let cheap = opt_online_cost(&inst, 1).unwrap();
        assert_eq!(cheap.calibrations, 2);
        assert_eq!(cheap.cost, 2 + 2);
        let pricey = opt_online_cost(&inst, 1000).unwrap();
        assert_eq!(pricey.calibrations, 1);
        // One interval ending right after r=10: job 0 waits until 9
        // (flow 10), job 1 runs at 10 (flow 1).
        assert_eq!(pricey.cost, 1000 + 11);
        // At G = 9 both cost 20; the tie goes to fewer calibrations.
        let tie = opt_online_cost(&inst, 9).unwrap();
        assert_eq!((tie.cost, tie.calibrations, tie.flow), (20, 1, 11));
    }

    #[test]
    fn matches_brute_force_over_budgets() {
        let inst = InstanceBuilder::new(3)
            .unit_jobs([0, 2, 4, 9])
            .build()
            .unwrap();
        for g in [0u128, 1, 3, 10, 50] {
            let opt = opt_online_cost(&inst, g).unwrap();
            let mut brute_best = Cost::MAX;
            for k in 0..=inst.n() {
                if let Some((flow, _)) = crate::brute::optimal_flow_brute(&inst, k) {
                    brute_best = brute_best.min(g * Cost::try_from(k).unwrap() + flow);
                }
            }
            assert_eq!(opt.cost, brute_best, "G={g}");
        }
    }
}
