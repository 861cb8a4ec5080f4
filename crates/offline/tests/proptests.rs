//! Property-based tests for the offline solvers (proptest-driven, on top of
//! the seeded differential suite in `dp_vs_brute.rs`).

use proptest::prelude::*;

use calib_core::{check_schedule, Instance, Job, Time};
use calib_offline::{
    assign_fifo, candidate_starts, opt_online_cost, optimal_flow_brute, solve_offline, DpTable,
    OnlineOpt, RankedJobs,
};

/// Distinct-release job sets (what the single-machine solvers need).
fn arb_distinct_jobs(max_n: usize, span: i64, max_w: u64) -> impl Strategy<Value = Vec<Job>> {
    prop::collection::btree_set(0..=span, 1..=max_n).prop_flat_map(move |releases| {
        let releases: Vec<Time> = releases.into_iter().collect();
        let n = releases.len();
        prop::collection::vec(1..=max_w, n).prop_map(move |weights| {
            releases
                .iter()
                .zip(&weights)
                .enumerate()
                .map(|(i, (&r, &w))| Job::new(i as u32, r, w))
                .collect()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The DP agrees with brute force and reconstructs feasible,
    /// budget-respecting schedules (proptest shrinking finds the smallest
    /// counterexample if one ever appears).
    #[test]
    fn dp_equals_brute_force(
        jobs in arb_distinct_jobs(6, 12, 9),
        t in 1i64..5,
        budget in 1usize..4,
    ) {
        let inst = Instance::single_machine(jobs, t).unwrap();
        let brute = optimal_flow_brute(&inst, budget).map(|(f, _)| f);
        let dp = solve_offline(&inst, budget).unwrap();
        match (brute, dp) {
            (None, None) => {}
            (Some(bf), Some(sol)) => {
                prop_assert_eq!(sol.flow, bf);
                check_schedule(&inst, &sol.schedule).unwrap();
                prop_assert!(sol.schedule.calibration_count() <= budget);
                prop_assert_eq!(sol.schedule.total_weighted_flow(&inst), sol.flow);
            }
            (b, d) => {
                return Err(TestCaseError::fail(format!(
                    "feasibility disagreement: brute {b:?} dp {:?}",
                    d.map(|s| s.flow)
                )));
            }
        }
    }

    /// Budget monotonicity, and the penalized recurrence equals the budget
    /// sweep `min_K G·K + F(K, n)` in every field, ties going to the
    /// smallest `K`.
    #[test]
    fn budget_curve_monotone_and_opt_matches_sweep(
        jobs in arb_distinct_jobs(8, 18, 9),
        t in 1i64..5,
        g in 0u128..80,
    ) {
        let inst = Instance::single_machine(jobs, t).unwrap();
        let flows = DpTable::new(&inst, inst.n()).unwrap().flows();
        let feasible: Vec<u128> = flows.iter().copied().flatten().collect();
        prop_assert!(!feasible.is_empty());
        prop_assert!(feasible.windows(2).all(|w| w[1] <= w[0]), "not monotone: {feasible:?}");
        let sweep = flows
            .iter()
            .enumerate()
            .filter_map(|(k, flow)| {
                flow.map(|flow| (g * u128::try_from(k).unwrap() + flow, k, flow))
            })
            .min()
            .map(|(cost, calibrations, flow)| OnlineOpt { cost, calibrations, flow });
        prop_assert_eq!(Some(opt_online_cost(&inst, g).unwrap()), sweep);
    }

    /// Ranks are a permutation ordered by (weight asc, release desc).
    #[test]
    fn ranks_are_a_consistent_permutation(
        jobs in arb_distinct_jobs(10, 30, 9),
    ) {
        let ranked = RankedJobs::new(&jobs);
        let n = jobs.len();
        let mut seen = vec![false; n + 1];
        for i in 0..n {
            let r = ranked.rank(i) as usize;
            prop_assert!((1..=n).contains(&r));
            prop_assert!(!seen[r], "duplicate rank {r}");
            seen[r] = true;
        }
        for i in 0..n {
            for j in 0..n {
                if ranked.rank(i) < ranked.rank(j) {
                    let (a, b) = (&jobs[i], &jobs[j]);
                    prop_assert!(
                        a.weight < b.weight || (a.weight == b.weight && a.release > b.release),
                        "rank order violated: {a:?} before {b:?}"
                    );
                }
            }
        }
    }

    /// FIFO assignment (OPT_r building block) keeps release order and never
    /// beats the unrestricted greedy optimum.
    #[test]
    fn fifo_is_release_ordered_and_dominated(
        jobs in arb_distinct_jobs(7, 14, 9),
        t in 1i64..5,
    ) {
        let inst = Instance::single_machine(jobs, t).unwrap();
        let times = candidate_starts(&inst);
        if let Some(fifo) = assign_fifo(&inst, &times) {
            check_schedule(&inst, &fifo).unwrap();
            // Starts follow release order.
            let mut by_release = fifo.assignments.clone();
            by_release.sort_by_key(|a| inst.job(a.job).unwrap().release);
            prop_assert!(by_release.windows(2).all(|w| w[0].start < w[1].start));
            // Observation 2.1 with the same calibrations is at least as good.
            let greedy = calib_core::assign_greedy(&inst, &times).unwrap();
            prop_assert!(
                greedy.total_weighted_flow(&inst) <= fifo.total_weighted_flow(&inst)
            );
        }
    }
}
