//! One `DpTable` answers every budget: the solution it reconstructs for
//! budget `k` from a table filled up to `n` must be the one a fresh
//! one-budget table gives, in feasibility, flow and schedule, and must
//! stand on its own (feasible, within budget, priced at its flow).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use calib_core::{check_schedule, Instance, Job};
use calib_offline::DpTable;

/// Random single-machine instance with `n` distinct releases.
fn random_instance(rng: &mut StdRng, n: u32, t: i64) -> Instance {
    let span = i64::from(n) * 3;
    let mut releases: Vec<i64> = Vec::new();
    while releases.len() < usize::try_from(n).unwrap() {
        let r = rng.gen_range(0..=span);
        if !releases.contains(&r) {
            releases.push(r);
        }
    }
    releases.sort_unstable();
    let jobs: Vec<Job> = (0..n)
        .zip(releases)
        .map(|(id, r)| Job::new(id, r, rng.gen_range(1..=9)))
        .collect();
    Instance::single_machine(jobs, t).unwrap()
}

#[test]
fn shared_table_matches_a_fresh_solve_for_every_budget() {
    let mut rng = StdRng::seed_from_u64(2017);
    let mut feasible = 0;
    for (case, t) in [2i64, 3, 5, 8].into_iter().cycle().take(12).enumerate() {
        let n = if case < 4 { 40 } else { rng.gen_range(5..=40) };
        let inst = random_instance(&mut rng, n, t);
        let mut shared = DpTable::new(&inst, inst.n()).unwrap();
        for k in 0..=inst.n() {
            let fresh = DpTable::new(&inst, k).unwrap().solution(k);
            let sol = shared.solution(k);
            assert_eq!(sol, fresh, "budget {k} of {inst:?}");
            assert_eq!(sol.as_ref().map(|s| s.flow), shared.flow(k));
            let Some(sol) = sol else { continue };
            feasible += 1;
            check_schedule(&inst, &sol.schedule)
                .unwrap_or_else(|e| panic!("budget {k}: infeasible rebuild of {inst:?}: {e}"));
            assert!(
                sol.schedule.calibration_count() <= k,
                "budget {k}: {inst:?}"
            );
            assert_eq!(
                sol.schedule.total_weighted_flow(&inst),
                sol.flow,
                "budget {k}: {inst:?}"
            );
        }
    }
    assert!(feasible > 0);
}
