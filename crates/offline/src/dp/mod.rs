//! The offline dynamic program (Section 4 of the paper).
//!
//! Proposition 1 partitions the job sequence (sorted by release time) into
//! *groups*: `F(k, v)` is the minimum total weighted completion time of jobs
//! `1..=v` using at most `k` calibrations, and
//!
//! `F(k, v) = min_{u ≤ v} { F(k − ⌈(v−u+1)/T⌉, u−1) + f(u, v, 0) }`
//!
//! where `f(u, v, 0)` (Proposition 2, [`group`]) optimally schedules jobs
//! `u..=v` in exactly `⌈(v−u+1)/T⌉` intervals whose last interval starts at
//! `r_v + 1 − T`. Boundary conditions: `F(k, 0) = 0` and `F(k, v) = ∞` when
//! `kT < v`.

pub mod group;
pub mod rebuild;

use calib_core::{Cost, Instance, Job, Schedule};

use crate::ranks::RankedJobs;
use group::GroupDp;

/// Why the offline solver refused to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OfflineError {
    /// The DP is defined for a single machine only.
    MultipleMachines(usize),
    /// Release times are not strictly increasing (run
    /// `Instance::normalized` first).
    NotNormalized,
    /// A solver specialized to unit weights was given weighted jobs.
    NotUnweighted,
}

impl std::fmt::Display for OfflineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OfflineError::MultipleMachines(p) => {
                write!(f, "offline DP handles one machine, instance has {p}")
            }
            OfflineError::NotNormalized => {
                write!(f, "offline DP needs strictly increasing release times")
            }
            OfflineError::NotUnweighted => {
                write!(f, "this solver handles unit-weight jobs only")
            }
        }
    }
}

impl std::error::Error for OfflineError {}

/// Result of the offline DP for one budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpSolution {
    /// Minimum total weighted flow with at most the given budget.
    pub flow: Cost,
    /// The same optimum as total weighted completion time.
    pub weighted_completion: Cost,
    /// A reconstructed optimal schedule (feasible; calibrations possibly
    /// overlapping, which the model allows).
    pub schedule: Schedule,
}

/// Solves the offline problem: minimum total weighted flow of `instance`
/// with at most `budget` calibrations, plus a reconstructed schedule.
///
/// Returns `Ok(None)` when the budget cannot cover all jobs
/// (`budget * T < n`). To answer several budgets, build one [`DpTable`].
pub fn solve_offline(
    instance: &Instance,
    budget: usize,
) -> Result<Option<DpSolution>, OfflineError> {
    Ok(DpTable::new(instance, budget)?.solution(budget))
}

/// Proposition 1's table `F(k, v)` for every budget `k = 0 ..= max_k`,
/// with the split chosen per state and the group DP memo behind it.
///
/// Row `k` reads only rows below it, so one table answers every budget up
/// to `max_k`: its flow ([`DpTable::flow`]) and a reconstructed optimal
/// schedule ([`DpTable::solution`]).
pub struct DpTable {
    /// `rows[k][v]`: the least weighted completion time of the first `v`
    /// jobs with at most `k` calibrations and the `u` that starts their
    /// last group (`None` when infeasible, i.e. `kT < v`).
    rows: Vec<Vec<Option<(i128, usize)>>>,
    gdp: GroupDp,
    release_sum: i128,
}

impl DpTable {
    /// Fills `F(k, v)` for `k = 0 ..= max_k` over a single-machine,
    /// normalized instance.
    pub fn new(instance: &Instance, max_k: usize) -> Result<DpTable, OfflineError> {
        check_single_machine(instance)?;
        let jobs = instance.jobs();
        let n = jobs.len();
        let t = instance.cal_len();
        let mut gdp = GroupDp::new(RankedJobs::new(jobs), t);

        let mut rows: Vec<Vec<Option<(i128, usize)>>> = Vec::with_capacity(max_k + 1);
        for k in 0..=max_k {
            let mut row = vec![None; n + 1];
            row[0] = Some((0, 0));
            for (v, cell) in row.iter_mut().enumerate().skip(1) {
                if (k as i128) * (t as i128) < v as i128 {
                    continue; // infeasible: kT < v
                }
                for u in 1..=v {
                    let used = group_calibration_count(v - u + 1, t);
                    if used > k {
                        continue;
                    }
                    let prefix = rows[k - used][u - 1];
                    if let (Some((p, _)), Some(g)) = (prefix, gdp.f(u - 1, v - 1, 0)) {
                        if cell.is_none_or(|(b, _)| p + g < b) {
                            *cell = Some((p + g, u));
                        }
                    }
                }
            }
            rows.push(row);
        }
        Ok(DpTable {
            rows,
            gdp,
            release_sum: jobs.iter().map(release_weight).sum(),
        })
    }

    /// `F(k, n)` as a weighted flow (`None` when `kT < n`).
    ///
    /// Panics if `k` exceeds the table's `max_k`.
    pub fn flow(&self, k: usize) -> Option<Cost> {
        let row = &self.rows[k];
        row[row.len() - 1].map(|(c, _)| to_flow(c, self.release_sum))
    }

    /// `F(k, n)` as weighted flows for `k = 0 ..= max_k`: the budget curve.
    pub fn flows(&self) -> Vec<Option<Cost>> {
        (0..self.rows.len()).map(|k| self.flow(k)).collect()
    }

    /// The optimum for budget `k` with its schedule, rebuilt from the
    /// recorded group boundaries and the group DP's choices (`None` when
    /// `kT < n`).
    ///
    /// Panics if `k` exceeds the table's `max_k`.
    pub fn solution(&mut self, mut k: usize) -> Option<DpSolution> {
        let mut v = self.rows[k].len() - 1;
        let (completion, _) = self.rows[k][v]?;
        // Walk the group boundaries chosen by F, last group first.
        let mut groups: Vec<(usize, usize)> = Vec::new();
        while v > 0 {
            let (_, u) = self.rows[k][v].expect("feasible state has a recorded split");
            groups.push((u - 1, v - 1)); // to 0-based inclusive
            k -= group_calibration_count(v - u + 1, self.gdp.cal_len());
            v = u - 1;
        }
        groups.reverse();
        Some(DpSolution {
            flow: to_flow(completion, self.release_sum),
            weighted_completion: completion.max(0) as Cost,
            schedule: rebuild::rebuild_schedule(&mut self.gdp, &groups),
        })
    }

    /// Group-DP states evaluated so far (for the E6 scaling study): the
    /// memo's size, shared by every budget the table answers.
    pub fn states_evaluated(&self) -> usize {
        self.gdp.states_evaluated()
    }

    /// Adds the group DP's expansion/prune totals to a shared registry
    /// (`dp_states_expanded` / `dp_states_pruned`). Call once, after the
    /// last [`DpTable::solution`]: the registry accumulates.
    pub fn flush_counters(&self, counters: &calib_core::obs::Counters) {
        self.gdp.flush_counters(counters);
    }
}

/// The input every single-machine solver needs: one machine and strictly
/// increasing releases, checked in that order.
pub(crate) fn check_single_machine(instance: &Instance) -> Result<(), OfflineError> {
    if instance.machines() != 1 {
        return Err(OfflineError::MultipleMachines(instance.machines()));
    }
    if instance
        .jobs()
        .windows(2)
        .any(|w| w[0].release >= w[1].release)
    {
        return Err(OfflineError::NotNormalized);
    }
    Ok(())
}

/// `⌈len/T⌉` — calibrations a group of `len` jobs consumes.
pub(crate) fn group_calibration_count(len: usize, t: calib_core::Time) -> usize {
    len.div_ceil(t as usize)
}

/// `w_j · r_j`: what separates a job's weighted completion from its
/// weighted flow.
pub(crate) fn release_weight(job: &Job) -> i128 {
    i128::from(job.weight) * i128::from(job.release)
}

pub(crate) fn to_flow(completion: i128, release_sum: i128) -> Cost {
    let flow = completion - release_sum;
    debug_assert!(flow >= 0, "weighted flow must be nonnegative");
    flow.max(0) as Cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use calib_core::{check_schedule, InstanceBuilder};

    #[test]
    fn empty_instance_costs_nothing() {
        let inst = InstanceBuilder::new(3).build().unwrap();
        let sol = solve_offline(&inst, 0).unwrap().unwrap();
        assert_eq!(sol.flow, 0);
        assert!(sol.schedule.assignments.is_empty());
    }

    #[test]
    fn budget_too_small_is_infeasible() {
        let inst = InstanceBuilder::new(2)
            .unit_jobs([0, 1, 2])
            .build()
            .unwrap();
        assert!(solve_offline(&inst, 1).unwrap().is_none());
        assert!(solve_offline(&inst, 2).unwrap().is_some());
    }

    #[test]
    fn single_job_single_calibration() {
        let inst = InstanceBuilder::new(5).unit_jobs([7]).build().unwrap();
        let sol = solve_offline(&inst, 1).unwrap().unwrap();
        assert_eq!(sol.flow, 1); // runs at release
        check_schedule(&inst, &sol.schedule).unwrap();
    }

    #[test]
    fn burst_fits_one_interval() {
        // 3 jobs at 0,1,2 with T = 3 and budget 1: all at release, flow 3.
        let inst = InstanceBuilder::new(3)
            .unit_jobs([0, 1, 2])
            .build()
            .unwrap();
        let sol = solve_offline(&inst, 1).unwrap().unwrap();
        assert_eq!(sol.flow, 3);
        check_schedule(&inst, &sol.schedule).unwrap();
        assert!(sol.schedule.calibration_count() <= 1);
    }

    #[test]
    fn two_bursts_two_calibrations() {
        let inst = InstanceBuilder::new(2)
            .unit_jobs([0, 1, 100, 101])
            .build()
            .unwrap();
        let sol = solve_offline(&inst, 2).unwrap().unwrap();
        assert_eq!(sol.flow, 4);
        check_schedule(&inst, &sol.schedule).unwrap();
    }

    #[test]
    fn budget_one_forces_grouping() {
        // Jobs at 0 and 3, T = 2, one calibration: both must fit one
        // interval [b, b+2). Best: calibrate at 2: job0 runs at 2
        // (flow 3), job1 at 3 (flow 1) -> 4. DP anchors the interval at
        // r_v + 1 - T = 2 -> same answer.
        let inst = InstanceBuilder::new(2).unit_jobs([0, 3]).build().unwrap();
        let sol = solve_offline(&inst, 1).unwrap().unwrap();
        assert_eq!(sol.flow, 4);
        check_schedule(&inst, &sol.schedule).unwrap();
    }

    #[test]
    fn weights_prioritize_heavy_jobs() {
        // Heavy job released later must not wait behind light backlog.
        // Jobs: (0, w=1), (1, w=100), T = 2, budget 2.
        let inst = InstanceBuilder::new(2)
            .job(0, 1)
            .job(1, 100)
            .build()
            .unwrap();
        let sol = solve_offline(&inst, 2).unwrap().unwrap();
        check_schedule(&inst, &sol.schedule).unwrap();
        // Both can run at release with calibrations at 0 (covers 0,1):
        // flow = 1 + 100.
        assert_eq!(sol.flow, 101);
    }

    #[test]
    fn budget_curve_is_monotone() {
        let inst = InstanceBuilder::new(2)
            .unit_jobs([0, 4, 9, 13, 20])
            .build()
            .unwrap();
        let flows = DpTable::new(&inst, 5).unwrap().flows();
        assert_eq!(flows.len(), 6);
        assert!(flows[0].is_none() && flows[1].is_none() && flows[2].is_none());
        let mut last = Cost::MAX;
        for f in flows.into_iter().flatten() {
            assert!(f <= last, "more budget cannot hurt");
            last = f;
        }
    }

    #[test]
    fn rejects_multi_machine_and_unnormalized() {
        let multi = InstanceBuilder::new(2)
            .machines(2)
            .unit_jobs([0])
            .build()
            .unwrap();
        assert_eq!(
            solve_offline(&multi, 1).unwrap_err(),
            OfflineError::MultipleMachines(2)
        );
        let shared = InstanceBuilder::new(2).unit_jobs([3, 3]).build().unwrap();
        assert_eq!(
            solve_offline(&shared, 2).unwrap_err(),
            OfflineError::NotNormalized
        );
    }
}
