//! An independent exact solver for the *unweighted* single-machine case —
//! used to cross-validate the paper's general DP at sizes brute force
//! cannot reach.
//!
//! For unit weights the total flow `Σ (t_j + 1 − r_j)` depends only on the
//! *multiset of busy slots* (`Σ t_j + n − Σ r_j`), so an optimal schedule is
//! an optimal choice of calibration starts followed by greedy FIFO filling
//! (each slot takes the earliest released unscheduled job — exactly
//! Observation 2.1 on unit weights). With starts restricted to the Lemma 4.2
//! candidates `{ r_j + 1 − T }`, a different `O(K n³)` dynamic program
//! emerges:
//!
//! * process calibration starts in increasing order;
//! * state `(j, e, k)` — `j` jobs scheduled so far, merged-coverage
//!   frontier `e` (end of the latest interval; slots before `e` are used or
//!   permanently dead), `k` calibrations spent;
//! * transition: pick the next start `s > e − T` (overlap allowed — merged
//!   coverage is what matters), greedily fill the *new* slots
//!   `[max(e, s), s + T)` FIFO, pay the sum of used slots.
//!
//! Greedy filling is optimal given the starts (swapping any job to an
//! earlier feasible idle slot only reduces the slot sum, and an idle
//! calibrated slot is dead: when it went idle every released job was done,
//! and later jobs are released after it). This solver shares *no code or
//! structure* with the Propositions 1–2 DP, which is the point.

use std::collections::HashMap;

use calib_core::{Assignment, Calibration, Cost, Instance, MachineId, Schedule, Time};

use crate::brute::candidate_starts;
use crate::dp::{check_single_machine, OfflineError};

/// Result of the unweighted DP.
#[derive(Debug, Clone)]
pub struct UnweightedSolution {
    /// Minimum total flow within the budget.
    pub flow: Cost,
    /// A schedule achieving it.
    pub schedule: Schedule,
}

/// Exact minimum total flow for an unweighted single-machine instance with
/// at most `budget` calibrations; `Ok(None)` when the budget is infeasible.
pub fn solve_offline_unweighted(
    instance: &Instance,
    budget: usize,
) -> Result<Option<UnweightedSolution>, OfflineError> {
    check_single_machine(instance)?;
    if !instance.is_unweighted() {
        return Err(OfflineError::NotUnweighted);
    }
    let jobs = instance.jobs();
    let n = jobs.len();
    if n == 0 {
        return Ok(Some(UnweightedSolution {
            flow: 0,
            schedule: Schedule::default(),
        }));
    }
    let t = instance.cal_len();
    let starts = candidate_starts(instance);
    let releases: Vec<Time> = jobs.iter().map(|j| j.release).collect();

    // Memoized best remaining cost from (j, frontier-start-index, k spent).
    // `frontier` is encoded as the index of the last used start (`usize::MAX`
    // for "none"); its interval ends at starts[idx] + T.
    type Key = (usize, usize, usize);
    #[derive(Clone, Copy)]
    struct Step {
        /// Next start chosen (index into `starts`).
        next: usize,
        /// Jobs filled by that interval.
        filled: usize,
    }
    type Memo = HashMap<Key, (Option<i128>, Option<Step>)>;
    let mut memo: Memo = HashMap::new();

    // Greedy-fill simulation: jobs j.. into new slots [from, to); returns
    // (#scheduled, Σ slots).
    let fill = |mut j: usize, from: Time, to: Time| -> (usize, i128) {
        let mut sum = 0i128;
        let mut count = 0usize;
        let mut slot = from;
        while slot < to && j < n {
            if releases[j] <= slot {
                sum += slot as i128;
                j += 1;
                count += 1;
            } else {
                // Idle: jump to the next release if it lands inside.
                slot = releases[j].max(slot + 1) - 1; // -1 compensates +1 below
            }
            slot += 1;
        }
        (count, sum)
    };

    fn solve(
        key: (usize, usize, usize),
        n: usize,
        budget: usize,
        t: Time,
        starts: &[Time],
        fill: &impl Fn(usize, Time, Time) -> (usize, i128),
        memo: &mut HashMap<(usize, usize, usize), (Option<i128>, Option<Step>)>,
    ) -> Option<i128> {
        #![allow(clippy::type_complexity)]
        let (j, last, k) = key;
        if j == n {
            return Some(0);
        }
        if k == budget {
            return None;
        }
        if let Some(&(c, _)) = memo.get(&key) {
            return c;
        }
        let frontier = if last == usize::MAX {
            Time::MIN
        } else {
            starts[last] + t
        };
        let min_next = if last == usize::MAX {
            Time::MIN
        } else {
            starts[last] + 1
        };
        let mut best: Option<(i128, Step)> = None;
        for (idx, &s) in starts.iter().enumerate() {
            if s < min_next {
                continue;
            }
            let from = s.max(frontier);
            let (filled, slot_sum) = fill(j, from, s + t);
            if filled == 0 {
                continue; // a job-less interval never helps
            }
            if let Some(rest) = solve((j + filled, idx, k + 1), n, budget, t, starts, fill, memo) {
                let c = slot_sum + rest;
                if best.is_none_or(|(b, _)| c < b) {
                    best = Some((c, Step { next: idx, filled }));
                }
            }
        }
        let (cost, step) = match best {
            Some((c, s)) => (Some(c), Some(s)),
            None => (None, None),
        };
        memo.insert(key, (cost, step));
        cost
    }

    let root = (0usize, usize::MAX, 0usize);
    let Some(total_slots) = solve(root, n, budget, t, &starts, &fill, &mut memo) else {
        return Ok(None); // budget cannot cover all jobs
    };

    // Reconstruct by replaying the recorded steps.
    let mut assignments = Vec::with_capacity(n);
    let mut calibrations = Vec::new();
    let mut key = root;
    while key.0 < n {
        let step = memo
            .get(&key)
            .and_then(|&(_, s)| s)
            .expect("feasible states record a step");
        let s = starts[step.next];
        calibrations.push(Calibration {
            machine: MachineId(0),
            start: s,
        });
        let frontier = if key.1 == usize::MAX {
            Time::MIN
        } else {
            starts[key.1] + t
        };
        // Replay the fill to place the jobs.
        let mut j = key.0;
        let mut slot = s.max(frontier);
        while slot < s + t && j < key.0 + step.filled {
            if releases[j] <= slot {
                assignments.push(Assignment::new(jobs[j].id, slot, MachineId(0)));
                j += 1;
            } else {
                slot = releases[j].max(slot + 1) - 1;
            }
            slot += 1;
        }
        key = (key.0 + step.filled, step.next, key.2 + 1);
    }

    let release_sum: i128 = releases.iter().map(|&r| r as i128).sum();
    let flow = (total_slots + n as i128 - release_sum).max(0) as Cost;
    Ok(Some(UnweightedSolution {
        flow,
        schedule: Schedule::new(calibrations, assignments),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use calib_core::{check_schedule, InstanceBuilder};

    #[test]
    fn single_burst() {
        let inst = InstanceBuilder::new(3)
            .unit_jobs([0, 1, 2])
            .build()
            .unwrap();
        let sol = solve_offline_unweighted(&inst, 1).unwrap().unwrap();
        assert_eq!(sol.flow, 3);
        check_schedule(&inst, &sol.schedule).unwrap();
    }

    #[test]
    fn grouping_under_tight_budget() {
        let inst = InstanceBuilder::new(2).unit_jobs([0, 3]).build().unwrap();
        let sol = solve_offline_unweighted(&inst, 1).unwrap().unwrap();
        assert_eq!(sol.flow, 4); // both in [2, 4): flows 3 + 1
        check_schedule(&inst, &sol.schedule).unwrap();
    }

    #[test]
    fn infeasible_budget() {
        let inst = InstanceBuilder::new(2)
            .unit_jobs([0, 1, 2])
            .build()
            .unwrap();
        assert!(solve_offline_unweighted(&inst, 1).unwrap().is_none());
    }

    #[test]
    fn rejects_weighted_and_multi() {
        let weighted = InstanceBuilder::new(2).job(0, 3).build().unwrap();
        assert!(solve_offline_unweighted(&weighted, 1).is_err());
        let multi = InstanceBuilder::new(2)
            .machines(2)
            .unit_jobs([0])
            .build()
            .unwrap();
        assert!(solve_offline_unweighted(&multi, 1).is_err());
    }

    #[test]
    fn agrees_with_general_dp_small() {
        let inst = InstanceBuilder::new(3)
            .unit_jobs([0, 2, 5, 6, 11])
            .build()
            .unwrap();
        for k in 2..=5 {
            let a = solve_offline_unweighted(&inst, k).unwrap().map(|s| s.flow);
            let b = crate::dp::solve_offline(&inst, k).unwrap().map(|s| s.flow);
            assert_eq!(a, b, "K={k}");
        }
    }

    #[test]
    fn empty_instance() {
        let inst = InstanceBuilder::new(3).build().unwrap();
        let sol = solve_offline_unweighted(&inst, 0).unwrap().unwrap();
        assert_eq!(sol.flow, 0);
    }
}
