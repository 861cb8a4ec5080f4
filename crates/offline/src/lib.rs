//! # calib-offline
//!
//! Offline solvers for scheduling with calibrations (Section 4 of
//! "Minimizing Total Weighted Flow Time with Calibrations", SPAA 2017):
//!
//! * [`DpTable`] — the paper's `O(K n³)` dynamic program (Propositions 1
//!   and 2) on a single machine: one table holds the minimum total weighted
//!   flow for every calibration budget `k ≤ K` and reconstructs an optimal
//!   schedule for any of them; [`solve_offline`] answers one budget;
//! * [`optimal_flow_brute`] / [`optimal_flow_exhaustive`] — exponential
//!   reference solvers used to validate the DP and Lemma 4.2;
//! * [`opt_r_brute`] — the release-order-restricted optimum `OPT_r`
//!   (Lemma 3.4's 2-approximation target);
//! * [`opt_online_cost`] — the exact offline optimum of the *online*
//!   objective `G·C + flow`, from one pass of Proposition 1 that prices
//!   each calibration at `G` instead of sweeping the budget.
//!
//! ```
//! use calib_core::InstanceBuilder;
//! use calib_offline::{solve_offline, DpTable};
//!
//! let inst = InstanceBuilder::new(3).unit_jobs([0, 1, 2, 10]).build().unwrap();
//! let sol = solve_offline(&inst, 2).unwrap().unwrap();
//! assert_eq!(sol.flow, 4); // both bursts run at release with 2 calibrations
//!
//! // One table answers every budget up to 4 with the same optima.
//! let mut table = DpTable::new(&inst, 4).unwrap();
//! assert_eq!(table.flow(1), None); // one interval of T = 3 cannot hold 4 jobs
//! assert_eq!(table.solution(2), Some(sol));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod brute;
pub mod dp;
pub mod online_opt;
pub mod opt_r;
pub mod ranks;
pub mod unweighted;

pub use brute::{
    candidate_starts, for_each_multiset, for_each_subset, opt_online_brute_multi,
    optimal_assignment_exhaustive, optimal_flow_brute, optimal_flow_exhaustive,
};
pub use dp::{solve_offline, DpSolution, DpTable, OfflineError};
pub use online_opt::{opt_online_cost, OnlineOpt};
pub use opt_r::{assign_fifo, opt_r_brute, CandidateMode};
pub use ranks::{RankedJobs, WindowInfo};
pub use unweighted::{solve_offline_unweighted, UnweightedSolution};
