//! # calibration-scheduling
//!
//! A complete, tested reproduction of **"Minimizing Total Weighted Flow
//! Time with Calibrations"** (Chau, McCauley, Li, Wang — SPAA 2017).
//!
//! Machines must be *calibrated* (cost `G`) before running jobs, and a
//! calibration lasts only `T` time steps. Unit jobs arrive over time with
//! weights; the goal is to balance calibration spending against total
//! weighted flow time.
//!
//! This meta-crate re-exports the whole workspace:
//!
//! * [`core`] ([`calib_core`]) — instances, schedules, exact costs, the
//!   feasibility checker, and the Observation 2.1 optimal assigner;
//! * [`online`] ([`calib_online`]) — the paper's three constant-competitive
//!   online algorithms, the simulation engine, naive baselines, and the
//!   Lemma 3.1 lower-bound adversary;
//! * [`offline`] ([`calib_offline`]) — the `O(K n³)` optimal dynamic
//!   program with schedule reconstruction, plus brute-force oracles;
//! * [`lp`] ([`calib_lp`]) — a simplex substrate and the Figure 1/2
//!   analysis LPs (certified lower bounds);
//! * [`workloads`] ([`calib_workloads`]) — synthetic workload families and
//!   trace serialization;
//! * [`sim`] ([`calib_sim`]) — the E1–E10 experiment suite.
//!
//! ## Quickstart
//!
//! ```
//! use calibration_scheduling::prelude::*;
//!
//! // Five unit jobs on one machine; calibrations last T = 4 steps.
//! let inst = InstanceBuilder::new(4).unit_jobs([0, 1, 2, 10, 11]).build().unwrap();
//!
//! // Run the 3-competitive online algorithm with calibration cost G = 6.
//! let online = run_online(&inst, 6, &mut Alg1::new());
//!
//! // Compare with the exact offline optimum.
//! let opt = opt_online_cost(&inst, 6).unwrap();
//! assert!(online.cost <= 3 * opt.cost); // Theorem 3.3
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use calib_core as core;
pub use calib_lp as lp;
pub use calib_offline as offline;
pub use calib_online as online;
pub use calib_sim as sim;
pub use calib_workloads as workloads;

/// The most commonly used items, one `use` away.
pub mod prelude {
    pub use calib_core::{
        assign_greedy, check_schedule, Assignment, Calibration, Cost, Instance, InstanceBuilder,
        Job, JobId, MachineId, PriorityPolicy, Schedule, Time, Weight,
    };
    pub use calib_offline::{opt_online_cost, optimal_flow_brute, solve_offline, DpTable};
    pub use calib_online::{
        play_lemma31, run_alg3_practical, run_online, Alg1, Alg2, Alg3, OnlineScheduler, RunResult,
    };
    pub use calib_workloads::{make_instance, Trace, WeightModel};
}
