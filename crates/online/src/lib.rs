//! # calib-online
//!
//! Online algorithms for scheduling with calibrations (Section 3 of
//! "Minimizing Total Weighted Flow Time with Calibrations", SPAA 2017),
//! minimizing `G · (#calibrations) + total weighted flow`:
//!
//! * [`Alg1`] — 3-competitive, unweighted jobs, one machine (Theorem 3.3);
//! * [`Alg2`] — 12-competitive, weighted jobs, one machine (Theorem 3.8);
//! * [`Alg3`] — 12-competitive, unweighted jobs, `P` machines
//!   (Theorem 3.10), plus the Observation 2.1 re-assignment variant
//!   [`run_alg3_practical`];
//! * [`CalibrateImmediately`] and [`SkiRentalBatch`] — naive baselines;
//! * [`play_lemma31`] — the adaptive lower-bound adversary (Lemma 3.1).
//!
//! All algorithms run on the event-driven [`engine`], which owns the clock
//! and the job-to-slot assignment and validates every produced schedule.
//! The threshold schedulers are presets of one crate-private trigger
//! evaluator, and read the waiting queue through one engine helper, the
//! only place the queue is copied or sorted.
//!
//! ```
//! use calib_core::InstanceBuilder;
//! use calib_online::{run_online, Alg1};
//!
//! let inst = InstanceBuilder::new(4).unit_jobs([0, 1, 2, 9]).build().unwrap();
//! let res = run_online(&inst, /* G = */ 6, &mut Alg1::new());
//! assert_eq!(res.schedule.assignments.len(), 4);
//! assert_eq!(res.cost, 6 * res.calibrations as u128 + res.flow);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod adversary;
pub mod alg1;
pub mod alg2;
pub mod alg3;
pub mod baselines;
pub mod engine;
mod history;
mod idset;
pub mod randomized;
mod rules;
pub mod scheduler;
pub mod tunable;
pub mod weighted_multi;

pub use adversary::{play_lemma31, AdversaryBranch, AdversaryOutcome};
pub use alg1::Alg1;
pub use alg2::{Alg2, ExtractionPolicy};
pub use alg3::{run_alg3_practical, Alg3};
pub use baselines::{CalibrateImmediately, SkiRentalBatch};
pub use engine::{
    run_online, run_online_probed, run_online_with, Decisions, EngineConfig, EngineError,
    EngineSession, EngineSnapshot, EngineView, IntervalRecord, IntervalSnapshot, MachineSnapshot,
    MachineState, RunResult, SessionOutcome,
};
pub use randomized::RandomizedSkiRental;
pub use scheduler::{Decision, OnlineScheduler, Reservation};
pub use tunable::{Ratio, Thresholds, TunableScheduler};
pub use weighted_multi::{run_weighted_multi_practical, WeightedMulti};
