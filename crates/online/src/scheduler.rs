//! The online-scheduler interface.
//!
//! An online algorithm sees jobs only at their release times (Section 3 of
//! the paper). The [`crate::engine`] owns the clock, the waiting queue, the
//! machines, and the assignment of jobs to calibrated slots; a scheduler
//! only decides *when to calibrate* (and, for Algorithm 3's explicit mode,
//! which jobs to pre-place into a new interval).
//!
//! Two decision hooks mirror the papers' two step shapes:
//!
//! * [`OnlineScheduler::decide_early`] runs *before* the current slot is
//!   served — Algorithms 1 and 2 calibrate at `t` and immediately run a job
//!   at `t` (their line "if Q not empty and t is calibrated, schedule at t").
//! * [`OnlineScheduler::decide_late`] runs *after* the slot is served —
//!   Algorithm 3 first lets previously calibrated idle machines pick up jobs
//!   (its lines 6–9), then calibrates and *reserves* jobs into the new
//!   interval (lines 10–14). Reserved slots are materialized by the engine
//!   when their time comes.
//!
//! Both hooks may be called several times per step (the engine re-invokes
//! until the scheduler returns an empty decision), which expresses
//! Algorithm 3's `while` loop directly.

use calib_core::{JobId, MachineId, PriorityPolicy, Time};

use crate::engine::EngineView;

/// A reservation: place `job` at `slot` on `machine` (now or in the future).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// The waiting job to pre-place.
    pub job: JobId,
    /// Target machine.
    pub machine: MachineId,
    /// Target time step (must be calibrated and free).
    pub slot: Time,
}

/// What a scheduler wants to do at the current time step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Decision {
    /// Number of calibrations to perform now; the engine assigns machines in
    /// round-robin order (Observation 2.1).
    pub calibrate: u32,
    /// Jobs to pre-place (Algorithm 3 step 13). Slots must be calibrated
    /// (after the calibrations above are applied), free, and not before the
    /// current time; jobs must currently be waiting.
    pub reserve: Vec<Reservation>,
    /// Why the scheduler calibrated — recorded in the run trace so tests and
    /// ablations can assert on trigger kinds.
    pub reason: Option<&'static str>,
}

impl Decision {
    /// "Do nothing" — also the fixed point that ends the engine's
    /// decide loop for the current step.
    pub fn none() -> Self {
        Decision::default()
    }

    /// A single calibration with a trigger label.
    pub fn calibrate(reason: &'static str) -> Self {
        Decision {
            calibrate: 1,
            reserve: Vec::new(),
            reason: Some(reason),
        }
    }

    /// True when the decision does nothing (ends the decide loop).
    pub fn is_none(&self) -> bool {
        self.calibrate == 0 && self.reserve.is_empty()
    }
}

/// An online calibration-scheduling algorithm.
pub trait OnlineScheduler {
    /// Display name (for tables and traces).
    fn name(&self) -> String;

    /// Policy the engine uses to auto-assign waiting jobs to free calibrated
    /// slots. Algorithms 1 and 3 use earliest-release; Algorithm 2 uses the
    /// Observation 2.1 heaviest-first rule.
    fn auto_policy(&self) -> PriorityPolicy {
        PriorityPolicy::HighestWeightFirst
    }

    /// Calibration decision before the current slot is served.
    fn decide_early(&mut self, _view: &EngineView) -> Decision {
        Decision::none()
    }

    /// Calibration decision after the current slot is served.
    fn decide_late(&mut self, _view: &EngineView) -> Decision {
        Decision::none()
    }

    /// Earliest future time the scheduler may want to act even if no job
    /// arrives and no calibrated slot frees up — e.g. the closed-form time
    /// at which the waiting queue's hypothetical flow `f` crosses `G`.
    /// Returning `None` means "only external events can change my mind".
    fn next_wake(&self, _view: &EngineView) -> Option<Time> {
        None
    }
}
