//! The time-stepped online simulation engine.
//!
//! The engine owns the clock, the arrival stream, the waiting queue, the
//! machines (coverage + reservations), and the materialization of jobs into
//! calibrated slots; the [`OnlineScheduler`] it drives only decides when to
//! calibrate. Dead stretches of time are skipped: the engine advances
//! directly to the next release, the next usable calibrated slot, or the
//! scheduler's self-reported wake-up time, whichever comes first — so a run
//! costs `O(events)`, not `O(horizon)`.
//!
//! Two driving modes share the same step logic:
//!
//! * **Batch** ([`run_online`] and friends) — all jobs are known up front
//!   (an [`Instance`]); the engine runs to completion and panics on
//!   scheduler bugs, because in a simulation those are programmer errors.
//! * **Incremental** ([`EngineSession`]) — jobs are submitted over time and
//!   the clock only advances on explicit [`EngineSession::step`] calls.
//!   Every failure is a typed [`EngineError`] so a long-running service
//!   (the `calib-serve` daemon) can reject one bad request without tearing
//!   down the session, let alone the process.
//!
//! The batch entry points are thin wrappers over a session fed with the
//! whole instance at once, so both modes are *the same code* and produce
//! byte-identical schedules — a property the `calib-serve` determinism
//! tests pin down end to end.
//!
//! A session keeps live only what the schedulers and the next steps read:
//! the pending and waiting jobs, reservations, coverage that has not yet
//! expired, and the intervals that can still receive a job. The rest of
//! its history — every calibration, trace label and job start — goes to a
//! packed append-only log (`history.rs`) from which snapshots, schedules
//! and the final outcome are replayed.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};

use calib_core::obs::{Event, NoopProbe, Probe};
use calib_core::{
    check_schedule, Assignment, Calibration, Cost, Instance, Job, JobId, MachineId, PriorityPolicy,
    Schedule, Time,
};

use crate::history::{Entry, History, Start};
use crate::idset::IdRuns;
use crate::scheduler::{Decision, OnlineScheduler, Reservation};

/// Per-machine live state.
#[derive(Debug, Clone)]
pub struct MachineState {
    /// Merged calibrated segments `[start, end)`, ascending. Calibrations
    /// are only ever added at the current time, so pushes are in order.
    /// Segments that end at or before the step being processed are
    /// dropped: every query is at that step or later.
    coverage: Vec<(Time, Time)>,
    /// Slots strictly before this are consumed (a job ran or time passed).
    used_until: Time,
    /// Future pre-placed jobs (Algorithm 3 step 13), with the index of the
    /// interval (in calibration order) they were reserved into — `None`
    /// when the reservation was issued without a calibration in the same
    /// decision.
    reservations: BTreeMap<Time, (Job, Option<usize>)>,
}

impl MachineState {
    fn new() -> Self {
        MachineState {
            coverage: Vec::new(),
            used_until: Time::MIN,
            reservations: BTreeMap::new(),
        }
    }

    /// Is slot `t` calibrated on this machine?
    pub fn covers(&self, t: Time) -> bool {
        match self
            .coverage
            .partition_point(|&(b, _)| b <= t)
            .checked_sub(1)
        {
            Some(i) => t < self.coverage[i].1,
            None => false,
        }
    }

    /// First calibrated slot `>= from` that has not been consumed.
    pub fn next_usable(&self, from: Time) -> Option<Time> {
        let from = from.max(self.used_until);
        let i = self.coverage.partition_point(|&(_, e)| e <= from);
        let &(b, _) = self.coverage.get(i)?;
        Some(b.max(from))
    }

    /// The machine's merged calibrated segments that have not yet expired
    /// (those ending after the last processed step).
    pub fn coverage(&self) -> &[(Time, Time)] {
        &self.coverage
    }

    /// Reserved (future or current) slots: `slot -> (job, interval index)`.
    pub fn reservations(&self) -> &BTreeMap<Time, (Job, Option<usize>)> {
        &self.reservations
    }

    /// Slots strictly before this time are consumed.
    pub fn used_until(&self) -> Time {
        self.used_until
    }

    /// If `t` is calibrated, the first uncovered step after it (the end of
    /// the covering segment) — schedulers whose rules test "is the current
    /// step calibrated" change behaviour exactly there, so the engine treats
    /// coverage expiry as a wake-up event.
    pub fn coverage_end_after(&self, t: Time) -> Option<Time> {
        match self
            .coverage
            .partition_point(|&(b, _)| b <= t)
            .checked_sub(1)
        {
            Some(i) if t < self.coverage[i].1 => Some(self.coverage[i].1),
            _ => None,
        }
    }

    /// Slots in `[from, upto)` that would be free if a calibration covering
    /// them were added now (i.e. unconsumed and unreserved, ignoring
    /// coverage). Algorithm 3 uses this to plan reservations for an interval
    /// it is *about* to open.
    pub fn plannable_slots_in(&self, from: Time, upto: Time, limit: usize) -> Vec<Time> {
        let mut out = Vec::new();
        let mut t = from.max(self.used_until);
        while t < upto && out.len() < limit {
            if !self.reservations.contains_key(&t) {
                out.push(t);
            }
            t += 1;
        }
        out
    }

    /// Is slot `t` free for a new reservation or auto-assignment?
    pub fn slot_free(&self, t: Time) -> bool {
        self.covers(t) && t >= self.used_until && !self.reservations.contains_key(&t)
    }

    /// Up to `limit` free calibrated slots in `[from, upto)`, ascending —
    /// what Algorithm 3 reserves into a freshly calibrated interval.
    pub fn free_slots_in(&self, from: Time, upto: Time, limit: usize) -> Vec<Time> {
        let mut out = Vec::new();
        let mut t = from;
        while t < upto && out.len() < limit {
            if self.slot_free(t) {
                out.push(t);
            }
            t += 1;
        }
        out
    }

    fn add_calibration(&mut self, start: Time, cal_len: Time) {
        let (b, e) = (start, start.saturating_add(cal_len));
        match self.coverage.last_mut() {
            Some(last) if b <= last.1 => last.1 = last.1.max(e),
            _ => {
                debug_assert!(self.coverage.last().is_none_or(|&(_, le)| le < b));
                self.coverage.push((b, e));
            }
        }
    }
}

/// A live record of one interval (calibration) and the jobs it ran —
/// exposed to schedulers because Algorithm 1's immediate-calibration rule
/// inspects "the total flow of jobs in the most recent calibration".
#[derive(Debug, Clone)]
pub struct IntervalRecord {
    /// The machine the interval lives on.
    pub machine: MachineId,
    /// The calibration time.
    pub start: Time,
    /// Jobs run in this interval, with their slots.
    pub jobs: Vec<(Job, Time)>,
}

impl IntervalRecord {
    /// Total weighted flow of the jobs run in this interval so far.
    pub fn total_flow(&self) -> Cost {
        self.jobs
            .iter()
            .map(|(j, slot)| j.flow_if_started(*slot))
            .sum()
    }
}

/// Read-only view handed to schedulers at every decision point.
pub struct EngineView<'a> {
    /// Current time step.
    pub t: Time,
    /// Calibration length `T`.
    pub cal_len: Time,
    /// Calibration cost `G`.
    pub cal_cost: Cost,
    /// Number of machines `P`.
    pub machines: &'a [MachineState],
    /// Waiting (released, unscheduled, unreserved) jobs in `(release, id)`
    /// order.
    pub waiting: &'a [Job],
    /// The live intervals, in calibration order: those not yet expired
    /// (the only ones that can still receive a job), and always the most
    /// recent one. Older intervals live only in the session's history.
    pub intervals: &'a [IntervalRecord],
    /// The machine the next calibration would go to (round-robin pointer).
    pub next_rr_machine: MachineId,
    /// Did at least one job arrive exactly at `t`?
    pub arrived_now: bool,
}

impl EngineView<'_> {
    /// Is slot `t` calibrated on machine `m`?
    pub fn is_calibrated(&self, m: MachineId) -> bool {
        self.machines[m.index()].covers(self.t)
    }

    /// Is the current step calibrated on *any* machine? (The single-machine
    /// algorithms' "if t is not calibrated" test.)
    pub fn any_calibrated(&self) -> bool {
        self.machines.iter().any(|m| m.covers(self.t))
    }

    /// Total weight of the waiting queue.
    pub fn queue_weight(&self) -> Cost {
        self.waiting.iter().map(|j| Cost::from(j.weight)).sum()
    }

    /// The waiting queue in `policy` order. For
    /// [`PriorityPolicy::EarliestReleaseFirst`] this borrows `waiting`
    /// without a copy: releases only enter the queue in `(release, id)`
    /// order, because `pending` is sorted and a submission must be released
    /// after the clock. Any other policy copies the queue and sorts it.
    pub(crate) fn queue_in(&self, policy: PriorityPolicy) -> Cow<'_, [Job]> {
        if policy == PriorityPolicy::EarliestReleaseFirst {
            return Cow::Borrowed(self.waiting);
        }
        let mut queue = self.waiting.to_vec();
        queue.sort_by_key(|j| policy.sort_key(j));
        Cow::Owned(queue)
    }

    /// The most recent interval (by calibration order), if any.
    pub fn last_interval(&self) -> Option<&IntervalRecord> {
        self.intervals.last()
    }
}

/// Outcome of an online run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The produced schedule (already validated against the instance).
    pub schedule: Schedule,
    /// Total weighted flow.
    pub flow: Cost,
    /// Number of calibrations.
    pub calibrations: usize,
    /// Online objective `G·C + flow`.
    pub cost: Cost,
    /// Per-interval job records.
    pub intervals: Vec<IntervalRecord>,
    /// Calibration trigger labels `(time, reason)`, in order.
    pub trace: Vec<(Time, &'static str)>,
}

/// Engine configuration knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Safety fuel: maximum number of *active* steps (steps where the engine
    /// does any work). Exceeding it indicates a non-terminating scheduler.
    pub max_steps: u64,
    /// Maximum decide iterations per phase per step (Algorithm 3's `while`
    /// loop must terminate well before this).
    pub max_decides_per_step: u32,
    /// When `false`, the clock advances one step at a time instead of
    /// jumping to the next event. Semantically identical (the differential
    /// property tests prove it) but `O(horizon)`; exists purely to validate
    /// the event-skipping logic.
    pub time_skip: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_steps: 50_000_000,
            max_decides_per_step: 4096,
            time_skip: true,
        }
    }
}

impl EngineConfig {
    /// The validation configuration: step every slot, no skipping.
    pub fn no_skip() -> Self {
        EngineConfig {
            time_skip: false,
            ..Default::default()
        }
    }
}

/// A typed engine failure. Batch runs convert these into panics (a
/// simulation driving a buggy scheduler is a programmer error); the
/// incremental [`EngineSession`] surfaces them so a serving layer can map
/// them onto protocol errors without poisoning other sessions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The step budget ([`EngineConfig::max_steps`]) ran out: the scheduler
    /// makes no progress.
    FuelExhausted {
        /// Step at which the budget ran dry.
        t: Time,
    },
    /// One step exceeded [`EngineConfig::max_decides_per_step`] decisions.
    DecideDiverged {
        /// The offending step.
        t: Time,
    },
    /// A reservation targeted a slot before the current time.
    ReservationInPast {
        /// The offending reservation.
        reservation: Reservation,
        /// The step at which it was issued.
        t: Time,
    },
    /// A reservation targeted a slot that is not calibrated-and-free.
    ReservedSlotNotFree {
        /// The offending reservation.
        reservation: Reservation,
        /// The step at which it was issued.
        t: Time,
    },
    /// A reservation named a job that is not in the waiting queue.
    ReservedJobNotWaiting {
        /// The job the scheduler tried to reserve.
        job: JobId,
    },
    /// A job was submitted with a release time at or before a step the
    /// engine has already processed — the online past is immutable.
    ArrivalInPast {
        /// The offending job.
        job: JobId,
        /// Its release time.
        release: Time,
        /// The latest step already processed.
        horizon: Time,
    },
    /// A job id was submitted twice to the same session.
    DuplicateJob {
        /// The repeated id.
        job: JobId,
    },
    /// A session was created with zero machines.
    NoMachines,
    /// An [`EngineSnapshot`] failed internal consistency checks during
    /// [`EngineSession::restore`] — e.g. a job id referenced by the waiting
    /// queue or a reservation that is not in the submission record.
    CorruptSnapshot {
        /// What was inconsistent.
        reason: &'static str,
    },
}

impl EngineError {
    /// A short stable label for the error class, in the same spirit as
    /// `calib_core::Violation::code` — wire protocols and replay files key
    /// on these instead of the instance-specific `Display` text.
    pub fn code(&self) -> &'static str {
        match self {
            EngineError::FuelExhausted { .. } => "fuel-exhausted",
            EngineError::DecideDiverged { .. } => "decide-diverged",
            EngineError::ReservationInPast { .. } => "reservation-in-past",
            EngineError::ReservedSlotNotFree { .. } => "reserved-slot-not-free",
            EngineError::ReservedJobNotWaiting { .. } => "reserved-job-not-waiting",
            EngineError::ArrivalInPast { .. } => "arrival-in-past",
            EngineError::DuplicateJob { .. } => "duplicate-job",
            EngineError::NoMachines => "no-machines",
            EngineError::CorruptSnapshot { .. } => "corrupt-snapshot",
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::FuelExhausted { t } => {
                write!(
                    f,
                    "engine fuel exhausted at t={t}: scheduler makes no progress"
                )
            }
            EngineError::DecideDiverged { t } => {
                write!(f, "decide loop did not converge at t={t}")
            }
            EngineError::ReservationInPast { reservation, t } => {
                write!(f, "reservation in the past: {reservation:?} at t={t}")
            }
            EngineError::ReservedSlotNotFree { reservation, t } => {
                write!(f, "reserved slot not free: {reservation:?} at t={t}")
            }
            EngineError::ReservedJobNotWaiting { job } => {
                write!(f, "reserved job {job} is not waiting")
            }
            EngineError::ArrivalInPast {
                job,
                release,
                horizon,
            } => {
                write!(
                    f,
                    "{job} released at {release} arrives in the engine's past (step {horizon} already processed)"
                )
            }
            EngineError::DuplicateJob { job } => {
                write!(f, "{job} was already submitted to this session")
            }
            EngineError::NoMachines => write!(f, "a session needs at least one machine"),
            EngineError::CorruptSnapshot { reason } => {
                write!(f, "engine snapshot fails consistency checks: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The calibrations and job starts materialized since the previous
/// [`EngineSession::take_decisions`] (or [`EngineSession::step`]) call —
/// what an online serving layer streams back to its client.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Decisions {
    /// New calibrations, in decision order.
    pub calibrations: Vec<Calibration>,
    /// New job starts, in materialization order.
    pub starts: Vec<Assignment>,
}

impl Decisions {
    /// Total number of decisions (calibrations + starts).
    pub fn len(&self) -> usize {
        self.calibrations.len() + self.starts.len()
    }

    /// True when nothing was decided.
    pub fn is_empty(&self) -> bool {
        self.calibrations.is_empty() && self.starts.is_empty()
    }
}

/// Everything a completed session produced.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The produced schedule (not yet validated — run
    /// [`calib_core::check_schedule`] against the jobs' instance).
    pub schedule: Schedule,
    /// Total weighted flow of the schedule.
    pub flow: Cost,
    /// Number of calibrations.
    pub calibrations: usize,
    /// Online objective `G·C + flow`.
    pub cost: Cost,
    /// Per-interval job records.
    pub intervals: Vec<IntervalRecord>,
    /// Calibration trigger labels `(time, reason)`, in order.
    pub trace: Vec<(Time, &'static str)>,
}

/// A point-in-time serializable copy of one [`MachineState`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSnapshot {
    /// Merged calibrated segments `[start, end)`, ascending.
    pub coverage: Vec<(Time, Time)>,
    /// Slots strictly before this are consumed.
    pub used_until: Time,
    /// Future pre-placed jobs: `(slot, job, interval index)`, ascending by
    /// slot (the order a `BTreeMap` iterates in).
    pub reservations: Vec<(Time, JobId, Option<usize>)>,
}

/// A point-in-time serializable copy of one [`IntervalRecord`]. Jobs are
/// stored by id; [`EngineSession::restore`] resolves them against the
/// snapshot's submission record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalSnapshot {
    /// The machine the interval lives on.
    pub machine: MachineId,
    /// The calibration time.
    pub start: Time,
    /// Jobs run in this interval, as `(job, slot)` pairs.
    pub jobs: Vec<(JobId, Time)>,
}

/// The complete state of an [`EngineSession`] at one instant, in plain
/// owned data — every field either copies session state verbatim or
/// reduces it to ids resolvable through `known`.
///
/// [`EngineSession::restore`] rebuilds a session that continues
/// *byte-identically*: every future decision, every schedule entry, and
/// the remaining fuel match the original session exactly. Derived state
/// (the per-machine interval index, the outstanding-reservation count) is
/// recomputed rather than stored, and trace reason labels are re-interned
/// against the known label table (an unknown label degrades to the generic
/// `"calibrate"` — labels are diagnostic, never load-bearing).
///
/// The serve layer persists this as the engine half of a journal
/// checkpoint record; the wire shape lives in `calib_serve::protocol`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// Calibration length `T`.
    pub cal_len: Time,
    /// Calibration cost `G`.
    pub cal_cost: Cost,
    /// Engine configuration (fuel budget, decide cap, time-skip mode).
    pub config: EngineConfig,
    /// Every job ever submitted, in canonical `(release, id)` order.
    pub known: Vec<Job>,
    /// Submitted-but-unreleased job ids, in `(release, id)` order.
    pub pending: Vec<JobId>,
    /// The waiting queue, by id, preserving queue order.
    pub waiting: Vec<JobId>,
    /// Per-machine live state.
    pub machines: Vec<MachineSnapshot>,
    /// Every interval calibrated so far, in calibration order.
    pub intervals: Vec<IntervalSnapshot>,
    /// Round-robin pointer for the next calibration's machine.
    pub rr_next: usize,
    /// All calibrations issued so far.
    pub calibrations: Vec<Calibration>,
    /// All job starts materialized so far.
    pub assignments: Vec<Assignment>,
    /// Calibration trigger labels `(time, reason)`, in order.
    pub trace: Vec<(Time, String)>,
    /// Remaining step budget (`max_steps` minus steps already processed).
    pub fuel: u64,
    /// Clock value of the last processed step.
    pub clock: Time,
    /// Whether any step has been processed (`clock` is meaningful).
    pub started: bool,
    /// The next step time the engine intends to process, `None` when idle.
    pub cursor: Option<Time>,
    /// Delta mark into `calibrations` for `take_decisions`.
    pub cal_mark: usize,
    /// Delta mark into `assignments` for `take_decisions`.
    pub asg_mark: usize,
}

/// Re-interns a snapshotted trace label against the table of labels the
/// shipped schedulers emit. Labels are diagnostics (they never influence
/// scheduling), so an unknown one degrades to the generic `"calibrate"`
/// instead of failing the restore.
fn intern_reason(label: &str) -> &'static str {
    crate::rules::known_labels()
        .find(|k| *k == label)
        .unwrap_or("calibrate")
}

/// Each machine's merged coverage as `calibrations` build it, in order —
/// the live coverage before expired segments were dropped. Calibrations
/// naming a missing machine are skipped.
fn full_coverage(
    calibrations: &[Calibration],
    machines: usize,
    cal_len: Time,
) -> Vec<Vec<(Time, Time)>> {
    let mut out = vec![MachineState::new(); machines];
    for c in calibrations {
        if let Some(m) = out.get_mut(c.machine.index()) {
            m.add_calibration(c.start, cal_len);
        }
    }
    out.into_iter().map(|m| m.coverage).collect()
}

/// Runs `scheduler` on `instance` with calibration cost `cal_cost`,
/// returning the schedule and its costs. Panics if the scheduler violates an
/// engine invariant (bad reservation, runaway decide loop) or fails to
/// schedule all jobs within the fuel limit — an online algorithm must always
/// make progress.
pub fn run_online(
    instance: &Instance,
    cal_cost: Cost,
    scheduler: &mut dyn OnlineScheduler,
) -> RunResult {
    run_online_with(instance, cal_cost, scheduler, EngineConfig::default())
}

/// [`run_online`] with explicit [`EngineConfig`].
pub fn run_online_with(
    instance: &Instance,
    cal_cost: Cost,
    scheduler: &mut dyn OnlineScheduler,
    config: EngineConfig,
) -> RunResult {
    run_online_probed(instance, cal_cost, scheduler, config, &mut NoopProbe)
}

/// Unwraps an engine result in the batch entry points, where a scheduler
/// bug is a programmer error by contract (see [`run_online`]).
fn batch_ok<T>(result: Result<T, EngineError>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => panic!("{e}"), // lint:allow(panic-freedom)
    }
}

/// [`run_online_with`] with a [`Probe`] observing the run.
///
/// The engine is monomorphized per probe type and every emission site is
/// guarded by `if P::ENABLED`, so the [`NoopProbe`] instantiation (which is
/// what [`run_online`] and [`run_online_with`] use) compiles to the
/// un-instrumented engine — observability is free unless a real probe is
/// passed. See `calib_core::obs` for the built-in probes (recording,
/// counting, JSON-lines tracing).
pub fn run_online_probed<P: Probe>(
    instance: &Instance,
    cal_cost: Cost,
    scheduler: &mut dyn OnlineScheduler,
    config: EngineConfig,
    probe: &mut P,
) -> RunResult {
    let mut session = batch_ok(EngineSession::with_probe(
        instance.machines(),
        instance.cal_len(),
        cal_cost,
        config,
        probe,
    ));
    batch_ok(session.submit(instance.jobs()));
    batch_ok(session.drain(scheduler));
    let (outcome, _probe) = session.finish();
    if let Err(e) = check_schedule(instance, &outcome.schedule) {
        panic!("online engine produced an infeasible schedule: {e}"); // lint:allow(panic-freedom)
    }
    debug_assert_eq!(outcome.flow, outcome.schedule.total_weighted_flow(instance));
    RunResult {
        schedule: outcome.schedule,
        flow: outcome.flow,
        calibrations: outcome.calibrations,
        cost: outcome.cost,
        intervals: outcome.intervals,
        trace: outcome.trace,
    }
}

/// A re-entrant, incrementally-driven engine: the long-running counterpart
/// of [`run_online`].
///
/// Jobs are [`EngineSession::submit`]ted as they become known; the clock
/// advances only through [`EngineSession::step`] (up to a caller-provided
/// virtual time) or [`EngineSession::drain`] (to completion of all work
/// submitted so far). Decisions made along the way are collected and handed
/// back as [`Decisions`] deltas. A drained session can keep accepting jobs;
/// [`EngineSession::finish`] closes it and yields the accumulated
/// [`SessionOutcome`].
///
/// Determinism contract: submitting all of an instance's jobs up front and
/// draining — or submitting each release group just before stepping past
/// it — produces the *same* schedule as [`run_online`] on that instance,
/// decision for decision. The serve-layer determinism tests assert exact
/// equality for every shipped algorithm.
pub struct EngineSession<P: Probe = NoopProbe> {
    cal_len: Time,
    cal_cost: Cost,
    /// Submitted jobs not yet released into the waiting queue, sorted by
    /// `(release, id)` — the same canonical order an [`Instance`] keeps.
    pending: VecDeque<Job>,
    /// Every job id ever submitted, for duplicate detection. A job that
    /// has not started is in `pending`, `waiting` or its reservation; a
    /// started one is in `history`.
    ids: IdRuns,
    waiting: Vec<Job>,
    machines: Vec<MachineState>,
    /// The live suffix of the interval list (see [`EngineView::intervals`]);
    /// `intervals[0]` has index `history.calibrations() - intervals.len()`
    /// in calibration order.
    intervals: Vec<IntervalRecord>,
    rr_next: usize,
    /// Every calibration, trace label and job start so far.
    history: History,
    /// The decisions not yet handed out by
    /// [`EngineSession::take_decisions`].
    fresh: Decisions,
    pending_reservations: usize,
    config: EngineConfig,
    fuel: u64,
    /// Clock value of the last processed step (for `RunComplete` and the
    /// arrival-in-past guard).
    clock: Time,
    /// Whether any step has been processed (i.e. `clock` is meaningful).
    started: bool,
    /// The next step time the engine intends to process, `None` when idle.
    cursor: Option<Time>,
    probe: P,
}

impl EngineSession<NoopProbe> {
    /// An unobserved session over `machines` machines with calibration
    /// length `cal_len` and calibration cost `cal_cost`.
    pub fn new(
        machines: usize,
        cal_len: Time,
        cal_cost: Cost,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        EngineSession::with_probe(machines, cal_len, cal_cost, config, NoopProbe)
    }
}

impl<P: Probe> EngineSession<P> {
    /// A session observed by `probe` (see [`run_online_probed`] for the
    /// zero-overhead guarantee when `P::ENABLED` is false).
    pub fn with_probe(
        machines: usize,
        cal_len: Time,
        cal_cost: Cost,
        config: EngineConfig,
        probe: P,
    ) -> Result<Self, EngineError> {
        if machines == 0 {
            return Err(EngineError::NoMachines);
        }
        Ok(EngineSession {
            cal_len,
            cal_cost,
            pending: VecDeque::new(),
            ids: IdRuns::default(),
            waiting: Vec::new(),
            machines: vec![MachineState::new(); machines],
            intervals: Vec::new(),
            rr_next: 0,
            history: History::default(),
            fresh: Decisions::default(),
            pending_reservations: 0,
            fuel: config.max_steps,
            config,
            clock: 0,
            started: false,
            cursor: None,
            probe,
        })
    }

    /// Last processed step, or `None` before the first step.
    pub fn clock(&self) -> Option<Time> {
        self.started.then_some(self.clock)
    }

    /// True when no submitted work remains (empty queue, no unreleased
    /// jobs, no outstanding reservations).
    pub fn is_idle(&self) -> bool {
        self.waiting.is_empty() && self.pending.is_empty() && self.pending_reservations == 0
    }

    /// Number of jobs submitted so far.
    pub fn jobs_submitted(&self) -> usize {
        self.ids.len()
    }

    /// Number of calibrations issued so far.
    pub fn calibration_count(&self) -> usize {
        self.history.calibrations()
    }

    /// Number of job starts materialized so far.
    pub fn assignment_count(&self) -> usize {
        self.history.starts()
    }

    /// Every job submitted so far, in canonical `(release, id)` order —
    /// ready for `Instance::new` when a serving layer wants to validate the
    /// session's schedule with the trusted checker.
    pub fn submitted_jobs(&self) -> Vec<Job> {
        let mut started = Vec::with_capacity(self.history.starts());
        self.history.replay(|entry| {
            if let Entry::Start(s) = entry {
                started.push(s.job);
            }
        });
        self.with_unstarted(started)
    }

    /// `started` plus every job not yet started, sorted by `(release, id)`.
    fn with_unstarted(&self, mut jobs: Vec<Job>) -> Vec<Job> {
        jobs.reserve(self.ids.len().saturating_sub(jobs.len()));
        jobs.extend(self.pending.iter().copied());
        jobs.extend(self.waiting.iter().copied());
        for m in &self.machines {
            jobs.extend(m.reservations.values().map(|&(job, _)| job));
        }
        jobs.sort_unstable_by_key(|j| (j.release, j.id));
        jobs
    }

    /// Mutable access to the probe, e.g. to flush or detach a trace sink
    /// before the session is dropped.
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// A copy of the schedule accumulated so far.
    pub fn schedule_snapshot(&self) -> Schedule {
        let mut calibrations = Vec::with_capacity(self.history.calibrations());
        let mut assignments = Vec::with_capacity(self.history.starts());
        self.history.replay(|entry| match entry {
            Entry::Calibration(c) => calibrations.push(c),
            Entry::Start(s) => assignments.push(s.assignment()),
            Entry::Trace(..) => {}
        });
        Schedule::new(calibrations, assignments)
    }

    /// Captures the session's complete state as an [`EngineSnapshot`] —
    /// the engine half of a serve-layer checkpoint record.
    pub fn snapshot(&self) -> EngineSnapshot {
        let history = self.history.replay_all();
        let coverage = full_coverage(&history.calibrations, self.machines.len(), self.cal_len);
        let intervals = history
            .intervals()
            .into_iter()
            .map(|iv| IntervalSnapshot {
                machine: iv.machine,
                start: iv.start,
                jobs: iv.jobs.iter().map(|&(job, slot)| (job.id, slot)).collect(),
            })
            .collect();
        let assignments = history.assignments();
        EngineSnapshot {
            cal_len: self.cal_len,
            cal_cost: self.cal_cost,
            config: self.config,
            known: self.with_unstarted(history.starts.iter().map(|s| s.job).collect()),
            pending: self.pending.iter().map(|j| j.id).collect(),
            waiting: self.waiting.iter().map(|j| j.id).collect(),
            machines: self
                .machines
                .iter()
                .zip(coverage)
                .map(|(m, coverage)| MachineSnapshot {
                    coverage,
                    used_until: m.used_until,
                    reservations: m
                        .reservations
                        .iter()
                        .map(|(&slot, &(job, interval))| (slot, job.id, interval))
                        .collect(),
                })
                .collect(),
            intervals,
            rr_next: self.rr_next,
            cal_mark: history.calibrations.len() - self.fresh.calibrations.len(),
            asg_mark: assignments.len() - self.fresh.starts.len(),
            calibrations: history.calibrations,
            assignments,
            trace: history
                .trace
                .iter()
                .map(|&(t, reason)| (t, reason.to_string()))
                .collect(),
            fuel: self.fuel,
            clock: self.clock,
            started: self.started,
            cursor: self.cursor,
        }
    }

    /// Rebuilds a session from an [`EngineSnapshot`], observed by `probe`.
    ///
    /// The history log, the live intervals and the outstanding-reservation
    /// count are rebuilt rather than stored; every cross-reference in the
    /// snapshot is validated and an inconsistency is a typed
    /// [`EngineError::CorruptSnapshot`] — a serving layer falls back to
    /// full journal replay rather than trusting a damaged checkpoint. Each
    /// submitted job must be in exactly one of `pending`, `waiting`, a
    /// reservation or `assignments`, and the coverage and intervals must
    /// be the ones the calibrations and assignments produce.
    pub fn restore(snapshot: &EngineSnapshot, probe: P) -> Result<Self, EngineError> {
        let corrupt = |reason: &'static str| EngineError::CorruptSnapshot { reason };
        if snapshot.machines.is_empty() {
            return Err(EngineError::NoMachines);
        }
        // Submitted jobs not yet found in a queue, reservation or start.
        let mut unplaced: HashMap<JobId, Job> = HashMap::with_capacity(snapshot.known.len());
        for &job in &snapshot.known {
            if unplaced.insert(job.id, job).is_some() {
                return Err(corrupt("duplicate job id in submission record"));
            }
        }
        let ids = IdRuns::from_ids(snapshot.known.iter().map(|j| j.id.0).collect());
        let mut place = |id: JobId, context: &'static str| -> Result<Job, EngineError> {
            unplaced.remove(&id).ok_or(corrupt(context))
        };
        let mut pending: Vec<Job> = Vec::with_capacity(snapshot.pending.len());
        for &id in &snapshot.pending {
            pending.push(place(id, "pending job not in submission record")?);
        }
        pending.sort_by_key(|j| (j.release, j.id));
        let mut waiting: Vec<Job> = Vec::with_capacity(snapshot.waiting.len());
        for &id in &snapshot.waiting {
            waiting.push(place(id, "waiting job not in submission record")?);
        }
        // The schedulers read the queue in this order (`queue_in` borrows
        // it for release order), so a reordered queue would decide
        // differently from the session that was checkpointed.
        if waiting
            .windows(2)
            .any(|w| (w[0].release, w[0].id) >= (w[1].release, w[1].id))
        {
            return Err(corrupt("waiting queue not in (release, id) order"));
        }
        let mut machines: Vec<MachineState> = Vec::with_capacity(snapshot.machines.len());
        let mut pending_reservations = 0usize;
        for ms in &snapshot.machines {
            let mut reservations = BTreeMap::new();
            for &(slot, id, interval) in &ms.reservations {
                let job = place(id, "reserved job not in submission record")?;
                if interval.is_some_and(|i| i >= snapshot.intervals.len()) {
                    return Err(corrupt("reservation references a missing interval"));
                }
                if reservations.insert(slot, (job, interval)).is_some() {
                    return Err(corrupt("two reservations share one slot"));
                }
            }
            pending_reservations += reservations.len();
            machines.push(MachineState {
                coverage: Vec::new(),
                used_until: ms.used_until,
                reservations,
            });
        }

        // The history log, calibrations first so every start's interval
        // is already recorded.
        if snapshot.intervals.len() != snapshot.calibrations.len() {
            return Err(corrupt("intervals disagree with calibrations"));
        }
        if snapshot
            .calibrations
            .iter()
            .any(|c| c.machine.index() >= machines.len())
        {
            return Err(corrupt("calibration references a missing machine"));
        }
        let coverage = full_coverage(&snapshot.calibrations, machines.len(), snapshot.cal_len);
        if coverage
            .iter()
            .zip(&snapshot.machines)
            .any(|(c, ms)| *c != ms.coverage)
        {
            return Err(corrupt("machine coverage disagrees with calibrations"));
        }
        for (m, coverage) in machines.iter_mut().zip(coverage) {
            m.coverage = coverage;
        }
        let mut history = History::default();
        for &cal in &snapshot.calibrations {
            history.push_calibration(cal);
        }
        for (t, reason) in &snapshot.trace {
            history.push_trace(*t, intern_reason(reason));
        }
        let mut ran_in: HashMap<JobId, usize> = HashMap::new();
        for (i, iv) in snapshot.intervals.iter().enumerate() {
            for &(id, _) in &iv.jobs {
                if ran_in.insert(id, i).is_some() {
                    return Err(corrupt("a job runs in two intervals"));
                }
            }
        }
        for a in &snapshot.assignments {
            let job = place(a.job, "started job not in submission record")?;
            history.push_start(&Start {
                job,
                slot: a.start,
                machine: a.machine,
                interval: ran_in.remove(&a.job),
            });
        }
        if !unplaced.is_empty() {
            return Err(corrupt(
                "submitted job neither queued, reserved nor started",
            ));
        }
        let intervals = history.replay_all().intervals();
        let agrees = intervals.len() == snapshot.intervals.len()
            && intervals.iter().zip(&snapshot.intervals).all(|(iv, s)| {
                iv.machine == s.machine
                    && iv.start == s.start
                    && iv
                        .jobs
                        .iter()
                        .map(|&(j, slot)| (j.id, slot))
                        .eq(s.jobs.iter().copied())
            });
        if !agrees {
            return Err(corrupt(
                "intervals disagree with calibrations and assignments",
            ));
        }
        if snapshot.cal_mark > snapshot.calibrations.len()
            || snapshot.asg_mark > snapshot.assignments.len()
        {
            return Err(corrupt("delta mark beyond decision history"));
        }
        let mut session = EngineSession {
            cal_len: snapshot.cal_len,
            cal_cost: snapshot.cal_cost,
            pending: VecDeque::from(pending),
            ids,
            waiting,
            machines,
            intervals,
            rr_next: snapshot.rr_next,
            history,
            fresh: Decisions {
                calibrations: snapshot.calibrations[snapshot.cal_mark..].to_vec(),
                starts: snapshot.assignments[snapshot.asg_mark..].to_vec(),
            },
            pending_reservations,
            config: snapshot.config,
            fuel: snapshot.fuel,
            clock: snapshot.clock,
            started: snapshot.started,
            cursor: snapshot.cursor,
            probe,
        };
        if session.started {
            // Every later step is after the clock.
            session.retire(session.clock.saturating_add(1));
        }
        Ok(session)
    }

    /// Submits a batch of jobs to the arrival stream.
    ///
    /// Jobs must be new to the session and released strictly after the last
    /// processed step. On error the batch is applied up to (not including)
    /// the offending job; the session itself stays consistent and can keep
    /// serving.
    pub fn submit(&mut self, jobs: &[Job]) -> Result<(), EngineError> {
        for &job in jobs {
            if self.ids.contains(job.id) {
                return Err(EngineError::DuplicateJob { job: job.id });
            }
            if self.started && job.release <= self.clock {
                return Err(EngineError::ArrivalInPast {
                    job: job.id,
                    release: job.release,
                    horizon: self.clock,
                });
            }
            self.ids.insert(job.id);
            self.insert_pending(job);
            // A new early release may precede the previously predicted next
            // event; the engine must wake at the arrival instead.
            if let Some(c) = self.cursor {
                if job.release < c {
                    self.cursor = Some(job.release);
                }
            }
        }
        Ok(())
    }

    fn insert_pending(&mut self, job: Job) {
        let key = (job.release, job.id);
        let mut i = self.pending.len();
        while i > 0 {
            let p = &self.pending[i - 1];
            if (p.release, p.id) <= key {
                break;
            }
            i -= 1;
        }
        self.pending.insert(i, job);
    }

    /// Submits `arrivals` and advances the virtual clock to `now`,
    /// processing every due event along the way. Returns the delta of
    /// decisions materialized by this call.
    pub fn step(
        &mut self,
        now: Time,
        arrivals: &[Job],
        scheduler: &mut dyn OnlineScheduler,
    ) -> Result<Decisions, EngineError> {
        self.submit(arrivals)?;
        self.advance_to(now, scheduler)?;
        Ok(self.take_decisions())
    }

    /// Runs until all work submitted so far is scheduled, returning the
    /// delta of decisions. The session stays open for further submissions.
    pub fn drain(&mut self, scheduler: &mut dyn OnlineScheduler) -> Result<Decisions, EngineError> {
        self.advance_to(Time::MAX, scheduler)?;
        // A drained session may sit idle for long: hand back the spare
        // capacity of the queues and the log.
        self.pending.shrink_to_fit();
        self.waiting.shrink_to_fit();
        self.intervals.shrink_to_fit();
        self.history.shrink_to_fit();
        Ok(self.take_decisions())
    }

    /// The decisions accumulated since the last delta was taken.
    pub fn take_decisions(&mut self) -> Decisions {
        std::mem::take(&mut self.fresh)
    }

    /// Closes the session and returns everything it produced, handing the
    /// probe back so owners can flush or inspect their sinks. Emits the
    /// `RunComplete` probe event, mirroring the batch engine.
    pub fn finish(mut self) -> (SessionOutcome, P) {
        let history = self.history.replay_all();
        let flow: Cost = history
            .starts
            .iter()
            .map(|s| s.job.flow_if_started(s.slot))
            .sum();
        let calibrations = history.calibrations.len();
        if P::ENABLED {
            self.probe.record(&Event::RunComplete {
                time: self.clock,
                flow,
                calibrations: u64::try_from(calibrations).unwrap_or(u64::MAX),
            });
        }
        let intervals = history.intervals();
        let assignments = history.assignments();
        let outcome = SessionOutcome {
            schedule: Schedule::new(history.calibrations, assignments),
            flow,
            calibrations,
            cost: self.cal_cost * Cost::try_from(calibrations).unwrap_or(Cost::MAX) + flow,
            intervals,
            trace: history.trace,
        };
        (outcome, self.probe)
    }

    /// Processes every due step with time `<= upto`, leaving the cursor at
    /// the next future event (if any work remains).
    fn advance_to(
        &mut self,
        upto: Time,
        scheduler: &mut dyn OnlineScheduler,
    ) -> Result<(), EngineError> {
        loop {
            let t = match self.cursor {
                Some(c) => c,
                // Idle: the next event is the earliest unreleased arrival.
                None => match self.pending.front() {
                    Some(j) => j.release,
                    None => return Ok(()),
                },
            };
            if t > upto {
                // Pin the due step so a later call resumes exactly here.
                self.cursor = Some(t);
                return Ok(());
            }
            self.step_at(t, scheduler)?;
        }
    }

    /// One step of the engine at time `t` — arrivals, early decisions, slot
    /// service, late decisions — followed by next-event computation. This is
    /// the batch loop body, verbatim.
    fn step_at(&mut self, t: Time, scheduler: &mut dyn OnlineScheduler) -> Result<(), EngineError> {
        self.fuel = self
            .fuel
            .checked_sub(1)
            .ok_or(EngineError::FuelExhausted { t })?;
        self.clock = t;
        self.started = true;
        self.retire(t);

        // 1. Arrivals.
        let mut arrived_now = false;
        while let Some(&job) = self.pending.front() {
            if job.release > t {
                break;
            }
            self.pending.pop_front();
            arrived_now |= job.release == t;
            if P::ENABLED {
                self.probe.record(&Event::JobArrived {
                    time: t,
                    job: job.id,
                    weight: job.weight,
                });
            }
            self.waiting.push(job);
        }

        // 2. Early decisions (Algorithms 1 & 2).
        self.decide_loop(t, arrived_now, scheduler, /*early=*/ true)?;

        // 3. Serve the current slot: reservations first, then auto.
        self.materialize(t, Some(scheduler.auto_policy()));

        // 4. Late decisions (Algorithm 3); reservations for slot `t`
        //    itself are placed immediately, but no extra auto-assignment
        //    happens this step (the paper's lines 6–9 already ran).
        self.decide_loop(t, arrived_now, scheduler, /*early=*/ false)?;
        self.materialize(t, None);

        // Done?
        if self.is_idle() {
            self.cursor = None;
            return Ok(());
        }

        // 5. Advance the clock to the next event.
        if !self.config.time_skip {
            self.cursor = Some(t + 1);
            return Ok(());
        }
        let mut next: Option<(Time, &'static str)> = None;
        let mut consider = |c: Option<Time>, label: &'static str| {
            if let Some(c) = c {
                if c > t && next.is_none_or(|(n, _)| c < n) {
                    next = Some((c, label));
                }
            }
        };
        if let Some(j) = self.pending.front() {
            consider(Some(j.release), "release");
        }
        if !self.waiting.is_empty() || self.pending_reservations > 0 {
            for m in &self.machines {
                consider(m.next_usable(t + 1), "slot");
                // Threshold rules flip when coverage expires.
                consider(m.coverage_end_after(t), "coverage_end");
            }
        }
        consider(
            scheduler
                .next_wake(&self.view(t, false))
                .map(|w| w.max(t + 1)),
            "scheduler",
        );

        match next {
            Some((n, label)) => {
                if P::ENABLED {
                    if n > t + 1 {
                        self.probe.record(&Event::TimeSkip { from: t, to: n });
                    }
                    self.probe.record(&Event::Wake {
                        time: n,
                        reason: label,
                    });
                }
                self.cursor = Some(n);
            }
            None => {
                // No event in sight but work remains: step once (covers
                // schedulers without wake hints); fuel bounds the spin.
                self.cursor = Some(t + 1);
            }
        }
        Ok(())
    }

    /// Drops what no step at `t` or later reads: coverage segments that
    /// end by `t`, and the leading intervals that expired by `t` — but
    /// never the most recent interval. Their history stays in the log.
    ///
    /// No reservation loses its interval here: a reservation's interval is
    /// calibrated in the step that reserves, when no coverage reaches
    /// past that interval's end, so the reserved slot lies inside it.
    fn retire(&mut self, t: Time) {
        for m in &mut self.machines {
            let ended = m.coverage.partition_point(|&(_, e)| e <= t);
            m.coverage.drain(..ended);
        }
        let cal_len = self.cal_len;
        let expired = self.intervals[..self.intervals.len().saturating_sub(1)]
            .iter()
            .take_while(|iv| iv.start.saturating_add(cal_len) <= t)
            .count();
        self.intervals.drain(..expired);
    }

    /// Calibration-order index of `intervals[0]`.
    fn interval_base(&self) -> usize {
        self.history.calibrations() - self.intervals.len()
    }

    fn view(&self, t: Time, arrived_now: bool) -> EngineView<'_> {
        EngineView {
            t,
            cal_len: self.cal_len,
            cal_cost: self.cal_cost,
            machines: &self.machines,
            waiting: &self.waiting,
            intervals: &self.intervals,
            next_rr_machine: MachineId::from_index(self.rr_next % self.machines.len()),
            arrived_now,
        }
    }

    fn decide_loop(
        &mut self,
        t: Time,
        arrived_now: bool,
        scheduler: &mut dyn OnlineScheduler,
        early: bool,
    ) -> Result<(), EngineError> {
        for _ in 0..self.config.max_decides_per_step {
            let view = self.view(t, arrived_now);
            let decision = if early {
                scheduler.decide_early(&view)
            } else {
                scheduler.decide_late(&view)
            };
            if decision.is_none() {
                return Ok(());
            }
            self.apply(t, decision)?;
        }
        Err(EngineError::DecideDiverged { t })
    }

    fn apply(&mut self, t: Time, decision: Decision) -> Result<(), EngineError> {
        let p = self.machines.len();
        let mut decision_interval: Option<usize> = None;
        for _ in 0..decision.calibrate {
            let m = self.rr_next % p;
            self.rr_next += 1;
            self.machines[m].add_calibration(t, self.cal_len);
            let cal = Calibration {
                machine: MachineId::from_index(m),
                start: t,
            };
            decision_interval = Some(self.history.calibrations());
            self.history.push_calibration(cal);
            self.history
                .push_trace(t, decision.reason.unwrap_or("calibrate"));
            self.fresh.calibrations.push(cal);
            self.intervals.push(IntervalRecord {
                machine: cal.machine,
                start: t,
                jobs: Vec::new(),
            });
            if P::ENABLED {
                self.probe.record(&Event::Calibrate {
                    time: t,
                    machine: MachineId::from_index(m),
                    start: t,
                });
            }
        }
        for r in decision.reserve {
            if r.slot < t {
                return Err(EngineError::ReservationInPast { reservation: r, t });
            }
            if !self.machines[r.machine.index()].slot_free(r.slot) {
                return Err(EngineError::ReservedSlotNotFree { reservation: r, t });
            }
            let Some(pos) = self.waiting.iter().position(|j| j.id == r.job) else {
                return Err(EngineError::ReservedJobNotWaiting { job: r.job });
            };
            let job = self.waiting.remove(pos);
            debug_assert!(job.release <= r.slot);
            self.machines[r.machine.index()]
                .reservations
                .insert(r.slot, (job, decision_interval));
            self.pending_reservations += 1;
            if P::ENABLED {
                self.probe.record(&Event::Reserve {
                    time: t,
                    machine: r.machine,
                    start: r.slot,
                });
            }
        }
        Ok(())
    }

    /// Serves slot `t` on every machine: a reservation if present, else (when
    /// `auto` is set) the best waiting job under the policy.
    fn materialize(&mut self, t: Time, auto: Option<PriorityPolicy>) {
        for m in 0..self.machines.len() {
            if !self.machines[m].covers(t) || t < self.machines[m].used_until {
                continue;
            }
            let (job, reserved_into) =
                if let Some((job, iv)) = self.machines[m].reservations.remove(&t) {
                    self.pending_reservations -= 1;
                    (Some(job), iv)
                } else if let Some(policy) = auto {
                    (self.pop_waiting(policy), None)
                } else {
                    (None, None)
                };
            if let Some(job) = job {
                let machine = MachineId::from_index(m);
                self.machines[m].used_until = t + 1;
                if P::ENABLED {
                    self.probe.record(&Event::Dispatch {
                        time: t,
                        job: job.id,
                        machine: MachineId::from_index(m),
                        start: t,
                    });
                }
                // A reserved job belongs to the interval that reserved it
                // (overlapping same-machine intervals make "latest covering"
                // ambiguous); auto-scheduled jobs go to the latest covering
                // interval.
                let base = self.interval_base();
                let interval = reserved_into.or_else(|| {
                    self.intervals
                        .iter()
                        .rposition(|iv| {
                            iv.machine == machine
                                && iv.start <= t
                                && t < iv.start.saturating_add(self.cal_len)
                        })
                        .map(|i| base + i)
                });
                if let Some(live) = interval
                    .and_then(|i| i.checked_sub(base))
                    .and_then(|i| self.intervals.get_mut(i))
                {
                    live.jobs.push((job, t));
                }
                let start = Start {
                    job,
                    slot: t,
                    machine,
                    interval,
                };
                self.history.push_start(&start);
                self.fresh.starts.push(start.assignment());
            }
        }
    }

    fn pop_waiting(&mut self, policy: PriorityPolicy) -> Option<Job> {
        // Small queues in practice; a linear argmin keeps `waiting` a plain
        // release-ordered Vec for the scheduler view.
        let best = self
            .waiting
            .iter()
            .enumerate()
            .min_by_key(|(_, j)| policy.sort_key(j))
            .map(|(i, _)| i)?;
        Some(self.waiting.remove(best))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Reservation;
    use calib_core::InstanceBuilder;

    /// A scheduler that never calibrates: the engine must detect the lack of
    /// progress via its fuel guard instead of spinning forever.
    struct NeverCalibrates;
    impl OnlineScheduler for NeverCalibrates {
        fn name(&self) -> String {
            "NeverCalibrates".into()
        }
    }

    #[test]
    #[should_panic(expected = "fuel exhausted")]
    fn fuel_guard_catches_stuck_schedulers() {
        let inst = InstanceBuilder::new(3).unit_jobs([0]).build().unwrap();
        let config = EngineConfig {
            max_steps: 100,
            ..Default::default()
        };
        run_online_with(&inst, 5, &mut NeverCalibrates, config);
    }

    /// A scheduler that calibrates forever in one step: the decide-loop cap
    /// must fire.
    struct CalibratesForever;
    impl OnlineScheduler for CalibratesForever {
        fn name(&self) -> String {
            "CalibratesForever".into()
        }
        fn decide_early(&mut self, _view: &EngineView) -> Decision {
            Decision::calibrate("forever")
        }
    }

    #[test]
    #[should_panic(expected = "decide loop did not converge")]
    fn decide_loop_cap_fires() {
        let inst = InstanceBuilder::new(3).unit_jobs([0]).build().unwrap();
        let config = EngineConfig {
            max_decides_per_step: 8,
            ..Default::default()
        };
        run_online_with(&inst, 5, &mut CalibratesForever, config);
    }

    /// Reserving a slot that is not free is a scheduler bug the engine
    /// reports loudly.
    struct BadReserver;
    impl OnlineScheduler for BadReserver {
        fn name(&self) -> String {
            "BadReserver".into()
        }
        fn decide_late(&mut self, view: &EngineView) -> Decision {
            if view.waiting.is_empty() {
                return Decision::none();
            }
            Decision {
                calibrate: 1,
                // Slot in the past relative to t: invalid.
                reserve: vec![Reservation {
                    job: view.waiting[0].id,
                    machine: calib_core::MachineId(0),
                    slot: view.t - 1,
                }],
                reason: Some("bad"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "reservation in the past")]
    fn past_reservations_rejected() {
        let inst = InstanceBuilder::new(3).unit_jobs([0]).build().unwrap();
        run_online(&inst, 5, &mut BadReserver);
    }

    #[test]
    fn machine_state_slot_queries() {
        let mut ms = MachineState::new();
        assert!(!ms.covers(0));
        assert_eq!(ms.next_usable(0), None);
        assert_eq!(ms.coverage_end_after(0), None);
        ms.add_calibration(5, 3);
        assert!(ms.covers(5) && ms.covers(7) && !ms.covers(8));
        assert_eq!(ms.next_usable(0), Some(5));
        assert_eq!(ms.coverage_end_after(6), Some(8));
        assert!(ms.slot_free(6));
        // Adjacent calibration extends the segment.
        ms.add_calibration(8, 3);
        assert_eq!(ms.coverage(), &[(5, 11)]);
        assert_eq!(ms.plannable_slots_in(5, 9, 10), vec![5, 6, 7, 8]);
    }

    #[test]
    fn empty_instance_returns_immediately() {
        let inst = InstanceBuilder::new(3).build().unwrap();
        let res = run_online(&inst, 5, &mut crate::Alg1::new());
        assert_eq!(res.cost, 0);
        assert!(res.schedule.assignments.is_empty());
    }

    #[test]
    fn probed_run_matches_unprobed_and_events_mirror_result() {
        use calib_core::obs::{Event, RecordingProbe};

        let inst = InstanceBuilder::new(4)
            .unit_jobs([0, 1, 2, 50, 51])
            .build()
            .unwrap();
        let plain = run_online(&inst, 6, &mut crate::Alg1::new());
        let mut probe = RecordingProbe::new();
        let probed = run_online_probed(
            &inst,
            6,
            &mut crate::Alg1::new(),
            EngineConfig::default(),
            &mut probe,
        );
        // Observation must not perturb behaviour.
        assert_eq!(probed.schedule, plain.schedule);
        assert_eq!(probed.cost, plain.cost);

        let count = |f: fn(&Event) -> bool| probe.events.iter().filter(|e| f(e)).count();
        assert_eq!(
            count(|e| matches!(e, Event::JobArrived { .. })),
            inst.jobs().len()
        );
        assert_eq!(
            count(|e| matches!(e, Event::Dispatch { .. })),
            inst.jobs().len()
        );
        assert_eq!(
            count(|e| matches!(e, Event::Calibrate { .. })),
            plain.calibrations
        );
        // The 47-step gap between bursts must be skipped, not stepped.
        assert!(probe
            .events
            .iter()
            .any(|e| matches!(e, Event::TimeSkip { .. })));
        assert!(matches!(
            probe.events.last(),
            Some(Event::RunComplete { .. })
        ));
    }

    /// Feeding a session release group by release group (the daemon's step
    /// pattern) must reproduce the batch schedule exactly.
    #[test]
    fn incremental_session_matches_batch_run() {
        let inst = InstanceBuilder::new(4)
            .unit_jobs([0, 0, 1, 3, 9, 9, 22])
            .build()
            .unwrap();
        for g in [0u128, 3, 7, 40] {
            let batch = run_online(&inst, g, &mut crate::Alg1::new());

            let mut scheduler = crate::Alg1::new();
            let mut session =
                EngineSession::new(inst.machines(), inst.cal_len(), g, EngineConfig::default())
                    .unwrap();
            let mut streamed = Decisions::default();
            let mut jobs = inst.jobs().to_vec();
            while !jobs.is_empty() {
                let release = jobs[0].release;
                let group: Vec<Job> = jobs
                    .iter()
                    .copied()
                    .filter(|j| j.release == release)
                    .collect();
                jobs.retain(|j| j.release != release);
                let d = session.step(release, &group, &mut scheduler).unwrap();
                streamed.calibrations.extend(d.calibrations);
                streamed.starts.extend(d.starts);
            }
            let d = session.drain(&mut scheduler).unwrap();
            streamed.calibrations.extend(d.calibrations);
            streamed.starts.extend(d.starts);

            let (outcome, _) = session.finish();
            assert_eq!(outcome.schedule, batch.schedule, "G={g}");
            assert_eq!(outcome.flow, batch.flow, "G={g}");
            assert_eq!(outcome.cost, batch.cost, "G={g}");
            // The streamed deltas add up to the full schedule.
            assert_eq!(streamed.calibrations, outcome.schedule.calibrations);
            assert_eq!(streamed.starts, outcome.schedule.assignments);
        }
    }

    /// A session keeps serving after rejecting a bad submission.
    #[test]
    fn session_rejects_past_and_duplicate_arrivals_without_poisoning() {
        let mut scheduler = crate::Alg1::new();
        let mut session = EngineSession::new(1, 5, 2, EngineConfig::default()).unwrap();
        session
            .step(10, &[Job::unweighted(0, 10)], &mut scheduler)
            .unwrap();

        // The engine has processed a step at t >= 10: release 5 is history.
        let past = session.submit(&[Job::unweighted(1, 5)]).unwrap_err();
        assert_eq!(past.code(), "arrival-in-past");
        // Job 0 again: duplicate.
        let dup = session.submit(&[Job::unweighted(0, 99)]).unwrap_err();
        assert_eq!(dup.code(), "duplicate-job");

        // Still functional: a fresh future job drains cleanly.
        session
            .step(40, &[Job::unweighted(2, 40)], &mut scheduler)
            .unwrap();
        session.drain(&mut scheduler).unwrap();
        let (outcome, _) = session.finish();
        assert_eq!(outcome.schedule.assignments.len(), 2);
    }

    #[test]
    fn session_requires_machines_and_reports_codes() {
        let Err(e) = EngineSession::new(0, 3, 1, EngineConfig::default()) else {
            panic!("zero machines must be rejected");
        };
        assert_eq!(e.code(), "no-machines");
        let fuel = EngineError::FuelExhausted { t: 7 };
        assert_eq!(fuel.code(), "fuel-exhausted");
        assert!(fuel.to_string().contains("fuel exhausted at t=7"));
    }

    /// A session snapshotted mid-run and restored must finish with the
    /// exact same schedule, flow, and trace as the uninterrupted original —
    /// the engine half of the serve layer's checkpoint guarantee.
    #[test]
    fn snapshot_restore_mid_run_is_byte_identical() {
        let inst = InstanceBuilder::new(4)
            .unit_jobs([0, 0, 1, 3, 9, 9, 22, 40])
            .build()
            .unwrap();
        for cut in [0i64, 3, 9, 23] {
            let mut reference = crate::Alg1::new();
            let mut session =
                EngineSession::new(inst.machines(), inst.cal_len(), 7, EngineConfig::default())
                    .unwrap();
            session.submit(inst.jobs()).unwrap();
            session.step(cut, &[], &mut reference).unwrap();
            let snapshot = session.snapshot();

            // Round-trip through the snapshot and drain both sessions with
            // *fresh* schedulers (the shipped schedulers are stateless).
            let mut restored = EngineSession::restore(&snapshot, NoopProbe)
                .map_err(|e| e.to_string())
                .unwrap();
            assert_eq!(restored.snapshot(), snapshot, "snapshot round-trips");
            session.drain(&mut crate::Alg1::new()).unwrap();
            restored.drain(&mut crate::Alg1::new()).unwrap();
            let (a, _) = session.finish();
            let (b, _) = restored.finish();
            assert_eq!(a.schedule, b.schedule, "cut at t={cut}");
            assert_eq!(a.flow, b.flow, "cut at t={cut}");
            assert_eq!(a.cost, b.cost, "cut at t={cut}");
            assert_eq!(a.trace, b.trace, "cut at t={cut}");
        }
    }

    /// Restore validates cross-references instead of trusting the bytes.
    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let mut session = EngineSession::new(2, 4, 3, EngineConfig::default()).unwrap();
        session.submit(&[Job::unweighted(0, 1)]).unwrap();
        let good = session.snapshot();
        assert!(EngineSession::restore(&good, NoopProbe).is_ok());

        let code = |snapshot: &EngineSnapshot| match EngineSession::restore(snapshot, NoopProbe) {
            Err(e) => e.code(),
            Ok(_) => "accepted",
        };
        let mut no_machines = good.clone();
        no_machines.machines.clear();
        assert_eq!(code(&no_machines), "no-machines");

        let mut ghost_waiter = good.clone();
        ghost_waiter.waiting.push(JobId(99));
        assert_eq!(code(&ghost_waiter), "corrupt-snapshot");

        let mut bad_mark = good.clone();
        bad_mark.cal_mark = 100;
        assert_eq!(code(&bad_mark), "corrupt-snapshot");

        // Unknown trace labels degrade, never fail.
        let mut odd_label = good;
        odd_label.trace.push((1, "from-the-future".to_string()));
        let restored = EngineSession::restore(&odd_label, NoopProbe).unwrap();
        assert_eq!(
            restored.snapshot().trace.last().map(|(_, r)| r.as_str()),
            Some("calibrate")
        );
    }

    /// The waiting queue is kept in `(release, id)` order and Algorithm 3
    /// reserves in that order, so a snapshot listing it any other way
    /// would restore into a session that decides differently.
    #[test]
    fn restore_rejects_a_reordered_waiting_queue() {
        let mut session = EngineSession::new(2, 4, 40, EngineConfig::default()).unwrap();
        let jobs: Vec<Job> = (0..3).map(|i| Job::unweighted(i, i64::from(i))).collect();
        session.step(2, &jobs, &mut crate::Alg3::new()).unwrap();
        let good = session.snapshot();
        assert_eq!(good.waiting, [JobId(0), JobId(1), JobId(2)]);
        assert!(EngineSession::restore(&good, NoopProbe).is_ok());

        let mut reversed = good;
        reversed.waiting.reverse();
        let err = EngineSession::restore(&reversed, NoopProbe).err();
        assert_eq!(err.map(|e| e.code()), Some("corrupt-snapshot"));
    }

    /// Restore rebuilds the history log from the snapshot, so a snapshot
    /// whose coverage, intervals or job placement disagree with its
    /// calibrations and assignments is corrupt.
    #[test]
    fn restore_rejects_snapshots_that_disagree_with_their_history() {
        let mut session = EngineSession::new(1, 3, 2, EngineConfig::default()).unwrap();
        let jobs: Vec<Job> = [0, 0, 1, 9, 9, 30]
            .iter()
            .enumerate()
            .map(|(i, &r)| Job::unweighted(u32::try_from(i).unwrap(), r))
            .collect();
        session.submit(&jobs).unwrap();
        session.step(10, &[], &mut crate::Alg1::new()).unwrap();
        let good = session.snapshot();
        assert!(good.intervals.len() >= 2 && good.intervals[0].jobs.len() >= 2);
        assert!(!good.pending.is_empty());
        assert!(EngineSession::restore(&good, NoopProbe).is_ok());

        let code = |snapshot: &EngineSnapshot| match EngineSession::restore(snapshot, NoopProbe) {
            Err(e) => e.code(),
            Ok(_) => "accepted",
        };
        let mut coverage = good.clone();
        coverage.machines[0].coverage[0].1 += 1;
        assert_eq!(code(&coverage), "corrupt-snapshot");

        let mut missing_interval = good.clone();
        missing_interval.intervals.pop();
        assert_eq!(code(&missing_interval), "corrupt-snapshot");

        let mut reordered = good.clone();
        reordered.intervals[0].jobs.reverse();
        assert_eq!(code(&reordered), "corrupt-snapshot");

        let mut moved = good.clone();
        let job = moved.intervals[0].jobs.remove(0);
        moved.intervals[1].jobs.push(job);
        assert_eq!(code(&moved), "corrupt-snapshot");

        let mut twice = good.clone();
        twice.waiting.push(twice.assignments[0].job);
        assert_eq!(code(&twice), "corrupt-snapshot");

        let mut unplaced = good.clone();
        unplaced.pending.clear();
        assert_eq!(code(&unplaced), "corrupt-snapshot");

        let mut far_machine = good;
        far_machine.calibrations[0].machine = MachineId(5);
        assert_eq!(code(&far_machine), "corrupt-snapshot");
    }

    /// `step(now)` must not advance past `now`: decisions due later arrive
    /// only after a later step — the daemon's tick semantics.
    #[test]
    fn step_respects_virtual_time_bound() {
        let mut scheduler = crate::Alg1::new();
        let mut session = EngineSession::new(1, 4, 0, EngineConfig::default()).unwrap();
        // G=0: Alg1 calibrates immediately on arrival.
        let d = session
            .step(
                0,
                &[Job::unweighted(0, 0), Job::unweighted(1, 6)],
                &mut scheduler,
            )
            .unwrap();
        assert_eq!(d.starts.len(), 1, "only the released job may start");
        assert!(!session.is_idle(), "job 1 still pending");
        let d = session.step(6, &[], &mut scheduler).unwrap();
        assert_eq!(d.starts.len(), 1);
        session.drain(&mut scheduler).unwrap();
        assert!(session.is_idle());
    }
}
