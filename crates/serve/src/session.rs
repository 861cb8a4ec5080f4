//! One tenant: an incremental engine session plus its scheduler and probes.
//!
//! Tenants are fully independent — each owns its own
//! [`EngineSession`], its own boxed [`OnlineScheduler`], and its own atomic
//! [`Counters`] registry — so one tenant's malformed traffic or expensive
//! drain can never corrupt another's schedule (the fault-tolerance tests
//! pin this down). The server serializes all requests of a tenant, so a
//! `TenantSession` itself needs no internal locking.

use std::io::{BufWriter, Write};
use std::sync::Arc;
use std::time::Instant;

use calib_core::json::ToJson;
use calib_core::obs::{Counters, Event, Probe, TraceProbe};
use calib_core::{check_schedule, Cost, Instance, Job, Time};
use calib_online::{
    Alg1, Alg2, Alg3, CalibrateImmediately, Decisions, EngineConfig, EngineError, EngineSession,
    OnlineScheduler,
};

use crate::journal::{JournalRecord, JournalWriter};
use crate::metrics::{ServeMetrics, TenantMetrics};
use crate::protocol::{Accounting, CheckpointState};

/// The scheduling algorithms a tenant can ask for in `hello`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Algorithm 1: unweighted jobs, one machine (3-competitive).
    Alg1,
    /// Algorithm 2: weighted jobs, one machine (12-competitive).
    Alg2,
    /// Algorithm 3: unweighted jobs, `P` machines (12-competitive).
    Alg3,
    /// The calibrate-immediately baseline.
    Immediate,
}

impl Algorithm {
    /// Parses the protocol's `algorithm` string.
    pub fn from_name(name: &str) -> Option<Algorithm> {
        match name {
            "alg1" => Some(Algorithm::Alg1),
            "alg2" => Some(Algorithm::Alg2),
            "alg3" => Some(Algorithm::Alg3),
            "immediate" => Some(Algorithm::Immediate),
            _ => None,
        }
    }

    /// The protocol name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Alg1 => "alg1",
            Algorithm::Alg2 => "alg2",
            Algorithm::Alg3 => "alg3",
            Algorithm::Immediate => "immediate",
        }
    }

    /// A fresh scheduler instance.
    pub fn scheduler(self) -> Box<dyn OnlineScheduler + Send> {
        match self {
            Algorithm::Alg1 => Box::new(Alg1::new()),
            Algorithm::Alg2 => Box::new(Alg2::new()),
            Algorithm::Alg3 => Box::new(Alg3::new()),
            Algorithm::Immediate => Box::new(CalibrateImmediately),
        }
    }
}

/// A counting probe over shared ownership — the serve-layer sibling of
/// `calib_core::obs::CountingProbe`, which borrows its registry and
/// therefore cannot live inside a long-lived owned session.
#[derive(Debug, Clone)]
pub struct SharedCountingProbe(pub Arc<Counters>);

impl Probe for SharedCountingProbe {
    fn record(&mut self, event: &Event) {
        self.0.record(event);
    }
}

/// The probe stack every tenant session runs under: always-on counters,
/// plus an optional JSON-lines trace (the `--trace-dir` opt-in).
pub type TenantProbe = (
    SharedCountingProbe,
    Option<TraceProbe<BufWriter<std::fs::File>>>,
);

/// Tenant configuration from `hello`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Machine count `P`.
    pub machines: usize,
    /// Calibration length `T`.
    pub cal_len: Time,
    /// Calibration cost `G`.
    pub cal_cost: Cost,
    /// The scheduling algorithm.
    pub algorithm: Algorithm,
}

/// A typed session-layer failure, mapped onto protocol error codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionError {
    /// Stable kebab-case code (shared with [`EngineError::code`]).
    pub code: &'static str,
    /// Human-oriented detail.
    pub message: String,
}

impl SessionError {
    fn new(code: &'static str, message: impl Into<String>) -> SessionError {
        SessionError {
            code,
            message: message.into(),
        }
    }
}

impl From<EngineError> for SessionError {
    fn from(e: EngineError) -> SessionError {
        SessionError {
            code: e.code(),
            message: e.to_string(),
        }
    }
}

/// The registry handles a session records into: the daemon-wide
/// [`ServeMetrics`] plus this tenant's retained [`TenantMetrics`] entry.
#[derive(Debug, Clone)]
pub struct SessionMetrics {
    /// The daemon-wide registry.
    pub global: Arc<ServeMetrics>,
    /// This tenant's entry in it.
    pub tenant: Arc<TenantMetrics>,
}

/// One tenant's live scheduling state.
pub struct TenantSession {
    name: String,
    config: TenantConfig,
    engine: EngineSession<TenantProbe>,
    scheduler: Box<dyn OnlineScheduler + Send>,
    counters: Arc<Counters>,
    /// Virtual-time high-water mark from `tick`s; arrivals strictly before
    /// it are in the past even when the engine itself was idle there.
    now: Option<Time>,
    /// Write-ahead journal; every accepted mutating request is appended
    /// here *before* it reaches the engine.
    journal: Option<JournalWriter>,
    /// Highest request `seq` this session has processed — the duplicate-
    /// suppression and gap-detection high-water mark.
    last_seq: Option<u64>,
    /// Metrics registry handles, attached by the server after `hello` or
    /// recovery; `None` in bare unit-test sessions.
    metrics: Option<SessionMetrics>,
    /// Opt-in checkpoint cadence: once this many mutating records have
    /// been journaled since the last checkpoint, the next
    /// [`TenantSession::maybe_checkpoint`] writes one.
    checkpoint_every: Option<u64>,
    /// When set, a checkpoint opportunity on an idle session *compacts*
    /// the journal (rewrites it as `[checkpoint]`) instead of appending.
    compact_on_idle: bool,
    /// Mutating records journaled since the last checkpoint — the length
    /// of the tail a crash right now would replay.
    records_since_checkpoint: u64,
    /// Exact flow/cost totals carried by the checkpoint this session was
    /// restored from; applied to the metrics registry when it attaches.
    restored_totals: Option<(Cost, Cost)>,
}

impl TenantSession {
    /// Opens a session. `trace` is the optional JSON-lines sink.
    pub fn new(
        name: &str,
        config: TenantConfig,
        trace: Option<BufWriter<std::fs::File>>,
    ) -> Result<TenantSession, SessionError> {
        let counters = Arc::new(Counters::new());
        let probe: TenantProbe = (
            SharedCountingProbe(Arc::clone(&counters)),
            trace.map(|mut writer| {
                // A `session` preamble so offline converters (calib-trace)
                // learn the tenant name and calibration length without
                // side channels. A write error here is deferred like any
                // other trace I/O fault: the next probe write re-fails and
                // surfaces at finalization.
                let meta = calib_core::json::Json::obj([
                    ("type", "session".to_json()),
                    ("tenant", name.to_json()),
                    ("machines", config.machines.to_json()),
                    ("cal_len", config.cal_len.to_json()),
                    ("cal_cost", config.cal_cost.to_json()),
                    ("algorithm", config.algorithm.name().to_json()),
                ]);
                let mut line = meta.to_string_compact();
                line.push('\n');
                writer.write_all(line.as_bytes()).ok();
                TraceProbe::new(writer)
            }),
        );
        let engine = EngineSession::with_probe(
            config.machines,
            config.cal_len,
            config.cal_cost,
            EngineConfig::default(),
            probe,
        )
        .map_err(|e| SessionError::new("bad-config", e.to_string()))?;
        if config.cal_len <= 0 {
            return Err(SessionError::new(
                "bad-config",
                format!("cal_len must be positive, got {}", config.cal_len),
            ));
        }
        Ok(TenantSession {
            name: name.to_string(),
            config,
            engine,
            scheduler: config.algorithm.scheduler(),
            counters,
            now: None,
            journal: None,
            last_seq: None,
            metrics: None,
            checkpoint_every: None,
            compact_on_idle: false,
            records_since_checkpoint: 0,
            restored_totals: None,
        })
    }

    /// Rebuilds a session from a checkpoint payload — the starting point
    /// of tail replay. The engine is restored exactly (its own
    /// consistency checks gate this), the counter registry is re-seeded
    /// from the snapshot, and the scheduler is rebuilt fresh — every
    /// shipped scheduler is stateless, so a fresh instance continues
    /// byte-identically.
    pub fn restore_from_checkpoint(state: &CheckpointState) -> Result<TenantSession, SessionError> {
        if state.engine.cal_len != state.config.cal_len
            || state.engine.cal_cost != state.config.cal_cost
        {
            return Err(SessionError::new(
                "corrupt-snapshot",
                "checkpoint engine state disagrees with the tenant configuration",
            ));
        }
        let counters = Arc::new(Counters::new());
        counters.add_snapshot(state.counters);
        // No trace sink: appending replayed events to a truncated trace
        // would silently duplicate history (same rule as full replay).
        let probe: TenantProbe = (SharedCountingProbe(Arc::clone(&counters)), None);
        let engine = calib_online::EngineSession::restore(&state.engine, probe)?;
        Ok(TenantSession {
            name: state.tenant.clone(),
            config: state.config,
            engine,
            scheduler: state.config.algorithm.scheduler(),
            counters,
            now: state.now,
            journal: None,
            last_seq: state.last_seq,
            metrics: None,
            checkpoint_every: None,
            compact_on_idle: false,
            records_since_checkpoint: 0,
            restored_totals: Some((state.flow, state.cost)),
        })
    }

    /// Attaches the metrics registry handles; journal appends are timed
    /// and counted from here on. A session recovered from a checkpoint
    /// re-seeds its exact flow/cost totals into the registry here.
    pub fn set_metrics(&mut self, metrics: SessionMetrics) {
        if let Some((flow, cost)) = self.restored_totals {
            metrics.tenant.set_totals(flow, cost);
        }
        self.metrics = Some(metrics);
    }

    /// Sets the checkpoint policy (see [`TenantSession::maybe_checkpoint`]).
    /// `every = None` disables cadence checkpoints.
    pub fn set_checkpoint_policy(&mut self, every: Option<u64>, compact_on_idle: bool) {
        self.checkpoint_every = every;
        self.compact_on_idle = compact_on_idle;
    }

    /// Starts write-ahead journaling on a *fresh* session: the opening
    /// `hello` record (carrying this session's current `seq` high-water
    /// mark) is written immediately.
    pub fn start_journal(&mut self, mut writer: JournalWriter) -> std::io::Result<()> {
        writer.append(&JournalRecord::hello(
            &self.name,
            &self.config,
            self.last_seq,
        ))?;
        self.journal = Some(writer);
        Ok(())
    }

    /// Reattaches an append-mode journal to a *replayed* session (the
    /// recovery path) — no record is written.
    pub fn resume_journal(&mut self, writer: JournalWriter) {
        self.journal = Some(writer);
    }

    /// Detaches the journal *without* deleting its files — the eviction
    /// path. The on-disk journal must survive the handoff: if the adopting
    /// shard never installs the checkpoint (crash mid-migration), the
    /// journal tail under a shared `--journal-dir` remains the recovery
    /// fallback. Contrast [`TenantSession::finalize`], which removes the
    /// files because a finished session has nothing left to recover.
    pub(crate) fn detach_journal(&mut self) {
        self.journal = None;
    }

    /// The highest request `seq` processed so far.
    pub fn last_seq(&self) -> Option<u64> {
        self.last_seq
    }

    /// Raises the `seq` high-water mark (never lowers it).
    pub fn note_seq(&mut self, seq: u64) {
        self.last_seq = Some(self.last_seq.map_or(seq, |last| last.max(seq)));
    }

    /// Write-ahead append. A journal I/O failure rejects the request
    /// *before* any engine state changes — the client sees a typed
    /// `journal-io` error and durability is never silently degraded.
    ///
    /// Each append is timed: its wall-clock cost lands in the fsync
    /// histograms (when metrics are attached) and is emitted into the
    /// probe stack as a [`Event::JournalSync`], pinned to the virtual time
    /// the record targets — so Perfetto timelines show durability stalls
    /// on the same clock as the scheduling decisions.
    fn journal_append(&mut self, record: &JournalRecord) -> Result<(), SessionError> {
        let Some(w) = self.journal.as_mut() else {
            return Ok(());
        };
        let synced = w.will_sync(record);
        let started = Instant::now();
        let result = w.append(record);
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        if let Some(m) = self.metrics.as_ref() {
            m.global.record_journal_append(&m.tenant, micros, synced);
        }
        let time = match record {
            JournalRecord::Tick { now, .. } => *now,
            _ => self.now.unwrap_or(0),
        };
        self.engine.probe_mut().record(&Event::JournalSync {
            time,
            micros,
            synced,
        });
        if result.is_ok() {
            self.records_since_checkpoint += 1;
        }
        result.map_err(|e| SessionError::new("journal-io", e.to_string()))
    }

    /// Mutating records journaled since the last checkpoint — the replay
    /// tail a crash right now would cost.
    pub fn records_since_checkpoint(&self) -> u64 {
        self.records_since_checkpoint
    }

    /// Recovery bookkeeping: how long the tail already is when a session
    /// comes back from replay.
    pub(crate) fn set_records_since_checkpoint(&mut self, n: u64) {
        self.records_since_checkpoint = n;
    }

    /// The full checkpoint payload for this session's state right now.
    pub fn checkpoint_state(&self) -> CheckpointState {
        let (flow, cost) = self
            .metrics
            .as_ref()
            .map(|m| m.tenant.totals())
            .or(self.restored_totals)
            .unwrap_or((0, 0));
        CheckpointState {
            tenant: self.name.clone(),
            config: self.config,
            last_seq: self.last_seq,
            now: self.now,
            flow,
            cost,
            counters: self.counters.snapshot(),
            engine: self.engine.snapshot(),
        }
    }

    /// Writes a checkpoint — appended (`compact = false`) or compacting
    /// the journal down to `[checkpoint]` (`compact = true`). Returns
    /// whether it succeeded; failures are counted into the metrics
    /// registry and swallowed, because the old journal remains
    /// authoritative — a failed checkpoint degrades recovery *cost*, not
    /// recovery *correctness*.
    pub fn checkpoint(&mut self, compact: bool) -> bool {
        if self.journal.is_none() {
            return false;
        }
        let record = JournalRecord::Checkpoint(Box::new(self.checkpoint_state()));
        let started = Instant::now();
        let result = if compact {
            let Some(writer) = self.journal.take() else {
                return false;
            };
            let (writer, result) = writer.compact(&record);
            self.journal = Some(writer);
            result
        } else {
            match self.journal.as_mut() {
                Some(w) => w.append_counted(&record),
                None => return false,
            }
        };
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        match result {
            Ok(bytes) => {
                self.records_since_checkpoint = 0;
                if let Some(m) = self.metrics.as_ref() {
                    m.global
                        .record_checkpoint(&m.tenant, micros, bytes, compact);
                }
                true
            }
            Err(_) => {
                if let Some(m) = self.metrics.as_ref() {
                    m.global.record_checkpoint_error();
                }
                false
            }
        }
    }

    /// The server's per-request checkpoint hook: a no-op unless the
    /// session journals, something was journaled since the last
    /// checkpoint, and the policy says now. Idle sessions compact (when
    /// `--compact-on-idle` is set) so drained tenants hold exactly one
    /// record on disk; otherwise the `--checkpoint-every-n` cadence
    /// appends, keeping the replay tail bounded by `n`.
    pub fn maybe_checkpoint(&mut self) {
        if self.journal.is_none() || self.records_since_checkpoint == 0 {
            return;
        }
        if self.compact_on_idle && self.is_idle() {
            self.checkpoint(true);
        } else if self
            .checkpoint_every
            .is_some_and(|n| self.records_since_checkpoint >= n)
        {
            self.checkpoint(false);
        }
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's configuration.
    pub fn config(&self) -> &TenantConfig {
        &self.config
    }

    /// The tenant's counter registry (shared with the engine probe).
    pub fn counters(&self) -> &Arc<Counters> {
        &self.counters
    }

    /// The virtual time set by the latest `tick`, if any.
    pub fn now(&self) -> Option<Time> {
        self.now
    }

    /// Buffers a batch of future jobs. `seq` is the request's sequence
    /// number, persisted with the journal record so recovery restores the
    /// duplicate-suppression mark.
    ///
    /// The session-level past-arrival check rejects *before* the journal
    /// write (no state change, nothing to persist); engine-level errors
    /// like `duplicate-job` happen *after* it, which is correct because
    /// they are deterministic — replay reproduces the same partial batch
    /// application and the same error.
    pub fn arrive(&mut self, jobs: &[Job], seq: Option<u64>) -> Result<(), SessionError> {
        if let Some(now) = self.now {
            if let Some(job) = jobs.iter().find(|j| j.release < now) {
                return Err(SessionError::new(
                    "arrival-in-past",
                    format!(
                        "{} released at {} is before the tenant's virtual time {now}",
                        job.id, job.release
                    ),
                ));
            }
        }
        if self.journal.is_some() {
            self.journal_append(&JournalRecord::Arrive {
                jobs: jobs.to_vec(),
                seq,
            })?;
        }
        self.engine.submit(jobs)?;
        Ok(())
    }

    /// Advances virtual time to `now`, returning the decision delta.
    pub fn tick(&mut self, now: Time, seq: Option<u64>) -> Result<Decisions, SessionError> {
        if let Some(prev) = self.now {
            if now < prev {
                return Err(SessionError::new(
                    "time-regression",
                    format!("tick to {now} after {prev}"),
                ));
            }
        }
        self.journal_append(&JournalRecord::Tick { now, seq })?;
        self.now = Some(now);
        let delta = self.engine.step(now, &[], self.scheduler.as_mut())?;
        Ok(delta)
    }

    /// The decisions made since the previous delta, without advancing time.
    pub fn decisions(&mut self) -> Decisions {
        self.engine.take_decisions()
    }

    /// True when no submitted work remains.
    pub fn is_idle(&self) -> bool {
        self.engine.is_idle()
    }

    /// A snapshot of everything scheduled so far, in the engine's
    /// canonical order — the byte-identity witness for replay tests.
    pub fn schedule_snapshot(&self) -> calib_core::Schedule {
        self.engine.schedule_snapshot()
    }

    /// Runs the engine to completion of all submitted work and returns the
    /// decision delta. The session stays open.
    pub fn drain(&mut self, seq: Option<u64>) -> Result<Decisions, SessionError> {
        self.journal_append(&JournalRecord::Drain { seq })?;
        let delta = self.engine.drain(self.scheduler.as_mut())?;
        Ok(delta)
    }

    /// Validated accounting over everything scheduled so far. Runs the
    /// trusted feasibility checker against the submitted jobs; call after
    /// [`TenantSession::drain`] for final numbers.
    pub fn accounting(&self) -> Accounting {
        let jobs = self.engine.submitted_jobs();
        let schedule = self.engine.schedule_snapshot();
        let n = jobs.len();
        let scheduled = schedule.assignments.len();
        let calibrations = schedule.calibrations.len();
        // `Instance::new` only fails on non-positive T / zero machines,
        // which `hello` validation already excluded.
        let (flow, checker_ok, violations) =
            match Instance::new(jobs, self.config.machines, self.config.cal_len) {
                Ok(instance) => {
                    let flow = schedule.total_weighted_flow(&instance);
                    // Partial sessions legitimately have unassigned jobs;
                    // only a *drained* session must pass the full check.
                    match check_schedule(&instance, &schedule) {
                        Ok(()) => (flow, true, Vec::new()),
                        Err(e) => (
                            flow,
                            false,
                            e.violations.iter().map(|v| v.code().to_string()).collect(),
                        ),
                    }
                }
                Err(e) => (0, false, vec![format!("bad-instance: {e}")]),
            };
        Accounting {
            tenant: self.name.clone(),
            jobs: n,
            scheduled,
            calibrations,
            flow,
            cost: self.config.cal_cost * Cost::try_from(calibrations).unwrap_or(Cost::MAX) + flow,
            checker_ok,
            violations,
        }
    }

    /// Drains, validates, and closes the session in one move — the `bye`
    /// and disconnect-cleanup path. The trace sink (if any) is flushed; its
    /// first deferred I/O error is surfaced alongside the accounting. A
    /// journal, if attached, is deleted: a finalized session has nothing
    /// left to recover.
    pub fn finalize(mut self) -> (Accounting, Result<(), std::io::Error>) {
        // Detach the journal first: the closing drain is part of
        // finalization, not a recoverable request.
        let journal = self.journal.take();
        let drain_err = self.drain(None).err();
        let mut accounting = self.accounting();
        if let Some(e) = drain_err {
            accounting.checker_ok = false;
            accounting.violations.push(e.code.to_string());
        }
        let (outcome, probe) = self.engine.finish();
        debug_assert_eq!(outcome.schedule.assignments.len(), accounting.scheduled);
        let mut io_result = match probe.1 {
            Some(trace) => trace.finish().map(|_| ()),
            None => Ok(()),
        };
        if let Some(w) = journal {
            let removed = w.remove_files();
            if io_result.is_ok() {
                io_result = removed;
            }
        }
        (accounting, io_result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calib_core::InstanceBuilder;
    use calib_online::run_online;

    fn config(algorithm: Algorithm) -> TenantConfig {
        TenantConfig {
            machines: 1,
            cal_len: 4,
            cal_cost: 6,
            algorithm,
        }
    }

    #[test]
    fn algorithm_names_round_trip() {
        for alg in [
            Algorithm::Alg1,
            Algorithm::Alg2,
            Algorithm::Alg3,
            Algorithm::Immediate,
        ] {
            assert_eq!(Algorithm::from_name(alg.name()), Some(alg));
        }
        assert_eq!(Algorithm::from_name("alg9"), None);
    }

    #[test]
    fn session_matches_batch_objective() {
        let inst = InstanceBuilder::new(4)
            .unit_jobs([0, 1, 2, 9, 9, 20])
            .build()
            .unwrap();
        let batch = run_online(&inst, 6, &mut Alg1::new());

        let mut s = TenantSession::new("t", config(Algorithm::Alg1), None).unwrap();
        s.arrive(inst.jobs(), None).unwrap();
        s.drain(None).unwrap();
        let acc = s.accounting();
        assert!(acc.checker_ok, "violations: {:?}", acc.violations);
        assert_eq!(acc.flow, batch.flow);
        assert_eq!(acc.cost, batch.cost);
        assert_eq!(acc.scheduled, inst.n());
    }

    #[test]
    fn virtual_past_and_duplicates_get_stable_codes() {
        let mut s = TenantSession::new("t", config(Algorithm::Alg1), None).unwrap();
        s.arrive(&[Job::unweighted(0, 5)], None).unwrap();
        s.tick(10, None).unwrap();
        let err = s.arrive(&[Job::unweighted(1, 3)], None).unwrap_err();
        assert_eq!(err.code, "arrival-in-past");
        let err = s.arrive(&[Job::unweighted(0, 50)], None).unwrap_err();
        assert_eq!(err.code, "duplicate-job");
        let err = s.tick(9, None).unwrap_err();
        assert_eq!(err.code, "time-regression");
        // The session still works.
        s.arrive(&[Job::unweighted(2, 30)], None).unwrap();
        s.drain(None).unwrap();
        assert!(s.accounting().checker_ok);
    }

    #[test]
    fn counters_observe_engine_events() {
        let mut s = TenantSession::new("t", config(Algorithm::Alg1), None).unwrap();
        s.arrive(&[Job::unweighted(0, 0), Job::unweighted(1, 1)], None)
            .unwrap();
        s.drain(None).unwrap();
        let snap = s.counters().snapshot();
        assert_eq!(snap.arrivals, 2);
        assert_eq!(snap.dispatches, 2);
        assert!(snap.calibrations >= 1);
    }

    #[test]
    fn finalize_reports_partial_schedules_as_unchecked() {
        let mut s = TenantSession::new("t", config(Algorithm::Alg1), None).unwrap();
        s.arrive(&[Job::unweighted(0, 0)], None).unwrap();
        let (acc, io) = s.finalize();
        assert!(io.is_ok());
        assert!(
            acc.checker_ok,
            "finalize drains first: {:?}",
            acc.violations
        );
        assert_eq!(acc.scheduled, 1);
    }
}
