//! The daemon-wide metrics registry.
//!
//! One [`ServeMetrics`] lives for the whole server run. Hot paths touch
//! only relaxed atomics ([`LogHistogram`] included — it is an array of
//! atomic buckets), so recording is lock-free; the only mutex guards the
//! tenant map and the per-tenant `flow`/`cost` totals, which change a few
//! times per *session*, not per request.
//!
//! Per-tenant entries are **retained after `bye`** and reused if the same
//! tenant name reopens. That makes the headline invariant hold at every
//! instant: the global `decisions` counter equals the sum of the
//! per-tenant `decisions` counters, including tenants that already closed
//! — `calib-top --check` and the `obs-smoke` CI job both assert it.
//!
//! Snapshots serialize as one-line JSON (`{"type":"metrics","seq":…}`),
//! the same shape the `metrics` wire request returns, the
//! `--metrics-interval-ms` stream emits, and `calib-trace --metrics`
//! renders as counter tracks. `seq` is a monotonic snapshot counter — the
//! stream stays wall-clock-free, so converted traces are deterministic.
//! `flow` and `cost` are exact `u128` totals (`Json::UInt`), matching the
//! engine's exact arithmetic; everything else is `u64`.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use calib_core::json::{Json, ToJson};
use calib_core::obs::LogHistogram;
use calib_core::Cost;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Cumulative counters for one tenant name (across reopenings).
#[derive(Debug, Default)]
pub struct TenantMetrics {
    /// Calibration + start decisions delivered in replies.
    pub decisions: AtomicU64,
    /// Requests processed by workers for this tenant.
    pub requests: AtomicU64,
    /// Requests answered with `busy` and dropped.
    pub busy_drops: AtomicU64,
    /// Requests admitted through admission control (only counted when a
    /// controller is configured — the denominator of the fairness ratio).
    pub admitted: AtomicU64,
    /// Requests rejected with `shed` (in-flight budget breach).
    pub sheds: AtomicU64,
    /// Requests rejected with `rate-limited` (token bucket empty).
    pub rate_limited: AtomicU64,
    /// Connections the server dropped after shedding this tenant —
    /// forced disconnects, distinct from voluntary `bye` closes.
    pub shed_disconnects: AtomicU64,
    /// Successful `resume` attachments (reconnects and recoveries).
    pub reconnects: AtomicU64,
    /// Inbox depth right now (gauge).
    pub queue_depth: AtomicU64,
    /// Highest inbox depth ever observed.
    pub queue_high_water: AtomicU64,
    /// True while a live session exists for this name.
    pub open: AtomicBool,
    /// Wall-clock journal-append cost for this tenant, microseconds.
    pub fsync_micros: LogHistogram,
    /// Checkpoint records written for this tenant (appends + compactions).
    pub checkpoints: AtomicU64,
    /// Exact running totals from the latest accounting (drain/bye).
    totals: Mutex<(Cost, Cost)>,
}

impl TenantMetrics {
    /// Records the exact `(flow, cost)` totals from an accounting.
    pub fn set_totals(&self, flow: Cost, cost: Cost) {
        *lock(&self.totals) = (flow, cost);
    }

    /// The exact `(flow, cost)` totals last recorded.
    pub fn totals(&self) -> (Cost, Cost) {
        *lock(&self.totals)
    }

    /// Updates the inbox-depth gauge and its high-water mark.
    pub fn set_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    fn to_json(&self, name: &str) -> Json {
        let (flow, cost) = self.totals();
        Json::obj([
            ("tenant", Json::Str(name.to_string())),
            ("open", Json::Bool(self.open.load(Ordering::Relaxed))),
            (
                "decisions",
                self.decisions.load(Ordering::Relaxed).to_json(),
            ),
            ("requests", self.requests.load(Ordering::Relaxed).to_json()),
            (
                "busy_drops",
                self.busy_drops.load(Ordering::Relaxed).to_json(),
            ),
            ("admitted", self.admitted.load(Ordering::Relaxed).to_json()),
            ("sheds", self.sheds.load(Ordering::Relaxed).to_json()),
            (
                "rate_limited",
                self.rate_limited.load(Ordering::Relaxed).to_json(),
            ),
            (
                "shed_disconnects",
                self.shed_disconnects.load(Ordering::Relaxed).to_json(),
            ),
            (
                "reconnects",
                self.reconnects.load(Ordering::Relaxed).to_json(),
            ),
            (
                "queue_depth",
                self.queue_depth.load(Ordering::Relaxed).to_json(),
            ),
            (
                "queue_high_water",
                self.queue_high_water.load(Ordering::Relaxed).to_json(),
            ),
            ("flow", Json::UInt(flow)),
            ("cost", Json::UInt(cost)),
            ("fsync_micros", self.fsync_micros.snapshot().to_json()),
            (
                "checkpoints",
                self.checkpoints.load(Ordering::Relaxed).to_json(),
            ),
        ])
    }
}

/// The daemon-wide registry: global counters, latency histograms, and the
/// retained per-tenant map.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
    /// Connections open right now (gauge).
    pub active_connections: AtomicU64,
    /// Request lines parsed.
    pub requests: AtomicU64,
    /// Calibration + start decisions delivered, all tenants.
    pub decisions: AtomicU64,
    /// Requests answered with `busy`.
    pub busy_drops: AtomicU64,
    /// Requests admitted through admission control, all tenants.
    pub admitted: AtomicU64,
    /// Requests rejected with `shed`, all tenants.
    pub sheds: AtomicU64,
    /// Requests rejected with `rate-limited`, all tenants.
    pub rate_limited: AtomicU64,
    /// Connections dropped after a shed — forced disconnects, counted
    /// separately from voluntary `bye` closes and plain detaches.
    pub shed_disconnects: AtomicU64,
    /// Sessions detached after a disconnect-without-`bye`.
    pub detaches: AtomicU64,
    /// Successful `resume` attachments.
    pub resumes: AtomicU64,
    /// Sessions rebuilt from an on-disk journal.
    pub recovered: AtomicU64,
    /// Trace-sink I/O errors surfaced at finalization.
    pub trace_io_errors: AtomicU64,
    /// Write-ahead journal appends.
    pub journal_appends: AtomicU64,
    /// Journal appends that ended in `fsync`.
    pub journal_syncs: AtomicU64,
    /// Checkpoint records written (appended or via compaction).
    pub checkpoints: AtomicU64,
    /// Journal compactions (checkpoint + truncate via atomic rename).
    pub compactions: AtomicU64,
    /// Serialized checkpoint payload bytes written.
    pub checkpoint_bytes: AtomicU64,
    /// Checkpoint/compaction attempts that failed on I/O (the old journal
    /// stays authoritative, so these degrade recovery cost, not safety).
    pub checkpoint_io_errors: AtomicU64,
    /// Migrated tenants installed from a checkpoint via `adopt`.
    pub adoptions: AtomicU64,
    /// Tenants drained, checkpointed, and removed via `evict`.
    pub evictions: AtomicU64,
    /// Reply lines written to connections.
    pub replies: AtomicU64,
    /// Flushes that pushed at least one written reply to its peer; a
    /// worker flushes once per batch, so `replies / reply_flushes` is the
    /// mean batch size.
    pub reply_flushes: AtomicU64,
    /// Worker time per processed request, microseconds.
    pub request_micros: LogHistogram,
    /// Wall-clock journal-append cost, microseconds, all tenants.
    pub fsync_micros: LogHistogram,
    /// Wall-clock checkpoint write cost (serialize + write + rename),
    /// microseconds.
    pub checkpoint_micros: LogHistogram,
    /// Monotonic snapshot sequence number.
    snapshots: AtomicU64,
    tenants: Mutex<BTreeMap<String, Arc<TenantMetrics>>>,
}

impl ServeMetrics {
    /// A fresh registry.
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// The metrics entry for `name`, created on first use and **reused**
    /// when a closed tenant name reopens — cumulative counters never
    /// reset, so global totals always equal per-tenant sums.
    pub fn tenant(&self, name: &str) -> Arc<TenantMetrics> {
        let mut tenants = lock(&self.tenants);
        Arc::clone(
            tenants
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(TenantMetrics::default())),
        )
    }

    /// Counts `n` decisions against both the global total and `tenant`'s.
    pub fn record_decisions(&self, tenant: &TenantMetrics, n: u64) {
        if n > 0 {
            self.decisions.fetch_add(n, Ordering::Relaxed);
            tenant.decisions.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records one journal append: its wall-clock cost in both histograms
    /// (global and per-tenant) and the append/sync counters.
    pub fn record_journal_append(&self, tenant: &TenantMetrics, micros: u64, synced: bool) {
        self.journal_appends.fetch_add(1, Ordering::Relaxed);
        if synced {
            self.journal_syncs.fetch_add(1, Ordering::Relaxed);
        }
        self.fsync_micros.record(micros);
        tenant.fsync_micros.record(micros);
    }

    /// Records one successful checkpoint write: latency, payload size, and
    /// whether it compacted the journal (rewrote it as `[checkpoint]`)
    /// rather than appending.
    pub fn record_checkpoint(
        &self,
        tenant: &TenantMetrics,
        micros: u64,
        bytes: u64,
        compacted: bool,
    ) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        if compacted {
            self.compactions.fetch_add(1, Ordering::Relaxed);
        }
        self.checkpoint_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.checkpoint_micros.record(micros);
        tenant.checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one failed checkpoint/compaction attempt.
    pub fn record_checkpoint_error(&self) {
        self.checkpoint_io_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one admitted request against both the global total and
    /// `tenant`'s — the invariant `global == Σ per-tenant` must hold for
    /// every admission counter, like `decisions`.
    pub fn record_admitted(&self, tenant: &TenantMetrics) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        tenant.admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one `shed` rejection; `disconnected` adds the forced-drop
    /// counter on top (journaling mode drops the connection after the
    /// typed reply).
    pub fn record_shed(&self, tenant: &TenantMetrics, disconnected: bool) {
        self.sheds.fetch_add(1, Ordering::Relaxed);
        tenant.sheds.fetch_add(1, Ordering::Relaxed);
        if disconnected {
            self.shed_disconnects.fetch_add(1, Ordering::Relaxed);
            tenant.shed_disconnects.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one `rate-limited` rejection.
    pub fn record_rate_limited(&self, tenant: &TenantMetrics) {
        self.rate_limited.fetch_add(1, Ordering::Relaxed);
        tenant.rate_limited.fetch_add(1, Ordering::Relaxed);
    }

    /// Open sessions right now.
    pub fn open_tenants(&self) -> u64 {
        let tenants = lock(&self.tenants);
        let open = tenants
            .values()
            .filter(|t| t.open.load(Ordering::Relaxed))
            .count();
        u64::try_from(open).unwrap_or(u64::MAX)
    }

    /// Serializes one snapshot, advancing the monotonic `seq`.
    ///
    /// Shape: `{"type":"metrics","seq":N,"global":{…u64 totals…},
    /// "request_micros":{…},"fsync_micros":{…},"per_tenant":[…]}`.
    /// The per-tenant array is sorted by name and includes closed tenants
    /// (their counters stay in the sums).
    pub fn snapshot_json(&self) -> Json {
        let seq = self.snapshots.fetch_add(1, Ordering::Relaxed);
        let global = Json::obj([
            (
                "connections",
                self.connections.load(Ordering::Relaxed).to_json(),
            ),
            (
                "active_connections",
                self.active_connections.load(Ordering::Relaxed).to_json(),
            ),
            ("requests", self.requests.load(Ordering::Relaxed).to_json()),
            (
                "decisions",
                self.decisions.load(Ordering::Relaxed).to_json(),
            ),
            (
                "busy_drops",
                self.busy_drops.load(Ordering::Relaxed).to_json(),
            ),
            ("admitted", self.admitted.load(Ordering::Relaxed).to_json()),
            ("sheds", self.sheds.load(Ordering::Relaxed).to_json()),
            (
                "rate_limited",
                self.rate_limited.load(Ordering::Relaxed).to_json(),
            ),
            (
                "shed_disconnects",
                self.shed_disconnects.load(Ordering::Relaxed).to_json(),
            ),
            ("detaches", self.detaches.load(Ordering::Relaxed).to_json()),
            ("resumes", self.resumes.load(Ordering::Relaxed).to_json()),
            (
                "recovered",
                self.recovered.load(Ordering::Relaxed).to_json(),
            ),
            (
                "trace_io_errors",
                self.trace_io_errors.load(Ordering::Relaxed).to_json(),
            ),
            (
                "journal_appends",
                self.journal_appends.load(Ordering::Relaxed).to_json(),
            ),
            (
                "journal_syncs",
                self.journal_syncs.load(Ordering::Relaxed).to_json(),
            ),
            (
                "checkpoints",
                self.checkpoints.load(Ordering::Relaxed).to_json(),
            ),
            (
                "compactions",
                self.compactions.load(Ordering::Relaxed).to_json(),
            ),
            (
                "checkpoint_bytes",
                self.checkpoint_bytes.load(Ordering::Relaxed).to_json(),
            ),
            (
                "checkpoint_io_errors",
                self.checkpoint_io_errors.load(Ordering::Relaxed).to_json(),
            ),
            (
                "adoptions",
                self.adoptions.load(Ordering::Relaxed).to_json(),
            ),
            (
                "evictions",
                self.evictions.load(Ordering::Relaxed).to_json(),
            ),
            ("replies", self.replies.load(Ordering::Relaxed).to_json()),
            (
                "reply_flushes",
                self.reply_flushes.load(Ordering::Relaxed).to_json(),
            ),
            ("tenants_open", self.open_tenants().to_json()),
        ]);
        let per_tenant: Vec<Json> = {
            let tenants = lock(&self.tenants);
            tenants.iter().map(|(name, t)| t.to_json(name)).collect()
        };
        Json::obj([
            ("type", Json::Str("metrics".to_string())),
            ("seq", seq.to_json()),
            ("global", global),
            ("request_micros", self.request_micros.snapshot().to_json()),
            ("fsync_micros", self.fsync_micros.snapshot().to_json()),
            (
                "checkpoint_micros",
                self.checkpoint_micros.snapshot().to_json(),
            ),
            ("per_tenant", Json::Arr(per_tenant)),
        ])
    }
}

/// A shared, clonable line sink for the periodic metrics stream.
///
/// Write errors shut the sink off (like the server's reply sinks): a dead
/// metrics consumer must never take the daemon down.
#[derive(Clone)]
pub struct MetricsSink(Arc<Mutex<Option<Box<dyn Write + Send>>>>);

impl fmt::Debug for MetricsSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MetricsSink")
    }
}

impl MetricsSink {
    /// A sink over any line-oriented writer.
    pub fn new(writer: Box<dyn Write + Send>) -> MetricsSink {
        MetricsSink(Arc::new(Mutex::new(Some(writer))))
    }

    /// A sink writing to stderr (the `--stdin` transport, where stdout
    /// carries protocol replies).
    pub fn stderr() -> MetricsSink {
        MetricsSink::new(Box::new(std::io::stderr()))
    }

    /// A sink writing to stdout (the TCP transport).
    pub fn stdout() -> MetricsSink {
        MetricsSink::new(Box::new(std::io::stdout()))
    }

    /// Writes one snapshot line (newline appended).
    pub fn write_snapshot(&self, snapshot: &Json) {
        // The sink lock serializes whole snapshot lines onto the shared
        // writer — it must span the write.
        // lint:allow(lock-discipline): deliberate hold across the write
        let mut guard = lock(&self.0);
        if let Some(w) = guard.as_mut() {
            let mut line = snapshot.to_string_compact();
            line.push('\n');
            if w.write_all(line.as_bytes()).is_err() || w.flush().is_err() {
                *guard = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_entries_are_retained_and_reused() {
        let m = ServeMetrics::new();
        let a1 = m.tenant("a");
        a1.decisions.fetch_add(5, Ordering::Relaxed);
        a1.open.store(false, Ordering::Relaxed);
        // Same name later: same counters, nothing reset.
        let a2 = m.tenant("a");
        assert!(Arc::ptr_eq(&a1, &a2));
        assert_eq!(a2.decisions.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn global_decisions_equal_per_tenant_sum() {
        let m = Arc::new(ServeMetrics::new());
        std::thread::scope(|scope| {
            for name in ["a", "b", "c"] {
                let m = Arc::clone(&m);
                scope.spawn(move || {
                    let t = m.tenant(name);
                    for i in 0..1000u64 {
                        m.record_decisions(&t, i % 3);
                    }
                });
            }
        });
        let snapshot = m.snapshot_json();
        let global = snapshot
            .get("global")
            .and_then(|g| g.get("decisions"))
            .and_then(Json::as_u64)
            .unwrap();
        let sum: u64 = snapshot
            .get("per_tenant")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|t| t.get("decisions").and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(global, sum);
        assert_eq!(global, 3 * 999);
    }

    #[test]
    fn admission_counters_keep_the_sum_invariant() {
        let m = ServeMetrics::new();
        let a = m.tenant("a");
        let b = m.tenant("b");
        for _ in 0..8 {
            m.record_admitted(&a);
        }
        m.record_admitted(&b);
        m.record_shed(&a, true);
        m.record_shed(&b, false);
        m.record_rate_limited(&b);
        let snap = m.snapshot_json();
        let global = snap.get("global").unwrap();
        for key in ["admitted", "sheds", "rate_limited", "shed_disconnects"] {
            let g = global.get(key).and_then(Json::as_u64).unwrap();
            let sum: u64 = snap
                .get("per_tenant")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|t| t.get(key).and_then(Json::as_u64).unwrap())
                .sum();
            assert_eq!(g, sum, "global {key} must equal the per-tenant sum");
        }
        assert_eq!(global.get("sheds").and_then(Json::as_u64), Some(2));
        assert_eq!(
            global.get("shed_disconnects").and_then(Json::as_u64),
            Some(1),
            "only the disconnecting shed counts as a forced drop"
        );
    }

    #[test]
    fn snapshot_seq_is_monotonic_and_shape_is_stable() {
        let m = ServeMetrics::new();
        let t = m.tenant("t");
        t.set_totals(u128::MAX, u128::MAX);
        m.record_journal_append(&t, 150, true);
        let s0 = m.snapshot_json();
        let s1 = m.snapshot_json();
        assert_eq!(s0.get("seq").and_then(Json::as_u64), Some(0));
        assert_eq!(s1.get("seq").and_then(Json::as_u64), Some(1));
        assert_eq!(s0.get("type").and_then(Json::as_str), Some("metrics"));
        // u128 totals survive the JSON round trip exactly.
        let line = s0.to_string_compact();
        let back = Json::parse(&line).unwrap();
        let tenant0 = &back.get("per_tenant").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(tenant0.get("flow").and_then(Json::as_u128), Some(u128::MAX));
        assert_eq!(
            back.get("global")
                .and_then(|g| g.get("journal_syncs"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            back.get("fsync_micros")
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn sink_survives_a_dead_writer() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = MetricsSink::new(Box::new(Dead));
        let m = ServeMetrics::new();
        // Both writes are absorbed; the second hits the shut-off sink.
        sink.write_snapshot(&m.snapshot_json());
        sink.write_snapshot(&m.snapshot_json());
    }
}
