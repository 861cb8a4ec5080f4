//! The multi-tenant server: connection readers, a fixed worker pool, and
//! bounded per-tenant queues.
//!
//! ## Threading model
//!
//! * One reader thread per connection parses request lines and routes them
//!   into the addressed tenant's inbox. `hello` is handled inline (it only
//!   touches the registry); everything else is queued.
//! * A fixed pool of worker threads drains tenant inboxes. A tenant is
//!   *scheduled* (pushed onto the global ready list) when its inbox goes
//!   from empty to non-empty, and a worker owns the tenant until the inbox
//!   is empty again — so each tenant's requests are processed strictly in
//!   arrival order, one at a time, while distinct tenants run in parallel
//!   across the pool.
//! * Replies go through a per-connection [`LineSink`] over a buffered
//!   writer; reader threads write and flush `busy` and parse errors
//!   directly, workers write everything else and flush once per batch (see
//!   `worker_loop`).
//!
//! ## Backpressure
//!
//! Each tenant inbox holds at most [`ServerConfig::queue_cap`] requests.
//! A request arriving at a full inbox is answered immediately with a
//! `busy` error and dropped — the server never buffers without bound, and
//! a flooding client only ever hurts itself.
//!
//! ## Shutdown and disconnects
//!
//! Pure-std safe Rust cannot install signal handlers, so shutdown is
//! cooperative: when every connection has closed and every tenant session
//! is gone (all `bye`d or cleaned up after a disconnect), a server started
//! with [`ServerConfig::exit_when_idle`] stops accepting and returns a
//! [`ServeReport`] of all final accountings.
//!
//! What a disconnect-without-`bye` means depends on
//! [`ServerConfig::journal_dir`]. Without journaling, the session is
//! drained, validated, and accounted exactly like a `bye` — an abrupt
//! client cannot leave half-open state behind. With journaling, the
//! disconnect may be a transient network fault: the session is *detached*
//! (kept in memory, its journal on disk) and waits for a `resume`; a
//! detached tenant also keeps an `exit_when_idle` server alive. `resume`
//! for a tenant absent from memory falls back to journal replay, which is
//! how a restarted daemon recovers the sessions a crash orphaned.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, BufWriter, Read, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::Scope;
use std::time::{Duration, Instant};

use calib_core::json::Json;

use crate::admit::{Admission, AdmitConfig, RequestClock, Verdict};
use crate::conn::{self, LineSink};
use crate::journal::{self, FsyncPolicy, JournalRecord, JournalWriter};
use crate::metrics::{lock, ServeMetrics, TenantMetrics};
use crate::protocol::{
    Accounting, CheckpointState, Reply, Request, CODE_RATE_LIMITED, CODE_SHED, CODE_TENANT_MOVED,
};
use crate::session::{Algorithm, SessionError, SessionMetrics, TenantConfig, TenantSession};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining tenant inboxes.
    pub workers: usize,
    /// Per-tenant inbox capacity; the `busy` threshold.
    pub queue_cap: usize,
    /// Stop accepting and return once at least one connection has been
    /// served and no connections or tenants remain.
    pub exit_when_idle: bool,
    /// Directory for per-tenant JSON-lines engine traces (opt-in).
    pub trace_dir: Option<PathBuf>,
    /// Directory for per-tenant write-ahead journals. Enables crash
    /// recovery and switches disconnect handling from synthetic
    /// finalization to detach-and-await-`resume`.
    pub journal_dir: Option<PathBuf>,
    /// When journal appends reach the disk (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Read timeout applied to accepted TCP sockets; a connection that
    /// sends nothing for this long gets a typed `read-timeout` error and
    /// is disconnected. Ignored by [`serve_stream`] (no socket).
    pub read_timeout: Option<Duration>,
    /// Admission cap on concurrently open tenant sessions; `hello` beyond
    /// it is answered with `tenant-limit`.
    pub max_tenants: usize,
    /// Cadence of the periodic metrics-snapshot stream; `None` disables
    /// it. Snapshots only flow when [`ServerConfig::metrics_sink`] is also
    /// set.
    pub metrics_interval: Option<Duration>,
    /// Where periodic snapshots (and one final authoritative snapshot at
    /// shutdown) are written, one JSON line each.
    pub metrics_sink: Option<Arc<LineSink>>,
    /// Append a checkpoint record after this many journaled mutating
    /// records per tenant, bounding crash-replay to the tail since the
    /// last checkpoint. `None` disables cadence checkpoints.
    pub checkpoint_every: Option<u64>,
    /// Compact a tenant's journal down to `[checkpoint]` whenever a
    /// checkpoint opportunity finds the session idle (drained).
    pub compact_on_idle: bool,
    /// Where per-recovery report lines
    /// (`{"type":"recovered","tenant":…,"records":…,"tail_replayed":…,
    /// "from_checkpoint":…}`) are written — the recovery-smoke CI job
    /// parses these to assert replay stays tail-bounded.
    pub recovery_log: Option<Arc<LineSink>>,
    /// Weighted admission control and load shedding (`--max-inflight`,
    /// `--rate-per-k`, `--rate-burst`); all-off by default. See
    /// [`crate::admit`] for the decision model.
    pub admit: AdmitConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_cap: 64,
            exit_when_idle: true,
            trace_dir: None,
            journal_dir: None,
            fsync: FsyncPolicy::Tick,
            read_timeout: None,
            max_tenants: 1024,
            metrics_interval: None,
            metrics_sink: None,
            checkpoint_every: None,
            compact_on_idle: false,
            recovery_log: None,
            admit: AdmitConfig::default(),
        }
    }
}

/// What the server did, returned when it exits.
#[derive(Debug, Default)]
pub struct ServeReport {
    /// Final accounting of every tenant, in finalization order.
    pub accountings: Vec<Accounting>,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Requests answered with `busy`.
    pub busy_drops: u64,
    /// Sessions detached after a disconnect-without-`bye` (journaling on).
    pub detaches: u64,
    /// Successful `resume` reattachments (including recoveries).
    pub resumes: u64,
    /// Sessions rebuilt from an on-disk journal.
    pub recovered: u64,
    /// Trace-sink I/O errors surfaced when sessions finalized (a partial
    /// or lost `--trace-dir` file; the schedule itself is unaffected).
    pub trace_io_errors: u64,
    /// Requests rejected with `shed` (in-flight budget breach).
    pub sheds: u64,
    /// Requests rejected with `rate-limited` (token bucket empty).
    pub rate_limited: u64,
    /// Connections dropped after a shed — forced disconnects, distinct
    /// from voluntary `bye` closes.
    pub shed_disconnects: u64,
}

impl ServeReport {
    /// True when every tenant's schedule passed the feasibility checker.
    pub fn all_ok(&self) -> bool {
        self.accountings.iter().all(|a| a.checker_ok)
    }
}

struct Inbox {
    queue: VecDeque<(Request, Arc<LineSink>)>,
    /// A worker currently owns this tenant (it stays un-scheduled until
    /// the inbox empties).
    running: bool,
    high_water: usize,
}

struct Tenant {
    name: String,
    /// Connection currently attached to the tenant; `None` while detached
    /// after a disconnect (journaling mode), awaiting `resume`.
    conn: Mutex<Option<u64>>,
    inbox: Mutex<Inbox>,
    /// This tenant's entry in the daemon-wide registry (retained there
    /// even after the session closes).
    metrics: Arc<TenantMetrics>,
    /// `None` once finalized.
    session: Mutex<Option<TenantSession>>,
}

impl Tenant {
    /// `conn: None` registers the tenant detached — the `adopt` path, where
    /// the installing connection is a router's control channel and the
    /// tenant's own client attaches later with `resume`.
    fn new(
        name: &str,
        conn: Option<u64>,
        session: TenantSession,
        metrics: Arc<TenantMetrics>,
    ) -> Tenant {
        Tenant {
            name: name.to_string(),
            conn: Mutex::new(conn),
            inbox: Mutex::new(Inbox {
                queue: VecDeque::new(),
                running: false,
                high_water: 0,
            }),
            metrics,
            session: Mutex::new(Some(session)),
        }
    }
}

struct Shared {
    config: ServerConfig,
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
    ready: Mutex<VecDeque<Arc<Tenant>>>,
    ready_cv: Condvar,
    /// Wakes the periodic snapshot thread early on shutdown, so a long
    /// `--metrics-interval-ms` never delays server exit.
    metrics_wake: (Mutex<()>, Condvar),
    shutdown: AtomicBool,
    /// Tombstones for tenants evicted to another shard. A request for a
    /// tombstoned name answers `tenant-moved` instead of `unknown-tenant`,
    /// and — critically — the `resume` journal-recovery fallback is
    /// disabled for it: resurrecting an evicted tenant from a shared
    /// `--journal-dir` would fork its history (split brain). Cleared when
    /// the name is adopted back or reopened with a fresh `hello`.
    moved: Mutex<HashSet<String>>,
    accountings: Mutex<Vec<Accounting>>,
    /// The daemon-wide metrics registry — the single home for every
    /// server-lifetime counter (connections, requests, decisions, drops,
    /// journal latency, …). `ping`, `metrics`, the periodic snapshot
    /// stream, and the final [`ServeReport`] all read from here.
    metrics: Arc<ServeMetrics>,
    /// Weighted admission control: token buckets and the in-flight
    /// budget, refilled by the deterministic request-count clock. A no-op
    /// fast path when [`AdmitConfig::enabled`] is false.
    admission: Admission,
}

impl Shared {
    fn new(config: ServerConfig) -> Shared {
        let admission = Admission::new(config.admit, Arc::new(RequestClock::new()));
        Shared {
            config,
            tenants: Mutex::new(HashMap::new()),
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            metrics_wake: (Mutex::new(()), Condvar::new()),
            shutdown: AtomicBool::new(false),
            moved: Mutex::new(HashSet::new()),
            accountings: Mutex::new(Vec::new()),
            metrics: Arc::new(ServeMetrics::new()),
            admission,
        }
    }

    /// Opens (or reopens) session-scoped metrics for `name` and attaches
    /// the registry handles to `session`.
    fn attach_metrics(&self, name: &str, session: &mut TenantSession) -> Arc<TenantMetrics> {
        let tenant = self.metrics.tenant(name);
        tenant.open.store(true, Ordering::Relaxed);
        session.set_metrics(SessionMetrics {
            global: Arc::clone(&self.metrics),
            tenant: Arc::clone(&tenant),
        });
        tenant
    }

    /// The live tenant named `name`, if any.
    fn lookup(&self, name: &str) -> Option<Arc<Tenant>> {
        lock(&self.tenants).get(name).cloned()
    }

    /// Installs a tenant: the one registration path for `hello`, `adopt`
    /// and journal recovery. A name that is already live is answered by
    /// `on_live`, called after the map guard is dropped; a full registry
    /// is answered `tenant-limit`. Otherwise `open` builds the session
    /// and its journal under the map lock, so the entry never becomes
    /// visible before its journal exists (write-ahead), and racing
    /// installs for one name cannot truncate each other's files; an
    /// `open` error is answered with its code. `conn: None` installs the
    /// tenant detached. `Err` holds the reply, for the caller's `seq`,
    /// when the tenant is not installed.
    fn install(
        &self,
        name: &str,
        conn: Option<u64>,
        weight: u64,
        seq: Option<u64>,
        on_live: impl FnOnce(&Tenant) -> Reply,
        open: impl FnOnce() -> Result<TenantSession, SessionError>,
    ) -> Result<Arc<Tenant>, Box<Reply>> {
        // lint:allow(lock-discipline): registration is write-ahead
        let mut tenants = lock(&self.tenants);
        if let Some(live) = tenants.get(name).cloned() {
            drop(tenants);
            return Err(Box::new(on_live(&live)));
        }
        let refused = |code, message| Box::new(Reply::error(code, message, Some(name), seq));
        if tenants.len() >= self.config.max_tenants {
            let cap = self.config.max_tenants;
            let message =
                format!("server is at its tenant cap ({cap}); retry after sessions close");
            return Err(refused("tenant-limit", message));
        }
        let mut session = open().map_err(|e| refused(e.code, e.message))?;
        session.set_checkpoint_policy(self.config.checkpoint_every, self.config.compact_on_idle);
        let metrics = self.attach_metrics(name, &mut session);
        let tenant = Arc::new(Tenant::new(name, conn, session, metrics));
        tenants.insert(name.to_string(), Arc::clone(&tenant));
        drop(tenants);
        // An installed session supersedes any migration tombstone.
        lock(&self.moved).remove(name);
        // The fair-share weight lives only in the admission layer: it
        // shapes token refill and the shed order, never scheduling state,
        // so checkpoints and migrations stay byte-identical.
        self.admission.register(name, weight);
        Ok(tenant)
    }

    /// Removes a closed or evicted tenant from the registry and from
    /// admission control, and marks its metrics closed.
    fn unregister(&self, tenant: &Tenant) {
        lock(&self.tenants).remove(&tenant.name);
        self.admission.deregister(&tenant.name);
        tenant.metrics.open.store(false, Ordering::Relaxed);
    }

    /// True if `name` is tombstoned as migrated to another shard. The
    /// `moved` guard lives and dies inside this helper, so callers never
    /// hold it across replies or other locks.
    fn tenant_moved(&self, name: &str) -> bool {
        lock(&self.moved).contains(name)
    }

    /// The answer for a request addressed to a tenant that is not live:
    /// `tenant-moved` if it was evicted to another shard, otherwise
    /// `unknown-tenant` saying `why`.
    fn absent(&self, name: &str, seq: Option<u64>, why: String) -> Reply {
        if self.tenant_moved(name) {
            moved_reply(name, seq)
        } else {
            Reply::error("unknown-tenant", why, Some(name), seq)
        }
    }

    /// Pushes `tenant` onto the ready list if no worker owns it.
    fn schedule(&self, tenant: &Arc<Tenant>) {
        let should_push = {
            let mut inbox = lock(&tenant.inbox);
            if inbox.running || inbox.queue.is_empty() {
                false
            } else {
                inbox.running = true;
                true
            }
        };
        if should_push {
            lock(&self.ready).push_back(Arc::clone(tenant));
            self.ready_cv.notify_one();
        }
    }

    /// Queues one request for `tenant`, applying admission control and
    /// backpressure. Returns `false` when the server decided to drop the
    /// connection (a shed in journaling mode, where the session detaches
    /// safely and the client reconnects with `resume`).
    fn enqueue(&self, tenant: &Arc<Tenant>, req: Request, sink: &Arc<LineSink>) -> bool {
        // Admission gates only the work-bearing requests; control traffic
        // (resume/decisions/stats/bye) always passes so overloaded
        // tenants can still observe, drain, and leave.
        let gated = self.admission.config().enabled() && admission_gated(&req);
        let seq = req.seq();
        let cap = self.config.queue_cap.max(1);
        // The cap is checked first, and the inbox lock is held through the
        // verdict and the push, so a `busy` drop never spends a token or
        // an in-flight slot.
        let verdict = {
            let mut inbox = lock(&tenant.inbox);
            if inbox.queue.len() >= cap {
                None
            } else {
                let verdict = if gated {
                    self.admission.admit(&tenant.name)
                } else {
                    Verdict::Admit
                };
                if verdict == Verdict::Admit {
                    if gated {
                        self.metrics.record_admitted(&tenant.metrics);
                    }
                    inbox.queue.push_back((req, Arc::clone(sink)));
                    inbox.high_water = inbox.high_water.max(inbox.queue.len());
                    tenant
                        .metrics
                        .set_queue_depth(u64::try_from(inbox.queue.len()).unwrap_or(u64::MAX));
                }
                Some(verdict)
            }
        };
        match verdict {
            Some(Verdict::Admit) => self.schedule(tenant),
            Some(Verdict::RateLimited { retry_after_ms }) => {
                self.metrics.record_rate_limited(&tenant.metrics);
                sink.send(&Reply::error_retry_after(
                    CODE_RATE_LIMITED,
                    "token bucket empty; retry after the hinted delay",
                    Some(&tenant.name),
                    retry_after_ms,
                    seq,
                ));
            }
            Some(Verdict::Shed { retry_after_ms }) => {
                // Actually shedding load means dropping the connection,
                // which is only safe when the session can detach and await
                // `resume` (journaling on); otherwise the typed error alone
                // is the signal.
                let disconnect = self.config.journal_dir.is_some();
                self.metrics.record_shed(&tenant.metrics, disconnect);
                sink.send(&Reply::error_retry_after(
                    CODE_SHED,
                    "in-flight budget breached; reconnect after the hinted delay",
                    Some(&tenant.name),
                    retry_after_ms,
                    seq,
                ));
                return !disconnect;
            }
            None => {
                tenant.metrics.busy_drops.fetch_add(1, Ordering::Relaxed);
                self.metrics.busy_drops.fetch_add(1, Ordering::Relaxed);
                sink.send(&Reply::error(
                    "busy",
                    format!("tenant queue full ({cap} requests)"),
                    Some(&tenant.name),
                    seq,
                ));
            }
        }
        true
    }

    /// Force-queues a synthetic cleanup request, ignoring the cap (cleanup
    /// must not be droppable).
    fn enqueue_cleanup(&self, tenant: &Arc<Tenant>, req: Request) {
        {
            let mut inbox = lock(&tenant.inbox);
            inbox
                .queue
                .push_back((req, Arc::new(LineSink::new(Box::new(io::sink())))));
        }
        self.schedule(tenant);
    }
}

/// A journal file failure while installing a tenant.
fn journal_io(message: String) -> SessionError {
    SessionError {
        code: "journal-io",
        message,
    }
}

/// The redirect for a tenant evicted to another shard: the client
/// reconnects and resumes against the new owner.
fn moved_reply(tenant: &str, seq: Option<u64>) -> Reply {
    Reply::error(
        CODE_TENANT_MOVED,
        format!("tenant `{tenant}` was migrated to another shard"),
        Some(tenant),
        seq,
    )
}

/// The work-bearing mutations: admission control gates them (an admitted
/// one holds an in-flight slot until its worker finishes it), and each is
/// a checkpoint opportunity once applied.
fn admission_gated(req: &Request) -> bool {
    matches!(
        req,
        Request::Arrive { .. } | Request::Tick { .. } | Request::Drain { .. }
    )
}

/// Runs the protocol over one already-connected byte stream (the `--stdin`
/// transport and the unit tests use this directly). Returns when the input
/// reaches EOF; sessions opened on the stream are finalized (or, with
/// journaling on, left detached with their journals recoverable on disk).
pub fn serve_stream(
    input: impl Read,
    output: Box<dyn Write + Send>,
    config: ServerConfig,
) -> ServeReport {
    let shared = Shared::new(config);
    let ((), report) = run_server(&shared, |_| {
        let m = &shared.metrics;
        m.connections.fetch_add(1, Ordering::Relaxed);
        m.active_connections.fetch_add(1, Ordering::Relaxed);
        run_connection(&shared, 0, input, output);
        m.active_connections.fetch_sub(1, Ordering::Relaxed);
    });
    report
}

/// Serves TCP connections until idle (see the module docs for the shutdown
/// contract). The listener must already be bound; it is switched to
/// non-blocking so the accept loop can observe the idle condition.
pub fn serve(listener: TcpListener, config: ServerConfig) -> io::Result<ServeReport> {
    let shared = Shared::new(config);
    let (accepted, report) = run_server(&shared, |scope| {
        let shared = &shared;
        let idle = || shared.config.exit_when_idle && lock(&shared.tenants).is_empty();
        conn::accept_loop(
            scope,
            &listener,
            shared.config.read_timeout,
            &shared.metrics.connections,
            &shared.metrics.active_connections,
            idle,
            move |conn, stream, output| run_connection(shared, conn, stream, output),
        )
    });
    accepted.map(|()| report)
}

/// Starts the worker pool and the snapshot thread, runs `transport`, then
/// stops the workers whatever `transport` returned. Returns its result
/// and the report, written after one final snapshot.
fn run_server<'env, T>(
    shared: &'env Shared,
    transport: impl for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
) -> (T, ServeReport) {
    let out = std::thread::scope(|scope| {
        for _ in 0..shared.config.workers.max(1) {
            scope.spawn(|| worker_loop(shared));
        }
        spawn_metrics_thread(shared, scope);
        let out = transport(scope);
        drain_and_stop(shared);
        out
    });
    // Written after every worker has exited, so stream consumers always
    // end on totals that include every finalization.
    if let Some(sink) = shared.config.metrics_sink.as_ref() {
        sink.send_json(&shared.metrics.snapshot_json());
    }
    (out, report(shared))
}

/// Starts the periodic snapshot thread when both a cadence and a sink are
/// configured. The thread sleeps on a condvar that `drain_and_stop`
/// signals, so even a long interval never delays server exit.
fn spawn_metrics_thread<'scope, 'env>(shared: &'env Shared, scope: &'scope Scope<'scope, 'env>) {
    let (Some(interval), Some(sink)) = (
        shared.config.metrics_interval,
        shared.config.metrics_sink.clone(),
    ) else {
        return;
    };
    scope.spawn(move || {
        // metrics_wake is the flusher's own condvar mutex; only this thread
        // holds it, and snapshots are written between timed waits by design.
        // lint:allow(lock-discipline): flusher-private condvar mutex
        let mut guard = lock(&shared.metrics_wake.0);
        while !shared.shutdown.load(Ordering::SeqCst) {
            let (g, timed_out) = match shared.metrics_wake.1.wait_timeout(guard, interval) {
                Ok((g, r)) => (g, r.timed_out()),
                Err(poisoned) => {
                    let (g, r) = poisoned.into_inner();
                    (g, r.timed_out())
                }
            };
            guard = g;
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if timed_out {
                sink.send_json(&shared.metrics.snapshot_json());
            }
        }
    });
}

/// Signals workers to finish queued work and exit, then wakes them (and
/// the snapshot thread, which may be mid-interval).
fn drain_and_stop(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.ready_cv.notify_all();
    // Hold the wake mutex across the notify: the snapshot thread checks
    // the flag only while holding it, so this cannot race into a
    // full-interval sleep after shutdown.
    let _guard = lock(&shared.metrics_wake.0);
    shared.metrics_wake.1.notify_all();
}

fn report(shared: &Shared) -> ServeReport {
    let m = &shared.metrics;
    ServeReport {
        accountings: std::mem::take(&mut lock(&shared.accountings)),
        connections: m.connections.load(Ordering::Relaxed),
        busy_drops: m.busy_drops.load(Ordering::Relaxed),
        detaches: m.detaches.load(Ordering::Relaxed),
        resumes: m.resumes.load(Ordering::Relaxed),
        recovered: m.recovered.load(Ordering::Relaxed),
        trace_io_errors: m.trace_io_errors.load(Ordering::Relaxed),
        sheds: m.sheds.load(Ordering::Relaxed),
        rate_limited: m.rate_limited.load(Ordering::Relaxed),
        shed_disconnects: m.shed_disconnects.load(Ordering::Relaxed),
    }
}

/// Reads request lines from one connection until EOF, routing them.
fn run_connection(shared: &Shared, conn: u64, input: impl Read, output: Box<dyn Write + Send>) {
    let sink = Arc::new(LineSink::counted(output, &shared.metrics));
    conn::read_lines(input, &sink, |_: &str, parsed: Json| {
        let request = match Request::from_json(&parsed) {
            Ok(r) => r,
            Err((code, message)) => {
                sink.send(&Reply::error(code, message, None, None));
                return true;
            }
        };
        shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
        // Advance the admission clock: one virtual millisecond per parsed
        // request line, so token refill tracks offered load.
        shared.admission.observe();
        // `false` means the server shed this client; the typed reply is
        // already out.
        route(shared, conn, request, &sink)
    });
    cleanup_connection(shared, conn);
}

/// Routes one parsed request. Returns `false` when the connection should
/// be dropped (the server shed this client).
fn route(shared: &Shared, conn: u64, request: Request, sink: &Arc<LineSink>) -> bool {
    let reply = match request {
        // `ping` is answered inline by the reader, bypassing tenant queues —
        // the liveness probe must work even when every worker is busy.
        Request::Ping { seq } => Reply::Pong {
            connections: shared.metrics.connections.load(Ordering::Relaxed),
            active_connections: shared.metrics.active_connections.load(Ordering::Relaxed),
            tenants: u64::try_from(lock(&shared.tenants).len()).unwrap_or(u64::MAX),
            requests: shared.metrics.requests.load(Ordering::Relaxed),
            busy_drops: shared.metrics.busy_drops.load(Ordering::Relaxed),
            seq,
        },
        // `metrics` is likewise answered inline by the reader: a
        // full-registry snapshot is lock-light and must stay readable while
        // workers grind.
        Request::Metrics { seq } => Reply::Metrics {
            snapshot: shared.metrics.snapshot_json(),
            seq,
        },
        Request::Resume { .. } => match route_resume(shared, conn, request, sink) {
            Some(reply) => reply,
            None => return true,
        },
        // `hello` and `adopt` are handled inline: they only touch the
        // registry and must not race other registrations for the name.
        Request::Hello {
            tenant,
            machines,
            cal_len,
            cal_cost,
            algorithm,
            weight,
            seq,
        } => match Algorithm::from_name(&algorithm) {
            Some(algorithm) => {
                let config = TenantConfig {
                    machines,
                    cal_len,
                    cal_cost,
                    algorithm,
                };
                route_hello(shared, conn, &tenant, config, weight, seq)
            }
            None => Reply::error(
                "unknown-algorithm",
                format!("no algorithm named `{algorithm}`"),
                Some(&tenant),
                seq,
            ),
        },
        Request::Adopt { state, seq, .. } => route_adopt(shared, *state, seq),
        request => match shared.lookup(request.tenant()) {
            Some(t) => return shared.enqueue(&t, request, sink),
            None => shared.absent(
                request.tenant(),
                request.seq(),
                format!("no tenant named `{}`", request.tenant()),
            ),
        },
    };
    sink.send(&reply);
    true
}

/// Handles `hello`: installs a fresh session, journaled from its opening
/// record.
fn route_hello(
    shared: &Shared,
    conn: u64,
    tenant: &str,
    config: TenantConfig,
    weight: u64,
    seq: Option<u64>,
) -> Reply {
    let on_live = |live: &Tenant| {
        // A resent/duplicated hello is benign when the seq chain proves
        // this exact request was already applied; anything else is a
        // genuine name collision.
        let last = lock(&live.session)
            .as_ref()
            .and_then(TenantSession::last_seq);
        if seq.zip(last).is_some_and(|(s, last)| s <= last) {
            Reply::Ok {
                tenant: tenant.to_string(),
                seq,
            }
        } else {
            Reply::error(
                "duplicate-tenant",
                format!("tenant `{tenant}` already exists"),
                Some(tenant),
                seq,
            )
        }
    };
    let open = || {
        // Only a genuinely new tenant may touch its trace file — a
        // duplicate hello must not truncate the live tenant's trace.
        let mut session = TenantSession::new(tenant, config, open_trace(shared, tenant))?;
        if let Some(s) = seq {
            session.note_seq(s);
        }
        // Write-ahead: the hello record is durable before the tenant is
        // registered and acked.
        if let Some(dir) = shared.config.journal_dir.as_ref() {
            JournalWriter::create(dir, tenant, shared.config.fsync)
                .and_then(|w| session.start_journal(w))
                .map_err(|e| journal_io(format!("cannot open journal: {e}")))?;
        }
        Ok(session)
    };
    match shared.install(tenant, Some(conn), weight, seq, on_live, open) {
        Ok(_) => Reply::Ok {
            tenant: tenant.to_string(),
            seq,
        },
        Err(reply) => *reply,
    }
}

/// Handles `adopt`: installs a migrated tenant from the checkpoint another
/// shard's `evict` handed back. The session is restored from the
/// checkpoint instead of created fresh, and the tenant starts *detached*
/// (`conn = None`) so the tenant's own client, not the router's control
/// connection, attaches to it with `resume`. Its admission weight is 1:
/// the checkpoint does not carry the `hello` weight.
fn route_adopt(shared: &Shared, state: CheckpointState, seq: Option<u64>) -> Reply {
    let name = state.tenant.clone();
    let tenant = name.as_str();
    let cut = state.last_seq;
    let on_live = |live: &Tenant| {
        // A re-delivered adopt (router retry, or an A→B→A double hop
        // landing where the tenant already lives) is benign when the live
        // session is at or past the checkpoint's cut.
        match lock(&live.session).as_ref().map(TenantSession::last_seq) {
            Some(last_seq) if last_seq >= cut => Reply::Adopted {
                tenant: tenant.to_string(),
                last_seq,
                seq,
            },
            _ => Reply::error(
                "duplicate-tenant",
                format!("tenant `{tenant}` already exists and is behind the checkpoint"),
                Some(tenant),
                seq,
            ),
        }
    };
    let open = || {
        let mut session = TenantSession::restore_from_checkpoint(&state)?;
        // Re-seed the journal as `[checkpoint]` — exactly the shape
        // compaction writes — so a crash on this shard recovers from the
        // handoff cut. The create truncates any stale journal the name left
        // behind under a shared `--journal-dir` (the source shard closed
        // its handle at evict; the checkpoint being installed supersedes
        // that file's tail).
        if let Some(dir) = shared.config.journal_dir.as_ref() {
            let record = JournalRecord::Checkpoint(Box::new(state));
            let writer = JournalWriter::create(dir, tenant, shared.config.fsync)
                .and_then(|mut w| w.append(&record).map(|()| w))
                .map_err(|e| journal_io(format!("cannot re-seed journal: {e}")))?;
            session.resume_journal(writer);
        }
        Ok(session)
    };
    match shared.install(tenant, None, 1, seq, on_live, open) {
        Ok(_) => {
            shared.metrics.adoptions.fetch_add(1, Ordering::Relaxed);
            Reply::Adopted {
                tenant: name,
                last_seq: cut,
                seq,
            }
        }
        Err(reply) => *reply,
    }
}

/// Handles `resume`: reattach a live (possibly detached) tenant to this
/// connection, or fall back to journal recovery for a tenant a crash (or
/// idle-exit) removed from memory; a recovered tenant is installed at
/// admission weight 1. The `resumed` reply itself is produced by a worker
/// so it serializes after any still-queued requests; `None` means the
/// request was queued, otherwise the reply is the answer.
fn route_resume(
    shared: &Shared,
    conn: u64,
    request: Request,
    sink: &Arc<LineSink>,
) -> Option<Reply> {
    let name = request.tenant().to_string();
    let (tenant, seq) = (name.as_str(), request.seq());
    let attached = |t: &Arc<Tenant>, request: Request| {
        shared.metrics.resumes.fetch_add(1, Ordering::Relaxed);
        t.metrics.reconnects.fetch_add(1, Ordering::Relaxed);
        shared.enqueue(t, request, sink);
        None
    };
    if let Some(t) = shared.lookup(tenant) {
        let mut owner = lock(&t.conn);
        if owner.is_some_and(|c| c != conn) {
            // Transient: the previous connection's reader has not finished
            // cleanup yet. The client backs off and retries.
            return Some(Reply::error(
                "tenant-attached",
                format!("tenant `{tenant}` is still attached to another connection"),
                Some(tenant),
                seq,
            ));
        }
        *owner = Some(conn);
        drop(owner);
        return attached(&t, request);
    }

    // An evicted tenant must not be resurrected from a shared
    // `--journal-dir` — the adopting shard owns it now, and replaying the
    // superseded journal here would fork its history (split brain). The
    // client reconnects and the router routes its resume to the new owner.
    if shared.tenant_moved(tenant) {
        return Some(moved_reply(tenant, seq));
    }

    // Not in memory: recover from the journal, if journaling is on.
    let Some(dir) = shared.config.journal_dir.as_ref() else {
        return Some(Reply::error(
            "unknown-tenant",
            format!("no tenant named `{tenant}` and journaling is off"),
            Some(tenant),
            seq,
        ));
    };
    let (session, report) = match journal::recover_with_report(dir, tenant, shared.config.fsync) {
        Ok(Some(recovered)) => recovered,
        Ok(None) => {
            return Some(Reply::error(
                "unknown-tenant",
                format!("no tenant named `{tenant}` in memory or on disk"),
                Some(tenant),
                seq,
            ))
        }
        Err(e) => {
            return Some(Reply::error(
                "journal-io",
                format!("journal recovery failed: {e}"),
                Some(tenant),
                seq,
            ))
        }
    };
    let raced = |_: &Tenant| {
        // Lost a race with a concurrent resume; retryable.
        let message = format!("tenant `{tenant}` was concurrently resumed");
        Reply::error("tenant-attached", message, Some(tenant), seq)
    };
    let t = match shared.install(tenant, Some(conn), 1, seq, raced, || Ok(session)) {
        Ok(t) => t,
        Err(reply) => return Some(*reply),
    };
    if let Some(log) = shared.config.recovery_log.as_ref() {
        log.send_json(&Json::obj([
            ("type", Json::Str("recovered".to_string())),
            ("tenant", Json::Str(tenant.to_string())),
            (
                "records",
                Json::UInt(report.records.try_into().unwrap_or(0)),
            ),
            (
                "tail_replayed",
                Json::UInt(report.tail_replayed.try_into().unwrap_or(0)),
            ),
            ("from_checkpoint", Json::Bool(report.from_checkpoint)),
        ]));
    }
    shared.metrics.recovered.fetch_add(1, Ordering::Relaxed);
    attached(&t, request)
}

fn open_trace(shared: &Shared, tenant: &str) -> Option<BufWriter<std::fs::File>> {
    let dir = shared.config.trace_dir.as_ref()?;
    std::fs::create_dir_all(dir).ok()?;
    let file = std::fs::File::create(journal::trace_path(dir, tenant)).ok()?;
    Some(BufWriter::new(file))
}

/// Handles every tenant attached to the closing connection. Without
/// journaling, each is finalized as if it had sent `bye` — a disconnect
/// must not leak sessions or skip validation. With journaling, the
/// disconnect may be transient, so the tenant is detached instead and
/// waits (in memory, journal on disk) for a `resume`.
fn cleanup_connection(shared: &Shared, conn: u64) {
    let owned: Vec<Arc<Tenant>> = {
        let tenants = lock(&shared.tenants);
        tenants
            .values()
            .filter(|t| *lock(&t.conn) == Some(conn))
            .cloned()
            .collect()
    };
    for tenant in owned {
        if shared.config.journal_dir.is_some() {
            *lock(&tenant.conn) = None;
            shared.metrics.detaches.fetch_add(1, Ordering::Relaxed);
        } else {
            let name = tenant.name.clone();
            shared.enqueue_cleanup(
                &tenant,
                Request::Bye {
                    tenant: name,
                    seq: None,
                },
            );
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let tenant = {
            let mut ready = lock(&shared.ready);
            loop {
                if let Some(t) = ready.pop_front() {
                    break Some(t);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                ready = match shared.ready_cv.wait(ready) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        let Some(tenant) = tenant else { return };
        // The sink of the last processed request while its reply is still
        // unflushed. The batch is flushed when the inbox runs empty or the
        // next request answers on another connection, so no reply is held
        // once this worker lets go of the tenant.
        let mut unflushed: Option<Arc<LineSink>> = None;
        loop {
            let next = {
                let mut inbox = lock(&tenant.inbox);
                match inbox.queue.pop_front() {
                    Some(env) => {
                        tenant
                            .metrics
                            .set_queue_depth(u64::try_from(inbox.queue.len()).unwrap_or(u64::MAX));
                        Some(env)
                    }
                    None => {
                        inbox.running = false;
                        None
                    }
                }
            };
            if let Some(prev) = unflushed.take() {
                if !matches!(&next, Some((_, sink)) if Arc::ptr_eq(sink, &prev)) {
                    prev.flush();
                }
            }
            let Some((request, sink)) = next else { break };
            // An admitted work-bearing request holds its in-flight slot
            // until the worker finishes it, whatever the outcome.
            let gated = admission_gated(&request);
            process(shared, &tenant, request, &sink);
            if gated {
                shared.admission.complete(&tenant.name);
            }
            unflushed = Some(sink);
        }
    }
}

/// What the seq-chain check decided for one queued request.
enum SeqCheck {
    /// In order (or unsequenced): process normally.
    Proceed,
    /// At or below the high-water mark: already applied, answer benignly
    /// without re-executing mutations.
    Duplicate,
    /// Skips ahead: at least one earlier request was lost in transit.
    Gap {
        /// The lost-ahead request's seq.
        got: u64,
        /// The session's current high-water mark.
        last: u64,
    },
}

fn check_seq(request: &Request, session: &TenantSession) -> SeqCheck {
    // `resume` is the resynchronization point itself and sits outside the
    // chain; so do unsequenced requests (tests, hand-driven sessions) and
    // router-issued `evict`s (the router is not the tenant's client).
    if matches!(request, Request::Resume { .. } | Request::Evict { .. }) {
        return SeqCheck::Proceed;
    }
    match (request.seq(), session.last_seq()) {
        (Some(got), Some(last)) if got <= last => SeqCheck::Duplicate,
        (Some(got), Some(last)) if last.checked_add(1).is_none_or(|next| got > next) => {
            SeqCheck::Gap { got, last }
        }
        _ => SeqCheck::Proceed,
    }
}

/// The benign answer to an already-applied request: acknowledge without
/// re-executing mutations (re-running a tick/drain would consume decision
/// deltas the original reply already delivered). A duplicated `drain`
/// re-serves the full accounting — it is the reply a crash most plausibly
/// lost, and the client needs it.
fn duplicate_reply(request: &Request, session: &TenantSession, name: &str) -> Reply {
    let seq = request.seq();
    match request {
        Request::Tick { .. } | Request::Decisions { .. } => Reply::Decisions {
            tenant: name.to_string(),
            now: session.now(),
            calibrations: Vec::new(),
            starts: Vec::new(),
            idle: session.is_idle(),
            seq,
        },
        Request::Drain { .. } => Reply::Drained {
            accounting: session.accounting(),
            calibrations: Vec::new(),
            starts: Vec::new(),
            seq,
        },
        _ => Reply::Ok {
            tenant: name.to_string(),
            seq,
        },
    }
}

/// Handles one queued request against the tenant's session, timing it into
/// the daemon-wide request histogram.
fn process(shared: &Shared, tenant: &Arc<Tenant>, request: Request, sink: &Arc<LineSink>) {
    let started = Instant::now();
    tenant.metrics.requests.fetch_add(1, Ordering::Relaxed);
    process_inner(shared, tenant, request, sink);
    let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    shared.metrics.request_micros.record(micros);
}

fn process_inner(shared: &Shared, tenant: &Arc<Tenant>, request: Request, sink: &Arc<LineSink>) {
    let seq = request.seq();
    // Write-ahead logging — the journal append must land before the
    // in-memory session state mutates, and both must be atomic with
    // respect to other requests on this tenant.
    // lint:allow(lock-discipline): session mutation is write-ahead
    let mut session_slot = lock(&tenant.session);
    let Some(session) = session_slot.as_mut() else {
        // Closed while this request sat in the queue (bye, disconnect
        // cleanup, or an evict ahead of it in the inbox won the race). A
        // migrated-away tenant answers with its redirect code so the
        // client reconnects and resumes against the new owner.
        drop(session_slot);
        let why = format!("tenant `{}` is closed", tenant.name);
        sink.write(&shared.absent(&tenant.name, seq, why));
        return;
    };
    let name = tenant.name.clone();
    match check_seq(&request, session) {
        SeqCheck::Proceed => {}
        // `stats` is a pure read; serving it fresh is harmless and more
        // useful than a synthesized echo.
        SeqCheck::Duplicate if !matches!(request, Request::Stats { .. }) => {
            let reply = duplicate_reply(&request, session, &name);
            drop(session_slot);
            sink.write(&reply);
            return;
        }
        SeqCheck::Duplicate => {}
        SeqCheck::Gap { got, last } => {
            drop(session_slot);
            sink.write(&Reply::error(
                "seq-gap",
                format!(
                    "request seq {got} skips ahead of the session's last seq {last}; \
                     a request line was lost — resend from seq {}",
                    last.saturating_add(1)
                ),
                Some(&tenant.name),
                seq,
            ));
            return;
        }
    }
    let is_resume = matches!(request, Request::Resume { .. });
    let mutating = admission_gated(&request);
    let reply = match request {
        Request::Hello { .. } => Reply::error(
            "duplicate-tenant",
            "hello on an open session",
            Some(&name),
            seq,
        ),
        Request::Ping { .. } => {
            // Unreachable: pings are answered inline by the reader.
            Reply::error("bad-message", "ping is never queued", None, seq)
        }
        Request::Metrics { .. } => {
            // Unreachable: metrics requests are answered inline by the reader.
            Reply::error("bad-message", "metrics is never queued", None, seq)
        }
        Request::Adopt { .. } => {
            // Unreachable: adopt is handled inline like hello.
            Reply::error("bad-message", "adopt is never queued", None, seq)
        }
        Request::Resume { .. } => Reply::Resumed {
            tenant: name,
            last_seq: session.last_seq(),
            now: session.now(),
            idle: session.is_idle(),
            seq,
        },
        Request::Arrive { jobs, .. } => match session.arrive(&jobs, seq) {
            Ok(()) => Reply::Ok { tenant: name, seq },
            Err(e) => Reply::error(e.code, e.message, Some(&tenant.name), seq),
        },
        Request::Tick { now, .. } => match session.tick(now, seq) {
            Ok(delta) => {
                let n = delta.calibrations.len().saturating_add(delta.starts.len());
                shared
                    .metrics
                    .record_decisions(&tenant.metrics, u64::try_from(n).unwrap_or(u64::MAX));
                Reply::Decisions {
                    tenant: name,
                    now: Some(now),
                    calibrations: delta.calibrations,
                    starts: delta.starts,
                    idle: session.is_idle(),
                    seq,
                }
            }
            Err(e) => Reply::error(e.code, e.message, Some(&tenant.name), seq),
        },
        Request::Decisions { .. } => {
            let delta = session.decisions();
            let n = delta.calibrations.len().saturating_add(delta.starts.len());
            shared
                .metrics
                .record_decisions(&tenant.metrics, u64::try_from(n).unwrap_or(u64::MAX));
            Reply::Decisions {
                tenant: name,
                now: session.now(),
                calibrations: delta.calibrations,
                starts: delta.starts,
                idle: session.is_idle(),
                seq,
            }
        }
        Request::Stats { .. } => {
            let (queue_depth, queue_high_water) = {
                let inbox = lock(&tenant.inbox);
                (inbox.queue.len(), inbox.high_water)
            };
            Reply::Stats {
                tenant: name,
                counters: session.counters().snapshot(),
                queue_depth,
                queue_high_water,
                busy_drops: tenant.metrics.busy_drops.load(Ordering::Relaxed),
                seq,
            }
        }
        Request::Drain { .. } => match session.drain(seq) {
            Ok(delta) => {
                let n = delta.calibrations.len().saturating_add(delta.starts.len());
                shared
                    .metrics
                    .record_decisions(&tenant.metrics, u64::try_from(n).unwrap_or(u64::MAX));
                let accounting = session.accounting();
                tenant.metrics.set_totals(accounting.flow, accounting.cost);
                Reply::Drained {
                    accounting,
                    calibrations: delta.calibrations,
                    starts: delta.starts,
                    seq,
                }
            }
            Err(e) => Reply::error(e.code, e.message, Some(&tenant.name), seq),
        },
        Request::Evict { .. } => {
            let Some(mut s) = session_slot.take() else {
                return;
            };
            // The inbox is FIFO and the worker owns the tenant, so every
            // request queued before the evict has been applied: this
            // checkpoint is the exact cut the destination must adopt.
            let state = s.checkpoint_state();
            // Detach (not delete) the journal: under a shared
            // `--journal-dir` its tail is the recovery fallback if the
            // destination never installs the checkpoint.
            s.detach_journal();
            drop(s);
            drop(session_slot);
            // Tombstone first, then unregister — there must be no window
            // in which the name is neither live nor tombstoned, or a
            // racing `resume` could resurrect it from the shared journal.
            lock(&shared.moved).insert(tenant.name.clone());
            shared.unregister(tenant);
            shared.metrics.evictions.fetch_add(1, Ordering::Relaxed);
            sink.write(&Reply::Evicted {
                state: Box::new(state),
                seq,
            });
            return;
        }
        Request::Bye { .. } => {
            let session = session_slot.take();
            drop(session_slot);
            shared.unregister(tenant);
            let Some(session) = session else { return };
            let (accounting, trace_io) = session.finalize();
            if trace_io.is_err() {
                shared
                    .metrics
                    .trace_io_errors
                    .fetch_add(1, Ordering::Relaxed);
            }
            tenant.metrics.set_totals(accounting.flow, accounting.cost);
            lock(&shared.accountings).push(accounting.clone());
            sink.write(&Reply::Goodbye { accounting, seq });
            return;
        }
    };
    // Advance the seq chain for every definitively-answered request —
    // including typed rejections, which re-reject deterministically if the
    // client ever resends them. `resume` stays outside the chain.
    if !is_resume {
        if let (Some(s), Some(session)) = (seq, session_slot.as_mut()) {
            session.note_seq(s);
        }
    }
    // Checkpoint opportunity: after a mutating request is applied and its
    // seq noted, the session is at a journal-consistent point. Policy
    // decides whether anything is actually written.
    if mutating {
        if let Some(session) = session_slot.as_mut() {
            session.maybe_checkpoint();
        }
    }
    drop(session_slot);
    sink.write(&reply);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MAX_LINE_BYTES;

    /// Drives `serve_stream` with a scripted input and captures the output.
    fn transcript(lines: &[&str]) -> Vec<Json> {
        transcript_bytes((lines.join("\n") + "\n").as_bytes())
    }

    /// [`transcript`] over raw input bytes.
    fn transcript_bytes(input: &[u8]) -> Vec<Json> {
        let out = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                lock(&self.0).extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let report = serve_stream(
            input,
            Box::new(SharedBuf(Arc::clone(&out))),
            ServerConfig {
                workers: 2,
                ..Default::default()
            },
        );
        assert!(report.all_ok(), "accountings: {:?}", report.accountings);
        let bytes = lock(&out).clone();
        String::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect()
    }

    #[test]
    fn hello_arrive_tick_bye_happy_path() {
        let replies = transcript(&[
            r#"{"type":"hello","tenant":"a","machines":1,"cal_len":4,"cal_cost":6,"algorithm":"alg1","seq":0}"#,
            r#"{"type":"arrive","tenant":"a","jobs":[{"id":0,"release":0,"weight":1}],"seq":1}"#,
            r#"{"type":"tick","tenant":"a","now":50,"seq":2}"#,
            r#"{"type":"bye","tenant":"a","seq":3}"#,
        ]);
        let types: Vec<&str> = replies
            .iter()
            .map(|r| r.get("type").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(types, vec!["ok", "ok", "decisions", "goodbye"]);
        // Replies echo seq in order.
        for (i, r) in replies.iter().enumerate() {
            assert_eq!(
                r.get("seq").unwrap().as_u64(),
                Some(u64::try_from(i).unwrap())
            );
        }
        let goodbye = &replies[3];
        assert_eq!(goodbye.get("checker_ok").unwrap(), &Json::Bool(true));
        assert_eq!(goodbye.get("jobs").unwrap().as_u64(), Some(1));
        assert_eq!(goodbye.get("scheduled").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn protocol_faults_do_not_poison_other_tenants() {
        let replies = transcript(&[
            r#"{"type":"hello","tenant":"good","machines":1,"cal_len":3,"cal_cost":2,"algorithm":"alg1"}"#,
            r#"{"type":"hello","tenant":"bad","machines":1,"cal_len":3,"cal_cost":2,"algorithm":"alg1"}"#,
            r#"this is not json"#,
            r#"{"type":"hello","tenant":"bad","machines":1,"cal_len":3,"cal_cost":2,"algorithm":"alg1"}"#,
            r#"{"type":"hello","tenant":"ugly","machines":1,"cal_len":3,"cal_cost":2,"algorithm":"alg7"}"#,
            r#"{"type":"tick","tenant":"ghost","now":3}"#,
            r#"{"type":"arrive","tenant":"bad","jobs":[{"id":0,"release":1,"weight":1},{"id":0,"release":2,"weight":1}]}"#,
            r#"{"type":"arrive","tenant":"good","jobs":[{"id":0,"release":1,"weight":1}]}"#,
            r#"{"type":"bye","tenant":"bad"}"#,
            r#"{"type":"bye","tenant":"good"}"#,
        ]);
        // Two workers may interleave replies across tenants, so assert by
        // content, not position.
        let count = |key: &str, value: &str| {
            replies
                .iter()
                .filter(|r| r.get(key).and_then(Json::as_str) == Some(value))
                .count()
        };
        assert_eq!(count("type", "ok"), 3, "2 hellos + 1 good arrive");
        for code in [
            "bad-json",
            "duplicate-tenant",
            "unknown-algorithm",
            "unknown-tenant",
            "duplicate-job",
        ] {
            assert_eq!(count("code", code), 1, "expected one `{code}`: {replies:?}");
        }
        // Both surviving tenants close cleanly and validate.
        let goodbyes: Vec<&Json> = replies
            .iter()
            .filter(|r| r.get("type").and_then(Json::as_str) == Some("goodbye"))
            .collect();
        assert_eq!(goodbyes.len(), 2);
        for g in goodbyes {
            assert_eq!(g.get("checker_ok").unwrap(), &Json::Bool(true));
        }
    }

    #[test]
    fn disconnect_without_bye_finalizes_sessions() {
        // No bye: EOF after arrive. The report must still carry a checked
        // accounting for the tenant.
        let input = [
            r#"{"type":"hello","tenant":"drop","machines":1,"cal_len":3,"cal_cost":1,"algorithm":"alg1"}"#,
            r#"{"type":"arrive","tenant":"drop","jobs":[{"id":0,"release":0,"weight":1},{"id":1,"release":1,"weight":1}]}"#,
        ]
        .join("\n")
            + "\n";
        let report = serve_stream(
            input.as_bytes(),
            Box::new(io::sink()),
            ServerConfig::default(),
        );
        assert_eq!(report.accountings.len(), 1);
        let acc = &report.accountings[0];
        assert_eq!(acc.tenant, "drop");
        assert_eq!(acc.scheduled, 2);
        assert!(acc.checker_ok, "violations: {:?}", acc.violations);
    }

    #[test]
    fn oversized_lines_are_rejected_not_buffered() {
        let huge = format!(
            r#"{{"type":"hello","tenant":"{}","machines":1,"cal_len":3,"cal_cost":1,"algorithm":"alg1"}}"#,
            "x".repeat(MAX_LINE_BYTES)
        );
        let input = format!(
            "{huge}\n{}\n{}\n",
            r#"{"type":"hello","tenant":"a","machines":1,"cal_len":3,"cal_cost":1,"algorithm":"alg1"}"#,
            r#"{"type":"bye","tenant":"a"}"#
        );
        let out = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                lock(&self.0).extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        serve_stream(
            input.as_bytes(),
            Box::new(SharedBuf(Arc::clone(&out))),
            ServerConfig::default(),
        );
        let bytes = lock(&out).clone();
        let text = String::from_utf8(bytes).unwrap();
        let replies: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(
            replies[0].get("code").and_then(Json::as_str),
            Some("line-too-long")
        );
        // The stream recovers: the next request succeeds.
        assert_eq!(replies[1].get("type").and_then(Json::as_str), Some("ok"));
        assert_eq!(
            replies[2].get("type").and_then(Json::as_str),
            Some("goodbye")
        );
    }

    #[test]
    fn deep_nesting_is_bad_json_and_the_stream_keeps_serving() {
        let deep = "[".repeat(500_000);
        let replies = transcript(&[&deep, r#"{"type":"ping","seq":1}"#]);
        assert_eq!(replies.len(), 2, "{replies:?}");
        assert_eq!(
            replies[0].get("code").and_then(Json::as_str),
            Some("bad-json")
        );
        assert_eq!(replies[1].get("type").and_then(Json::as_str), Some("pong"));
    }

    #[test]
    fn non_utf8_line_is_bad_json_and_the_stream_keeps_serving() {
        let replies = transcript_bytes(b"\xff\xfe\n{\"type\":\"ping\",\"seq\":1}\n");
        assert_eq!(replies.len(), 2, "{replies:?}");
        assert_eq!(
            replies[0].get("code").and_then(Json::as_str),
            Some("bad-json")
        );
        assert_eq!(
            replies[0].get("message").and_then(Json::as_str),
            Some("request line is not valid UTF-8")
        );
        assert_eq!(replies[1].get("type").and_then(Json::as_str), Some("pong"));
    }

    #[test]
    fn client_input_echoed_in_errors_is_clipped() {
        let digits = "9".repeat(500_000);
        let huge_seq = format!(r#"{{"type":"ping","seq":{digits}}}"#);
        let huge_type = format!(r#"{{"type":"{digits}","tenant":"a"}}"#);
        let replies = transcript(&[&huge_seq, &huge_type, r#"{"type":"ping","seq":1}"#]);
        assert_eq!(replies.len(), 3, "{replies:?}");
        for (reply, code) in replies.iter().zip(["bad-json", "bad-message"]) {
            assert_eq!(reply.get("code").and_then(Json::as_str), Some(code));
            // Replies are canonical, so the re-rendered length is the
            // wire length.
            let len = reply.to_string_compact().len();
            assert!(len < 256, "{len}-byte {code} reply");
        }
        assert_eq!(replies[2].get("type").and_then(Json::as_str), Some("pong"));
    }

    #[test]
    fn busy_drop_leaves_admission_state_alone() {
        // No workers run, so the first tick stays queued and fills the
        // one-slot inbox; the second is dropped `busy`.
        let shared = Shared::new(ServerConfig {
            queue_cap: 1,
            admit: AdmitConfig {
                rate_per_k: Some(1),
                ..AdmitConfig::default()
            },
            ..ServerConfig::default()
        });
        let config = TenantConfig {
            machines: 1,
            cal_len: 3,
            cal_cost: 1,
            algorithm: Algorithm::Alg1,
        };
        let session = TenantSession::new("a", config, None).unwrap();
        let tenant = Arc::new(Tenant::new(
            "a",
            Some(0),
            session,
            shared.metrics.tenant("a"),
        ));
        let sink = Arc::new(LineSink::new(Box::new(io::sink())));
        for now in [1, 2] {
            let tick = Request::Tick {
                tenant: "a".to_string(),
                now,
                seq: None,
            };
            assert!(shared.enqueue(&tenant, tick, &sink));
        }
        assert_eq!(shared.metrics.busy_drops.load(Ordering::Relaxed), 1);
        assert_eq!(shared.metrics.admitted.load(Ordering::Relaxed), 1);
        assert_eq!(shared.admission.total_inflight(), 1);
    }

    /// What a scripted peer has seen of the reply stream.
    #[derive(Default)]
    struct Peer {
        written: Vec<u8>,
        /// Reply lines the peer has received (written before a flush).
        flushed_lines: usize,
        flushes: usize,
        /// The server has read the whole script (its next read saw EOF).
        input_done: bool,
        /// A lock-step line waited out its timeout for the previous reply.
        stalled: bool,
    }

    type PeerState = Arc<(Mutex<Peer>, Condvar)>;

    const PEER_TIMEOUT: Duration = Duration::from_secs(10);

    /// The reply half of a scripted peer. With `slow_drain`, every flush
    /// after the first waits until the server has read the whole script,
    /// so the requests behind it are queued by the time the worker resumes.
    struct PeerWriter {
        state: PeerState,
        slow_drain: bool,
    }

    impl Write for PeerWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            lock(&self.state.0).written.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            let (m, cv) = &*self.state;
            let mut peer = lock(m);
            if self.slow_drain && peer.flushes > 0 {
                peer = cv
                    .wait_timeout_while(peer, PEER_TIMEOUT, |p| !p.input_done)
                    .expect("peer lock")
                    .0;
            }
            peer.flushes += 1;
            peer.flushed_lines = peer.written.iter().filter(|&&b| b == b'\n').count();
            cv.notify_all();
            Ok(())
        }
    }

    /// The request half of a scripted peer: each chunk is handed over in
    /// one read. With `lock_step`, chunk k (one line) is handed over only
    /// once k replies have been flushed.
    struct PeerReader {
        state: PeerState,
        chunks: Vec<String>,
        next: usize,
        lock_step: bool,
    }

    impl Read for PeerReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let (m, cv) = &*self.state;
            let mut peer = lock(m);
            if self.lock_step {
                let want = self.next;
                let (p, waited) = cv
                    .wait_timeout_while(peer, PEER_TIMEOUT, |p| p.flushed_lines < want)
                    .expect("peer lock");
                peer = p;
                if waited.timed_out() {
                    peer.stalled = true;
                    return Ok(0);
                }
            }
            let Some(chunk) = self.chunks.get(self.next) else {
                peer.input_done = true;
                cv.notify_all();
                return Ok(0);
            };
            assert!(
                chunk.len() <= buf.len(),
                "chunk larger than the read buffer"
            );
            buf[..chunk.len()].copy_from_slice(chunk.as_bytes());
            self.next += 1;
            Ok(chunk.len())
        }
    }

    /// One tenant's session: every line gets exactly one reply, and no
    /// reply depends on timing.
    fn scripted_session() -> Vec<String> {
        let mut lines = vec![
            r#"{"type":"hello","tenant":"p","machines":1,"cal_len":3,"cal_cost":2,"algorithm":"alg2","seq":0}"#
                .to_string(),
        ];
        let mut seq = 1;
        for t in 0..6u64 {
            lines.push(format!(
                r#"{{"type":"arrive","tenant":"p","jobs":[{{"id":{t},"release":{},"weight":{}}}],"seq":{seq}}}"#,
                2 * t,
                1 + t % 3
            ));
            lines.push(format!(
                r#"{{"type":"tick","tenant":"p","now":{},"seq":{}}}"#,
                2 * t + 1,
                seq + 1
            ));
            seq += 2;
        }
        lines.push(format!(r#"{{"type":"drain","tenant":"p","seq":{seq}}}"#));
        lines.push(format!(
            r#"{{"type":"bye","tenant":"p","seq":{}}}"#,
            seq + 1
        ));
        lines.into_iter().map(|l| l + "\n").collect()
    }

    /// Serves `lines` to a lock-step peer (one line per read, each after
    /// the previous reply), or to a pipelining peer that sends every line
    /// in one read and drains its replies slowly.
    fn run_peer(lines: &[String], lock_step: bool) -> Peer {
        let state: PeerState = Arc::default();
        let reader = PeerReader {
            state: Arc::clone(&state),
            chunks: if lock_step {
                lines.to_vec()
            } else {
                vec![lines.concat()]
            },
            next: 0,
            lock_step,
        };
        let writer = PeerWriter {
            state: Arc::clone(&state),
            slow_drain: !lock_step,
        };
        let report = serve_stream(
            reader,
            Box::new(writer),
            ServerConfig {
                workers: 2,
                ..Default::default()
            },
        );
        assert!(report.all_ok(), "accountings: {:?}", report.accountings);
        let peer = std::mem::take(&mut *lock(&state.0));
        peer
    }

    #[test]
    fn lock_step_peer_gets_each_reply_before_its_next_line() {
        let lines = scripted_session();
        let peer = run_peer(&lines, true);
        assert!(!peer.stalled, "a reply was held after its worker went idle");
        assert_eq!(peer.flushed_lines, lines.len());
        assert_eq!(peer.flushes, lines.len(), "one flush per lock-step reply");
    }

    #[test]
    fn pipelined_requests_share_flushes_and_keep_the_bytes() {
        let lines = scripted_session();
        let lock_step = run_peer(&lines, true);
        let pipelined = run_peer(&lines, false);
        assert_eq!(
            String::from_utf8(pipelined.written).unwrap(),
            String::from_utf8(lock_step.written).unwrap()
        );
        assert_eq!(pipelined.flushed_lines, lines.len());
        assert!(
            pipelined.flushes < lines.len(),
            "{} flushes for {} replies",
            pipelined.flushes,
            lines.len()
        );
    }
}
