//! The router proper: client connection handling, per-shard backend
//! multiplexing, and the live-migration control plane.
//!
//! ## Threading model
//!
//! * One reader thread per client connection parses request lines.
//!   Tenant-addressed requests are forwarded verbatim to the owning
//!   shard over a lazily-opened per-connection backend connection, so a
//!   tenant's requests reach its shard in arrival order with their `seq`
//!   chain intact.
//! * Each backend connection gets a relay thread pumping the shard's
//!   reply lines back into the client's shared writer verbatim. Relay
//!   connections carry no read timeout — an idle shard is healthy — but
//!   a relay that sees EOF emits one unsequenced `shard-unreachable`
//!   error to the client, whose reconnect machinery takes over.
//! * `ping` and `metrics` are answered by the router itself (`metrics`
//!   by aggregating fresh, read-timeout-bounded control connections to
//!   every shard). `migrate` runs the eviction/adoption handoff inline
//!   on the requesting connection's reader thread.
//!
//! ## Migration
//!
//! `{"type":"migrate","tenant":T,"to":N}` marks `T` as migrating (new
//! requests for it are answered `busy`, which clients absorb), asks the
//! source shard to `evict` it — the eviction drains `T`'s queued window
//! first, so the checkpoint is a clean cut — then hands the checkpoint
//! to shard `N` via `adopt` and flips the placement map. If the source
//! cannot answer (crashed mid-handoff), the router falls back to a
//! `resume` on the destination, which rebuilds the tenant from the
//! shared journal directory; the reply then carries `"fallback":true`.
//!
//! With [`RouterConfig::journal_dir`] set, every completed migration also
//! rewrites the placement table as a line-JSON file in that directory
//! (atomically: temp file + rename), and a restarting router reloads it —
//! so a restart no longer forgets migrations and re-derives stale ring
//! homes for moved tenants.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use calib_core::json::{Json, ToJson};
use calib_serve::conn::{self, LineHandler, LineSink};
use calib_serve::protocol::{Reply, Request, CODE_SHARD_UNREACHABLE};
use calib_serve::retry::Backoff;

use crate::metrics::RouterMetrics;
use crate::ring::Ring;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Backend shard addresses (`host:port` of running `calib-serve`
    /// daemons). Shard indices — ring ownership, `migrate` targets —
    /// refer to positions in this list.
    pub shards: Vec<String>,
    /// Placement-ring seed; every router fronting the same fleet must
    /// use the same seed (and shard order) to derive the same map.
    pub seed: u64,
    /// Virtual nodes per shard on the placement ring.
    pub vnodes: usize,
    /// Stop accepting and return once at least one client connection has
    /// been served and none remain.
    pub exit_when_idle: bool,
    /// Read timeout applied to accepted client sockets; mirrors the
    /// daemon's `--read-timeout-ms` contract.
    pub read_timeout: Option<Duration>,
    /// Read timeout on control-plane backend connections (evict, adopt,
    /// metrics aggregation, fallback resume) — a hung shard must surface
    /// as a typed failure, not a silent stall.
    pub control_timeout: Duration,
    /// Connect attempts per backend before reporting `shard-unreachable`.
    pub connect_attempts: u32,
    /// Base delay of the seeded backend-connect backoff, milliseconds.
    pub backoff_base_ms: u64,
    /// Cap of the backend-connect backoff, milliseconds.
    pub backoff_cap_ms: u64,
    /// Where `{"type":"placed",…}` placement lines are written.
    pub placement_log: Option<Arc<LineSink>>,
    /// The fleet's shared journal directory. When set, the placement
    /// table is persisted here (`router-placements.jsonl`, line-JSON) on
    /// every completed migration and reloaded at router start.
    pub journal_dir: Option<PathBuf>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: Vec::new(),
            seed: 7,
            vnodes: 64,
            exit_when_idle: true,
            read_timeout: None,
            control_timeout: Duration::from_millis(10_000),
            connect_attempts: 8,
            backoff_base_ms: 5,
            backoff_cap_ms: 500,
            placement_log: None,
            journal_dir: None,
        }
    }
}

/// What the router did, returned when it exits.
#[derive(Debug, Default)]
pub struct RouterReport {
    /// Client connections accepted.
    pub connections: u64,
    /// Request lines parsed from clients.
    pub requests: u64,
    /// Request lines forwarded to shards.
    pub forwarded_requests: u64,
    /// Tenants placed (distinct names routed).
    pub placements: u64,
    /// Migrations completed (handoff or fallback).
    pub migrations: u64,
    /// Migrations that failed outright.
    pub migration_failures: u64,
    /// Requests answered `busy` mid-migration.
    pub busy_rejects: u64,
    /// `shard-unreachable` events (connect/write failures, dead relays).
    pub shard_unreachable: u64,
}

struct Shared {
    config: RouterConfig,
    ring: Ring,
    /// Authoritative tenant→shard map: seeded from the ring on first
    /// sight of a tenant, flipped by `migrate`.
    placements: Mutex<HashMap<String, usize>>,
    /// Tenants with a migration in flight; their requests bounce with
    /// `busy` until the handoff settles.
    migrating: Mutex<HashSet<String>>,
    /// Serializes placement-table writes to `journal_dir`. Lock order:
    /// `persist` before `placements`, never the reverse.
    persist: Mutex<()>,
    metrics: Arc<RouterMetrics>,
}

/// One lazily-opened backend connection of a client connection.
struct Backend {
    /// Write half plus the shutdown handle the reader uses to reap the
    /// relay thread when the client disconnects.
    stream: TcpStream,
    /// Cleared by the relay thread when the shard side dies.
    alive: Arc<AtomicBool>,
}

/// Serves client connections until idle (with
/// [`RouterConfig::exit_when_idle`]): every client served and none left.
/// Connections are accepted by the daemon's accept loop,
/// [`calib_serve::conn::accept_loop`].
pub fn run_router(listener: TcpListener, config: RouterConfig) -> io::Result<RouterReport> {
    if config.shards.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a router needs at least one --shard",
        ));
    }
    let ring = Ring::new(config.shards.len(), config.vnodes, config.seed);
    // A persisted placement table survives router restarts: without it a
    // restart would re-derive ring homes and silently undo migrations.
    let placements = load_placements(&config);
    let restored = u64::try_from(placements.len()).unwrap_or(u64::MAX);
    let shared = Shared {
        ring,
        placements: Mutex::new(placements),
        migrating: Mutex::new(HashSet::new()),
        persist: Mutex::new(()),
        metrics: Arc::new(RouterMetrics::new()),
        config,
    };
    shared
        .metrics
        .placements
        .fetch_add(restored, Ordering::Relaxed);
    std::thread::scope(|scope| {
        let shared = &shared;
        conn::accept_loop(
            scope,
            &listener,
            shared.config.read_timeout,
            &shared.metrics.connections,
            &shared.metrics.active_connections,
            || shared.config.exit_when_idle,
            move |_, stream, output| handle_connection(shared, stream, output),
        )
    })?;
    let m = &shared.metrics;
    Ok(RouterReport {
        connections: m.connections.load(Ordering::Relaxed),
        requests: m.requests.load(Ordering::Relaxed),
        forwarded_requests: m.forwarded_requests.load(Ordering::Relaxed),
        placements: m.placements.load(Ordering::Relaxed),
        migrations: m.migrations.load(Ordering::Relaxed),
        migration_failures: m.migration_failures.load(Ordering::Relaxed),
        busy_rejects: m.busy_rejects.load(Ordering::Relaxed),
        shard_unreachable: m.shard_unreachable.load(Ordering::Relaxed),
    })
}

/// Reads request lines from one client connection until EOF, forwarding
/// or answering them.
fn handle_connection(shared: &Shared, stream: TcpStream, output: Box<dyn Write + Send>) {
    let sink = Arc::new(LineSink::new(output));
    let client = Client {
        shared,
        sink: Arc::clone(&sink),
        closing: Arc::new(AtomicBool::new(false)),
        backends: HashMap::new(),
        pending: vec![Pending::default(); shared.config.shards.len()],
    };
    conn::read_lines(stream, &sink, client);
}

/// The tenant's shard: its placement if it has one, else its ring owner
/// (recorded, and logged as a `placed` line, on first sight).
fn place(shared: &Shared, tenant: &str) -> usize {
    let mut placements = lock(&shared.placements);
    if let Some(&shard) = placements.get(tenant) {
        return shard;
    }
    let shard = shared.ring.owner(tenant);
    placements.insert(tenant.to_string(), shard);
    drop(placements);
    shared.metrics.placements.fetch_add(1, Ordering::Relaxed);
    if let Some(log) = &shared.config.placement_log {
        log.send_json(&Json::obj([
            ("type", Json::Str("placed".to_string())),
            ("tenant", Json::Str(tenant.to_string())),
            ("shard", shard.to_json()),
            (
                "addr",
                Json::Str(shared.config.shards.get(shard).cloned().unwrap_or_default()),
            ),
        ]));
    }
    shard
}

/// One client connection's forwarding state. Dropping it shuts the
/// backend sockets down, so the relay threads unblock and die.
struct Client<'a> {
    shared: &'a Shared,
    sink: Arc<LineSink>,
    /// Set once the client is gone, so relays stop reporting dead shards.
    closing: Arc<AtomicBool>,
    /// The lazily-opened backend connection to each shard touched.
    backends: HashMap<usize, Backend>,
    /// Per shard, the forwarded lines not yet written.
    pending: Vec<Pending>,
}

/// Forwarded lines waiting for one write to their shard.
#[derive(Clone, Default)]
struct Pending {
    /// The lines, each ending in `\n`.
    bytes: Vec<u8>,
    /// Each line's tenant and `seq`, for its `shard-unreachable` reply.
    lines: Vec<(String, Option<u64>)>,
}

/// A line the router answers or acts on itself.
enum Local {
    Ping(Option<u64>),
    Metrics(Option<u64>),
    Migrate,
    /// A rejected line, with its error reply as a line.
    Reject(String),
}

/// The shard one parsed client line is forwarded to, with its tenant and
/// `seq`, placing the tenant on first sight; or what the router does with
/// the line itself.
fn route(shared: &Shared, parsed: &Json) -> Result<(usize, String, Option<u64>), Local> {
    let seq = parsed.get("seq").and_then(Json::as_u64);
    let reject = |reply: Reply| Local::Reject(reply.to_line());
    match parsed.get("type").and_then(Json::as_str).unwrap_or("") {
        "ping" => return Err(Local::Ping(seq)),
        "metrics" => return Err(Local::Metrics(seq)),
        "migrate" => return Err(Local::Migrate),
        ty @ ("adopt" | "evict") => {
            return Err(reject(Reply::error(
                "bad-message",
                format!("`{ty}` is shard-internal; drive migrations with `migrate`"),
                None,
                seq,
            )));
        }
        _ => {}
    }
    let request = Request::from_json(parsed)
        .map_err(|(code, message)| reject(Reply::error(code, message, None, None)))?;
    let tenant = request.tenant().to_string();
    if lock(&shared.migrating).contains(&tenant) {
        shared.metrics.busy_rejects.fetch_add(1, Ordering::Relaxed);
        return Err(reject(Reply::error(
            "busy",
            format!("tenant `{tenant}` is migrating; retry shortly"),
            Some(&tenant),
            request.seq(),
        )));
    }
    Ok((place(shared, &tenant), tenant, request.seq()))
}

impl LineHandler for Client<'_> {
    fn line(&mut self, line: &str, parsed: Json) -> bool {
        let shared = self.shared;
        shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let local = match route(shared, &parsed) {
            Ok((shard, tenant, seq)) => {
                let pending = &mut self.pending[shard];
                pending.bytes.extend_from_slice(line.as_bytes());
                pending.bytes.push(b'\n');
                pending.lines.push((tenant, seq));
                return true;
            }
            Err(local) => local,
        };
        // What the router answers or acts on itself goes after the lines
        // read before it: a `migrate` sends its evict only once they are
        // written to their shard.
        self.write_pending();
        match local {
            Local::Ping(seq) => self.sink.send(&pong(shared, seq)),
            Local::Metrics(seq) => self.sink.send_json(&merged_metrics(shared, seq)),
            Local::Migrate => handle_migrate(shared, &parsed, &self.sink),
            Local::Reject(reply) => self.sink.send_line(&reply),
        }
        true
    }

    fn caught_up(&mut self) {
        self.write_pending();
    }
}

impl Drop for Client<'_> {
    fn drop(&mut self) {
        self.closing.store(true, Ordering::Relaxed);
        for backend in self.backends.values() {
            let _ = backend.stream.shutdown(Shutdown::Both);
        }
    }
}

impl Client<'_> {
    /// Writes each shard's pending lines in one write. Lines that cannot
    /// be written get one typed `shard-unreachable` error each, carrying
    /// their tenant and `seq`.
    fn write_pending(&mut self) {
        for shard in 0..self.pending.len() {
            if self.pending[shard].bytes.is_empty() {
                continue;
            }
            let mut batch = std::mem::take(&mut self.pending[shard]);
            let metrics = &self.shared.metrics;
            let lines = u64::try_from(batch.lines.len()).unwrap_or(u64::MAX);
            if self.write_to(shard, &batch.bytes) {
                metrics.shard_writes.fetch_add(1, Ordering::Relaxed);
                metrics
                    .forwarded_requests
                    .fetch_add(lines, Ordering::Relaxed);
            } else {
                metrics
                    .shard_unreachable
                    .fetch_add(lines, Ordering::Relaxed);
                for (tenant, seq) in &batch.lines {
                    self.sink.send(&Reply::error(
                        CODE_SHARD_UNREACHABLE,
                        format!("shard {shard} is unreachable"),
                        Some(tenant),
                        *seq,
                    ));
                }
            }
            batch.bytes.clear();
            batch.lines.clear();
            self.pending[shard] = batch;
        }
    }

    /// Writes `bytes` to `shard`, opening (or reopening, once) the backend
    /// connection and its relay thread on demand. `false` when both
    /// attempts fail.
    fn write_to(&mut self, shard: usize, bytes: &[u8]) -> bool {
        for _attempt in 0..2u32 {
            let dead = self
                .backends
                .get(&shard)
                .is_some_and(|b| !b.alive.load(Ordering::Relaxed));
            if dead {
                if let Some(b) = self.backends.remove(&shard) {
                    let _ = b.stream.shutdown(Shutdown::Both);
                }
            }
            if let Entry::Vacant(slot) = self.backends.entry(shard) {
                match open_backend(self.shared, shard, &self.sink, &self.closing) {
                    Ok(b) => {
                        slot.insert(b);
                    }
                    Err(_) => return false,
                }
            }
            let Some(backend) = self.backends.get(&shard) else {
                return false;
            };
            if (&backend.stream).write_all(bytes).is_ok() {
                return true;
            }
            // The write half died between the liveness check and the write;
            // drop the entry and retry once with a fresh connection.
            if let Some(b) = self.backends.remove(&shard) {
                let _ = b.stream.shutdown(Shutdown::Both);
            }
        }
        false
    }
}

/// Connects to `shard` (with seeded backoff between attempts) and spawns
/// the relay thread pumping its reply lines into `sink`.
fn open_backend(
    shared: &Shared,
    shard: usize,
    sink: &Arc<LineSink>,
    closing: &Arc<AtomicBool>,
) -> io::Result<Backend> {
    let stream = connect_shard(shared, shard)?;
    let read_half = stream.try_clone()?;
    let alive = Arc::new(AtomicBool::new(true));
    let relay = RelayHandle {
        shard,
        sink: Arc::clone(sink),
        closing: Arc::clone(closing),
        alive: Arc::clone(&alive),
        metrics: Arc::clone(&shared.metrics),
    };
    std::thread::spawn(move || relay.run(read_half));
    Ok(Backend { stream, alive })
}

/// Everything a relay thread owns. Relay connections deliberately carry
/// no read timeout: an idle backend is healthy, and killing it would
/// sever a live tenant.
struct RelayHandle {
    shard: usize,
    sink: Arc<LineSink>,
    closing: Arc<AtomicBool>,
    alive: Arc<AtomicBool>,
    metrics: Arc<RouterMetrics>,
}

impl RelayHandle {
    fn run(self, stream: TcpStream) {
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    // A shard closing mid-line still gets its line ended.
                    if !line.ends_with('\n') {
                        line.push('\n');
                    }
                    self.sink.write_line(&line);
                    // Flush once no further complete reply is buffered, so
                    // nothing is held while the relay waits on the shard.
                    if !reader.buffer().contains(&b'\n') {
                        self.metrics.relay_flushes.fetch_add(1, Ordering::Relaxed);
                        self.sink.flush();
                    }
                }
            }
        }
        self.alive.store(false, Ordering::Relaxed);
        if !self.closing.load(Ordering::Relaxed) {
            // The shard died under a live client: surface it as one
            // unsequenced typed error, which the client's reconnect
            // machinery treats as a resync signal.
            self.metrics
                .shard_unreachable
                .fetch_add(1, Ordering::Relaxed);
            self.sink.send(&Reply::error(
                CODE_SHARD_UNREACHABLE,
                format!("shard {} closed its connection", self.shard),
                None,
                None,
            ));
        }
    }
}

/// TCP connect with bounded, seeded-backoff retries.
fn connect_shard(shared: &Shared, shard: usize) -> io::Result<TcpStream> {
    let addr = shared
        .config
        .shards
        .get(shard)
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no shard {shard}")))?;
    let attempts = shared.config.connect_attempts.max(1);
    let mut backoff = Backoff::new(
        shared.config.backoff_base_ms,
        shared.config.backoff_cap_ms,
        shared.config.seed ^ u64::try_from(shard).unwrap_or(u64::MAX) ^ 0x5EED_C0DE,
    );
    let mut last: Option<io::Error> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(backoff.next_delay());
        }
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true).ok();
                return Ok(s);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::ConnectionRefused, "no connect attempts made")
    }))
}

/// The router's own `pong`: router-level counters, with `tenants` meaning
/// placed tenants across the whole fleet.
fn pong(shared: &Shared, seq: Option<u64>) -> Reply {
    let m = &shared.metrics;
    Reply::Pong {
        connections: m.connections.load(Ordering::Relaxed),
        active_connections: m.active_connections.load(Ordering::Relaxed),
        tenants: u64::try_from(lock(&shared.placements).len()).unwrap_or(u64::MAX),
        requests: m.requests.load(Ordering::Relaxed),
        busy_drops: m.busy_rejects.load(Ordering::Relaxed),
        seq,
    }
}

/// One short-lived control round trip to a shard: connect, send `line`,
/// read until a reply of type `expect` (success) or `error` (failure).
/// Control connections are read-timeout-bounded so a hung shard becomes
/// a typed failure instead of a stall.
fn control_roundtrip(
    shared: &Shared,
    shard: usize,
    line: &str,
    expect: &str,
) -> Result<Json, String> {
    let stream =
        connect_shard(shared, shard).map_err(|e| format!("shard {shard} is unreachable: {e}"))?;
    stream
        .set_read_timeout(Some(shared.config.control_timeout))
        .ok();
    let mut w = &stream;
    w.write_all(line.as_bytes())
        .and_then(|()| w.write_all(b"\n"))
        .map_err(|e| format!("shard {shard} control write failed: {e}"))?;
    let mut reader = BufReader::new(&stream);
    let mut buf = String::new();
    loop {
        buf.clear();
        match reader.read_line(&mut buf) {
            Ok(0) => return Err(format!("shard {shard} closed the control connection")),
            Ok(_) => {}
            Err(e) => return Err(format!("shard {shard} control read failed: {e}")),
        }
        let v = Json::parse(buf.trim())
            .map_err(|e| format!("shard {shard} sent bad control JSON: {e}"))?;
        match v.get("type").and_then(Json::as_str) {
            Some(t) if t == expect => return Ok(v),
            Some("error") => return Err(format!("shard {shard} answered: {}", buf.trim())),
            // Anything else (a stray metrics line, say) is skipped; the
            // control connection is fresh, so the expected reply is next.
            _ => {}
        }
    }
}

/// Handles one `migrate` admin request inline.
fn handle_migrate(shared: &Shared, v: &Json, sink: &LineSink) {
    let seq = v.get("seq").and_then(Json::as_u64);
    let Some(tenant) = v.get("tenant").and_then(Json::as_str).map(str::to_string) else {
        sink.send(&Reply::error(
            "bad-message",
            "migrate needs a string `tenant`",
            None,
            seq,
        ));
        return;
    };
    let to = match v
        .get("to")
        .and_then(Json::as_u64)
        .and_then(|n| usize::try_from(n).ok())
    {
        Some(n) if n < shared.config.shards.len() => n,
        _ => {
            sink.send(&Reply::error(
                "bad-message",
                format!(
                    "migrate needs an integer `to` in 0..{}",
                    shared.config.shards.len()
                ),
                Some(&tenant),
                seq,
            ));
            return;
        }
    };
    // Claim the tenant: exactly one migration in flight per name.
    if !lock(&shared.migrating).insert(tenant.clone()) {
        sink.send(&Reply::error(
            "busy",
            format!("tenant `{tenant}` already has a migration in flight"),
            Some(&tenant),
            seq,
        ));
        return;
    }
    let from = lock(&shared.placements)
        .get(&tenant)
        .copied()
        .unwrap_or_else(|| shared.ring.owner(&tenant));
    let migrated = |micros: u64, fallback: bool| {
        let mut fields = vec![
            ("type", Json::Str("migrated".to_string())),
            ("tenant", Json::Str(tenant.clone())),
            ("from", from.to_json()),
            ("to", to.to_json()),
            ("micros", micros.to_json()),
            ("fallback", Json::Bool(fallback)),
        ];
        if let Some(s) = seq {
            fields.push(("seq", s.to_json()));
        }
        Json::obj(fields)
    };
    if from == to {
        lock(&shared.migrating).remove(&tenant);
        sink.send_json(&migrated(0, false));
        return;
    }
    let t0 = Instant::now();
    let result = evict_and_adopt(shared, &tenant, from, to)
        .map(|()| false)
        .or_else(|primary| {
            // The source may have died mid-handoff. Eviction detaches a
            // journal without deleting it, and the fleet shares a journal
            // directory, so a `resume` on the destination rebuilds the
            // tenant from the journal tail.
            fallback_resume(shared, &tenant, to)
                .map(|()| true)
                .map_err(|fb| format!("{primary}; journal fallback failed: {fb}"))
        });
    let micros = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
    match result {
        Ok(fallback) => {
            lock(&shared.placements).insert(tenant.clone(), to);
            persist_placements(shared);
            lock(&shared.migrating).remove(&tenant);
            shared.metrics.migrations.fetch_add(1, Ordering::Relaxed);
            shared.metrics.migration_micros.record(micros);
            sink.send_json(&migrated(micros, fallback));
        }
        Err(message) => {
            lock(&shared.migrating).remove(&tenant);
            shared
                .metrics
                .migration_failures
                .fetch_add(1, Ordering::Relaxed);
            sink.send(&Reply::error(
                "migration-failed",
                message,
                Some(&tenant),
                seq,
            ));
        }
    }
}

/// The happy-path handoff: `evict` on the source (drains the tenant's
/// queued window, captures the checkpoint, tombstones the name), then
/// `adopt` of the returned state on the destination.
fn evict_and_adopt(shared: &Shared, tenant: &str, from: usize, to: usize) -> Result<(), String> {
    let evict = Json::obj([
        ("type", Json::Str("evict".to_string())),
        ("tenant", Json::Str(tenant.to_string())),
    ]);
    let evicted = control_roundtrip(shared, from, &evict.to_string_compact(), "evicted")?;
    let state = evicted
        .get("state")
        .cloned()
        .ok_or_else(|| format!("shard {from} sent an `evicted` reply without `state`"))?;
    let adopt = Json::obj([
        ("type", Json::Str("adopt".to_string())),
        ("tenant", Json::Str(tenant.to_string())),
        ("state", state),
    ]);
    control_roundtrip(shared, to, &adopt.to_string_compact(), "adopted").map(|_| ())
}

/// The crash fallback: a throwaway `resume` on the destination recovers
/// the tenant from the shared journal directory. Dropping the control
/// connection right after detaches the session again, so the tenant's
/// own client attaches with its usual `resume`.
fn fallback_resume(shared: &Shared, tenant: &str, to: usize) -> Result<(), String> {
    let resume = Json::obj([
        ("type", Json::Str("resume".to_string())),
        ("tenant", Json::Str(tenant.to_string())),
    ]);
    control_roundtrip(shared, to, &resume.to_string_compact(), "resumed").map(|_| ())
}

/// The placement table's on-disk home inside the fleet journal dir.
fn placements_path(dir: &Path) -> PathBuf {
    dir.join("router-placements.jsonl")
}

/// Loads the persisted placement table, if any. Rows naming a shard
/// outside the current fleet are dropped (the fleet shrank); a missing or
/// unparseable file is an empty table, never an error — the ring re-homes
/// every tenant exactly as a fresh router would.
fn load_placements(config: &RouterConfig) -> HashMap<String, usize> {
    let mut map = HashMap::new();
    let Some(dir) = &config.journal_dir else {
        return map;
    };
    let Ok(text) = std::fs::read_to_string(placements_path(dir)) else {
        return map;
    };
    for line in text.lines() {
        let Ok(v) = Json::parse(line.trim()) else {
            continue;
        };
        let tenant = v.get("tenant").and_then(Json::as_str);
        let shard = v
            .get("shard")
            .and_then(Json::as_u64)
            .and_then(|n| usize::try_from(n).ok());
        if let (Some(tenant), Some(shard)) = (tenant, shard) {
            if shard < config.shards.len() {
                map.insert(tenant.to_string(), shard);
            }
        }
    }
    map
}

/// Rewrites the whole placement table (sorted, one line-JSON row per
/// tenant) via temp file + rename, so a crash mid-write never corrupts
/// the live table. The `persist` lock serializes writers *and* spans the
/// snapshot, so a later migration's table can never be overwritten by an
/// earlier migration's stale snapshot.
fn persist_placements(shared: &Shared) {
    let Some(dir) = &shared.config.journal_dir else {
        return;
    };
    let _writer = lock(&shared.persist);
    let rows: Vec<(String, usize)> = {
        let map = lock(&shared.placements);
        let mut rows: Vec<_> = map.iter().map(|(t, &s)| (t.clone(), s)).collect();
        rows.sort();
        rows
    };
    let mut text = String::new();
    for (tenant, shard) in &rows {
        text.push_str(
            &Json::obj([
                ("tenant", Json::Str(tenant.clone())),
                ("shard", shard.to_json()),
            ])
            .to_string_compact(),
        );
        text.push('\n');
    }
    let path = placements_path(dir);
    let tmp = path.with_extension("jsonl.tmp");
    if std::fs::write(&tmp, text).is_ok() {
        let _ = std::fs::rename(&tmp, &path);
    }
}

/// Answers a client `metrics` request with the fleet-wide merge: summed
/// `global` counters, concatenated `per_tenant` rows (so `calib-top`
/// renders through the router unchanged), a new `per_shard` array, the
/// router's own counters, and the migration-latency histogram.
fn merged_metrics(shared: &Shared, seq: Option<u64>) -> Json {
    let mut sums: Vec<(String, u128)> = Vec::new();
    let mut tenants: Vec<Json> = Vec::new();
    let mut per_shard: Vec<Json> = Vec::new();
    for (i, addr) in shared.config.shards.iter().enumerate() {
        let placed = lock(&shared.placements)
            .values()
            .filter(|&&s| s == i)
            .count();
        let mut row = vec![
            ("shard", i.to_json()),
            ("addr", Json::Str(addr.clone())),
            ("placements", placed.to_json()),
        ];
        match control_roundtrip(shared, i, "{\"type\":\"metrics\"}", "metrics") {
            Ok(snapshot) => {
                if let Some(Json::Obj(fields)) = snapshot.get("global") {
                    for (key, value) in fields {
                        if let Some(n) = value.as_u128() {
                            match sums.iter_mut().find(|(k, _)| k == key) {
                                Some(slot) => slot.1 = slot.1.saturating_add(n),
                                None => sums.push((key.clone(), n)),
                            }
                        }
                    }
                }
                if let Some(rows) = snapshot.get("per_tenant").and_then(Json::as_arr) {
                    tenants.extend(rows.iter().cloned());
                }
                row.push((
                    "global",
                    snapshot.get("global").cloned().unwrap_or(Json::Null),
                ));
            }
            Err(e) => row.push(("error", Json::Str(e))),
        }
        per_shard.push(Json::obj(row));
    }
    let global = Json::Obj(sums.into_iter().map(|(k, v)| (k, Json::UInt(v))).collect());
    let mut fields = vec![
        ("type", Json::Str("metrics".to_string())),
        ("global", global),
        ("per_tenant", Json::Arr(tenants)),
        ("per_shard", Json::Arr(per_shard)),
        ("router", shared.metrics.to_json()),
        (
            "migration_micros",
            shared.metrics.migration_micros.snapshot().to_json(),
        ),
    ];
    if let Some(s) = seq {
        fields.push(("seq", s.to_json()));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::JoinHandle;

    /// A scripted shard serving `conns` connections: it answers every
    /// line with the line itself, in one write per read burst.
    fn echo_shard(conns: usize) -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shard = std::thread::spawn(move || {
            std::thread::scope(|scope| {
                for stream in listener.incoming().take(conns) {
                    let stream = stream.unwrap();
                    scope.spawn(move || {
                        let mut reader = BufReader::new(&stream);
                        let (mut line, mut out) = (String::new(), String::new());
                        while reader.read_line(&mut line).unwrap_or(0) > 0 {
                            out.push_str(&line);
                            line.clear();
                            if !reader.buffer().contains(&b'\n') {
                                if (&stream).write_all(out.as_bytes()).is_err() {
                                    break;
                                }
                                out.clear();
                            }
                        }
                    });
                }
            });
        });
        (addr, shard)
    }

    /// A router fronting `shard` that exits once its one client is gone,
    /// and a connection to it with a 10 s read timeout.
    fn route_to(shard: String) -> (TcpStream, BufReader<TcpStream>, JoinHandle<RouterReport>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = RouterConfig {
            shards: vec![shard],
            connect_attempts: 1,
            ..RouterConfig::default()
        };
        let router = std::thread::spawn(move || run_router(listener, config).unwrap());
        let client = TcpStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(client.try_clone().unwrap());
        (client, reader, router)
    }

    fn tick(i: u64) -> String {
        format!("{{\"type\":\"tick\",\"tenant\":\"t\",\"now\":{i},\"seq\":{i}}}\n")
    }

    /// A client that waits for each reply before it sends the next line
    /// gets every reply: no line or reply is held while the router waits.
    #[test]
    fn lock_step_client_gets_each_reply() {
        let (shard_addr, shard) = echo_shard(1);
        let (mut client, mut reader, router) = route_to(shard_addr);
        for i in 0..5 {
            client.write_all(tick(i).as_bytes()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            assert_eq!(reply, tick(i));
        }
        drop((client, reader));
        assert_eq!(router.join().unwrap().forwarded_requests, 5);
        shard.join().unwrap();
    }

    /// Lines sent in one write come back byte for byte and in order, in
    /// fewer shard writes and relay flushes than lines.
    #[test]
    fn a_burst_is_forwarded_and_relayed_in_batches() {
        let (shard_addr, shard) = echo_shard(2);
        let (mut client, mut reader, router) = route_to(shard_addr);
        let burst: String = (0..32).map(tick).collect();
        client.write_all(burst.as_bytes()).unwrap();
        let mut replies = String::new();
        for _ in 0..32 {
            reader.read_line(&mut replies).unwrap();
        }
        assert_eq!(replies, burst);
        // The echo shard answers the router's control `metrics` with the
        // request itself, so the merge carries only the router's counters.
        client.write_all(b"{\"type\":\"metrics\"}\n").unwrap();
        let mut metrics = String::new();
        reader.read_line(&mut metrics).unwrap();
        let router_counters = Json::parse(metrics.trim())
            .unwrap()
            .get("router")
            .cloned()
            .unwrap();
        let count = |key: &str| router_counters.get(key).and_then(Json::as_u64).unwrap();
        assert_eq!(count("forwarded_requests"), 32);
        assert!(
            (1..32).contains(&count("shard_writes")),
            "{router_counters:?}"
        );
        assert!(
            (1..32).contains(&count("relay_flushes")),
            "{router_counters:?}"
        );
        drop((client, reader));
        router.join().unwrap();
        shard.join().unwrap();
    }

    #[test]
    fn bad_configs_are_rejected_before_binding_matters() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let err = run_router(listener, RouterConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn merged_metrics_reports_unreachable_shards_per_shard() {
        // Port 1 on localhost: reliably refused, and connect_attempts=1
        // keeps the test fast.
        let shared = Shared {
            config: RouterConfig {
                shards: vec!["127.0.0.1:1".to_string()],
                connect_attempts: 1,
                ..RouterConfig::default()
            },
            ring: Ring::new(1, 8, 7),
            placements: Mutex::new(HashMap::new()),
            migrating: Mutex::new(HashSet::new()),
            persist: Mutex::new(()),
            metrics: Arc::new(RouterMetrics::new()),
        };
        let v = merged_metrics(&shared, Some(3));
        assert_eq!(v.get("type").and_then(Json::as_str), Some("metrics"));
        assert_eq!(v.get("seq").and_then(Json::as_u64), Some(3));
        let shard0 = &v.get("per_shard").and_then(Json::as_arr).unwrap()[0];
        assert!(shard0.get("error").is_some());
        assert!(v.get("router").is_some());
    }

    #[test]
    fn placement_table_round_trips_and_drops_out_of_fleet_shards() {
        let dir =
            std::env::temp_dir().join(format!("calib-router-placements-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = RouterConfig {
            shards: vec!["a:1".to_string(), "b:2".to_string(), "c:3".to_string()],
            journal_dir: Some(dir.clone()),
            ..RouterConfig::default()
        };
        let shared = Shared {
            ring: Ring::new(3, 8, 7),
            placements: Mutex::new(HashMap::from([
                ("moved".to_string(), 2),
                ("home".to_string(), 0),
            ])),
            migrating: Mutex::new(HashSet::new()),
            persist: Mutex::new(()),
            metrics: Arc::new(RouterMetrics::new()),
            config: config.clone(),
        };
        persist_placements(&shared);
        let loaded = load_placements(&config);
        assert_eq!(loaded.get("moved"), Some(&2));
        assert_eq!(loaded.get("home"), Some(&0));
        assert_eq!(loaded.len(), 2);

        // A shrunk fleet (one shard) invalidates rows pointing past it;
        // those tenants fall back to ring placement instead of a panic.
        let shrunk = RouterConfig {
            shards: vec!["a:1".to_string()],
            journal_dir: Some(dir.clone()),
            ..RouterConfig::default()
        };
        let loaded = load_placements(&shrunk);
        assert_eq!(loaded.get("home"), Some(&0));
        assert!(!loaded.contains_key("moved"), "out-of-fleet row dropped");

        // No journal dir: persistence is off and loading is empty.
        let off = RouterConfig {
            shards: config.shards.clone(),
            ..RouterConfig::default()
        };
        assert!(load_placements(&off).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
