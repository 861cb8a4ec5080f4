//! The traced run: the per-layer breakdown.
//!
//! No tracing code goes inside the program. Spans are recorded here, around
//! calls into each serving layer's public functions:
//!
//! * a loopback round of the untraced run (one `light`, `heavy` and
//!   `closed` window) for the wire-level numbers;
//! * an in-process pass of one `light` plan through
//!   `calib_serve::serve_stream`, fed one line at each due time by a
//!   driver-owned `Read` and timed by a `Write` that stamps each reply, for
//!   the residence spans;
//! * a replay of the same requests through parse → decode → admit →
//!   journal append → session (engine step inside) → checkpoint → encode,
//!   plus a mirror `EngineSession` and the checker, recording one span per
//!   layer under a per-request parent span; the same replay without spans,
//!   alternating with it, prices the tracing;
//! * on `routed`, the same light plans direct to their ring-owner shard and
//!   through `calib-router`, for the router's added latency.
//!
//! Spans stay in memory and are written when the run ends, as a Perfetto
//! trace (`calib_trace::TraceBuilder`) and as a per-layer JSON summary.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use calib_core::json::{Json, ToJson};
use calib_core::{check_schedule, Counters, Instance};
use calib_online::{EngineConfig, EngineSession, OnlineScheduler};
use calib_serve::session::{SharedCountingProbe, TenantProbe};
use calib_serve::{
    read_journal, replay, serve_stream, Admission, FsyncPolicy, JournalRecord, JournalWriter,
    Reply, Request, RequestClock, ServerConfig, TenantConfig, TenantSession, Verdict,
};
use calib_trace::TraceBuilder;

use crate::config::{Topology, Workload};
use crate::plan::TenantPlan;
use crate::report::{mean, percentile};
use crate::run::{self, check_phase, open_phase, ring_params, Fleet, Outcome, PhasePlan};
use crate::wire::{entry_line, fresh_dir, run_phase, scan, Conn, Mode, Tail};
use crate::Env;

/// Share of `--seconds` given to the loopback round.
const LOOPBACK_SHARE: f64 = 0.45;
/// Share of `--seconds` the in-process pass runs for.
const PASS_SHARE: f64 = 0.15;
/// Layer replays without spans and with them, alternating, for
/// `trace.overhead_ratio`.
const REPLAY_PAIRS: usize = 5;
/// Requests whose spans go into the Perfetto file (the JSON summary and
/// the metrics use every span).
const PERFETTO_REQUESTS: usize = 2000;

/// The layers, in the order a request passes them. `request` is the
/// parent span of the others.
const LAYERS: [&str; 10] = [
    "request",
    "json",
    "protocol.decode",
    "admit",
    "journal",
    "session",
    "engine",
    "checker",
    "journal.checkpoint",
    "protocol.encode",
];
const REQUEST: usize = 0;
const JSON: usize = 1;
const DECODE: usize = 2;
const ADMIT: usize = 3;
const JOURNAL: usize = 4;
const SESSION: usize = 5;
const ENGINE: usize = 6;
const CHECKER: usize = 7;
const CHECKPOINT: usize = 8;
const ENCODE: usize = 9;

/// One recorded span: request index, layer, start and end in ns since the
/// pass began.
#[derive(Debug, Clone, Copy)]
struct Span {
    request: usize,
    layer: usize,
    start: u64,
    end: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// The pinned daemon flags as an in-process server configuration.
fn server_config(w: &Workload, journal: Option<PathBuf>) -> Result<ServerConfig, String> {
    let mut c = ServerConfig {
        exit_when_idle: false,
        journal_dir: journal,
        ..ServerConfig::default()
    };
    let mut it = w.daemon_flags.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let n = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workers" => c.workers = n()? as usize,
            "--queue-cap" => c.queue_cap = n()? as usize,
            "--max-tenants" => c.max_tenants = n()? as usize,
            "--fsync" => c.fsync = FsyncPolicy::from_name(value).ok_or("bad --fsync")?,
            "--checkpoint-every-n" => c.checkpoint_every = Some(n()?).filter(|&v| v > 0),
            "--max-inflight" => c.admit.max_inflight = Some(n()?).filter(|&v| v > 0),
            "--rate-per-k" => c.admit.rate_per_k = Some(n()?).filter(|&v| v > 0),
            "--rate-burst" => c.admit.burst = n()?,
            other => return Err(format!("the traced run does not model daemon flag {other}")),
        }
    }
    Ok(c)
}

/// A driver-owned input for `serve_stream`: hands over one line at its
/// due time and stamps the handover.
struct Feeder<'a> {
    lines: &'a [(Duration, String)],
    t0: Instant,
    pos: usize,
    off: usize,
    handover: Vec<Option<Instant>>,
}

impl Read for Feeder<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some((due, line)) = self.lines.get(self.pos) else {
            return Ok(0);
        };
        if self.off == 0 {
            let at = self.t0 + *due;
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            self.handover[self.pos] = Some(Instant::now());
        }
        let bytes = &line.as_bytes()[self.off..];
        let n = bytes.len().min(buf.len());
        buf[..n].copy_from_slice(&bytes[..n]);
        self.off += n;
        if self.off == line.len() {
            self.pos += 1;
            self.off = 0;
        }
        Ok(n)
    }
}

/// A driver-owned output for `serve_stream`: stamps every reply line, the
/// end of its request's residence span.
#[derive(Clone, Default)]
struct Stamper {
    pending: Arc<Mutex<Vec<u8>>>,
    lines: Arc<Mutex<Vec<(Instant, String)>>>,
}

impl Write for Stamper {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let now = Instant::now();
        let mut pending = self.pending.lock().expect("stamper lock");
        pending.extend_from_slice(buf);
        while let Some(at) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=at).collect();
            let text = String::from_utf8_lossy(&line).trim().to_string();
            self.lines.lock().expect("stamper lock").push((now, text));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The input of one in-process pass: the light plan's requests, `hello`s
/// included, each due at its open-loop time.
struct PassInput {
    lines: Vec<(Duration, String)>,
    /// `(plan, seq)` of each line.
    requests: Vec<(usize, u64)>,
}

fn pass_input(phase: &PhasePlan, rate: f64) -> PassInput {
    let mut lines = Vec::new();
    let mut requests = Vec::new();
    for (k, &(t, i)) in phase.order.iter().enumerate() {
        let plan = &phase.plans[t];
        let (seq, line) = entry_line(plan, i, plan.steps.len(), Tail::DrainBye);
        lines.push((
            Duration::from_secs_f64(k as f64 / rate),
            format!("{line}\n"),
        ));
        requests.push((t, seq));
    }
    PassInput { lines, requests }
}

/// What one in-process pass measured.
struct PassOut {
    /// Residence per request index, µs (`None`: no reply).
    residence_us: Vec<Option<f64>>,
    replies: Vec<String>,
    errors: Vec<String>,
}

/// One pass of the light plan through an in-process server. A request's
/// residence span runs from handing its line over to writing its reply.
fn serve_pass(
    w: &Workload,
    phase: &PhasePlan,
    input: &PassInput,
    dir: &Path,
) -> Result<PassOut, String> {
    let journal = w.journal.then(|| dir.join("journal"));
    let config = server_config(w, journal)?;
    let stamper = Stamper::default();
    let mut feeder = Feeder {
        lines: &input.lines,
        t0: Instant::now(),
        pos: 0,
        off: 0,
        handover: vec![None; input.lines.len()],
    };
    let report = serve_stream(&mut feeder, Box::new(stamper.clone()), config);
    let names: HashMap<&str, usize> = phase
        .plans
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.as_str(), i))
        .collect();
    let index: HashMap<(usize, u64), usize> = input
        .requests
        .iter()
        .enumerate()
        .map(|(k, &key)| (key, k))
        .collect();
    let mut out = PassOut {
        residence_us: vec![None; input.requests.len()],
        replies: Vec::new(),
        errors: Vec::new(),
    };
    if !report.all_ok() {
        out.errors
            .push("in-process server reported a failed tenant".into());
    }
    let lines = std::mem::take(&mut *stamper.lines.lock().expect("stamper lock"));
    for (at, text) in &lines {
        let Some((_, tenant, seq)) = scan(text) else {
            continue;
        };
        let Some(&k) = names.get(tenant).and_then(|&t| index.get(&(t, seq))) else {
            out.errors
                .push(format!("in-process: unmatched reply from {tenant}"));
            continue;
        };
        let handed = feeder.handover[k].ok_or("reply before handover")?;
        out.residence_us[k] = Some(at.saturating_duration_since(handed).as_secs_f64() * 1e6);
    }
    for (_, text) in lines {
        if text.starts_with("{\"type\":\"error\"") {
            out.errors.push(format!("in-process: {text}"));
        }
        out.replies.push(text);
    }
    let missing = out.residence_us.iter().filter(|r| r.is_none()).count();
    if missing > 0 {
        out.errors
            .push(format!("in-process: {missing} requests without a reply"));
    }
    Ok(out)
}

/// One tenant's state in the layer replay: a session like the server's
/// (without its journal, which the replay appends to itself), a mirror
/// engine with the session's own probe type to time the engine alone, and
/// the journal writer.
struct Replica {
    session: TenantSession,
    engine: EngineSession<TenantProbe>,
    scheduler: Box<dyn OnlineScheduler + Send>,
    journal: Option<JournalWriter>,
    config: TenantConfig,
    /// Records appended since the last checkpoint.
    since_checkpoint: u64,
}

/// Layer replay of every request, recording spans when `record` is set.
struct Replay<'a> {
    w: &'a Workload,
    phase: &'a PhasePlan,
    input: &'a PassInput,
    dir: PathBuf,
    record: bool,
    t0: Instant,
    admission: Option<Admission>,
    /// The daemon's `--checkpoint-every-n`, when it journals.
    checkpoint_every: Option<u64>,
    replicas: Vec<Option<Replica>>,
    spans: Vec<Span>,
    /// Per replayed request: line, reply and journal record bytes, and the
    /// queue depth the engine step faced.
    line_bytes: Vec<usize>,
    reply_bytes: Vec<usize>,
    journal_bytes: Vec<usize>,
    /// Per checkpoint written: its bytes.
    checkpoint_bytes: Vec<u64>,
    depth: Vec<f64>,
    decisions: u64,
    admitted: u64,
    refused: u64,
    drains: usize,
    /// Each drain's `(tenant, flow, cost)`, for the in-process passes to
    /// agree with.
    drained: Vec<(String, u128, u128)>,
    errors: Vec<String>,
}

impl<'a> Replay<'a> {
    /// A replay with fresh tenants, journals under `dir` and, when the
    /// workload admits, fresh admission state.
    fn new(
        w: &'a Workload,
        phase: &'a PhasePlan,
        input: &'a PassInput,
        dir: PathBuf,
        record: bool,
    ) -> Result<Replay<'a>, String> {
        let config = server_config(w, None)?;
        Ok(Replay {
            w,
            phase,
            input,
            dir,
            record,
            t0: Instant::now(),
            admission: config
                .admit
                .enabled()
                .then(|| Admission::new(config.admit, Arc::new(RequestClock::new()))),
            checkpoint_every: config.checkpoint_every.filter(|_| w.journal),
            replicas: (0..phase.plans.len()).map(|_| None).collect(),
            spans: Vec::new(),
            line_bytes: Vec::new(),
            reply_bytes: Vec::new(),
            journal_bytes: Vec::new(),
            checkpoint_bytes: Vec::new(),
            depth: Vec::new(),
            decisions: 0,
            admitted: 0,
            refused: 0,
            drains: 0,
            drained: Vec::new(),
            errors: Vec::new(),
        })
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn span<T>(&mut self, request: usize, layer: usize, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.record {
            return f(self);
        }
        let start = self.now();
        let v = f(self);
        let end = self.now();
        self.spans.push(Span {
            request,
            layer,
            start,
            end,
        });
        v
    }

    fn open(&mut self, plan: usize) -> Result<(), String> {
        let p: &TenantPlan = &self.phase.plans[plan];
        let config = TenantConfig {
            machines: p.spec.machines,
            cal_len: p.spec.cal_len,
            cal_cost: p.spec.cal_cost,
            algorithm: p.spec.algorithm,
        };
        let session = TenantSession::new(&p.name, config, None).map_err(|e| e.message)?;
        let probe: TenantProbe = (SharedCountingProbe(Arc::new(Counters::new())), None);
        let engine = EngineSession::with_probe(
            config.machines,
            config.cal_len,
            config.cal_cost,
            EngineConfig::default(),
            probe,
        )
        .map_err(|e| e.to_string())?;
        let journal = match self.w.journal {
            false => None,
            true => {
                let mut j = JournalWriter::create(&self.dir, &p.name, FsyncPolicy::Off)
                    .map_err(|e| e.to_string())?;
                j.append(&JournalRecord::hello(&p.name, &config, Some(0)))
                    .map_err(|e| e.to_string())?;
                Some(j)
            }
        };
        if let Some(a) = &self.admission {
            a.register(&p.name, p.spec.weight);
        }
        self.replicas[plan] = Some(Replica {
            session,
            engine,
            scheduler: config.algorithm.scheduler(),
            journal,
            config,
            since_checkpoint: 0,
        });
        Ok(())
    }

    /// Replays request `k`. `hello` opens the replica and `bye` closes it,
    /// without spans: the layers are timed on the requests that carry work.
    fn request(&mut self, k: usize) -> Result<(), String> {
        let (plan, seq) = self.input.requests[k];
        if let Some(a) = &self.admission {
            a.observe();
        }
        if seq == 0 {
            return self.open(plan);
        }
        let line = self.input.lines[k].1.trim_end();
        if line.starts_with("{\"type\":\"bye\"") {
            self.replicas[plan] = None;
            return Ok(());
        }
        let start = if self.record { self.now() } else { 0 };
        let json = self
            .span(k, JSON, |_| Json::parse(line))
            .map_err(|e| e.to_string())?;
        let request = self
            .span(k, DECODE, |_| Request::from_json(&json))
            .map_err(|(code, m)| format!("{code}: {m}"))?;
        if self.admission.is_some() {
            let name = request.tenant().to_string();
            let verdict = self.span(k, ADMIT, |r| {
                let a = r.admission.as_ref().expect("checked above");
                let v = a.admit(&name);
                if v == Verdict::Admit {
                    a.complete(&name);
                }
                v
            });
            match verdict {
                Verdict::Admit => self.admitted += 1,
                _ => self.refused += 1,
            }
        }
        let record = match &request {
            Request::Arrive { jobs, seq, .. } => JournalRecord::Arrive {
                jobs: jobs.clone(),
                seq: *seq,
            },
            Request::Tick { now, seq, .. } => JournalRecord::Tick {
                now: *now,
                seq: *seq,
            },
            Request::Drain { seq, .. } => JournalRecord::Drain { seq: *seq },
            other => return Err(format!("unexpected request in a plan: {other:?}")),
        };
        if self.w.journal {
            let appended = self.span(k, JOURNAL, |r| {
                let j = r.replicas[plan].as_mut().and_then(|x| x.journal.as_mut());
                j.map(|j| j.append(&record))
            });
            if let Some(Err(e)) = appended {
                return Err(format!("journal append: {e}"));
            }
            self.journal_bytes.push(record.to_line().len());
        }
        let mut replica = self.replicas[plan].take().expect("opened above");
        let tenant = replica.session.name().to_string();
        let reply = self.span(k, SESSION, |_| -> Result<Reply, String> {
            let err = |e: calib_serve::SessionError| format!("{}: {}", e.code, e.message);
            Ok(match &request {
                Request::Arrive { jobs, seq, .. } => {
                    replica.session.arrive(jobs, *seq).map_err(err)?;
                    Reply::Ok {
                        tenant: tenant.clone(),
                        seq: *seq,
                    }
                }
                Request::Tick { now, seq, .. } => {
                    let delta = replica.session.tick(*now, *seq).map_err(err)?;
                    Reply::Decisions {
                        tenant: tenant.clone(),
                        now: Some(*now),
                        calibrations: delta.calibrations,
                        starts: delta.starts,
                        idle: replica.session.is_idle(),
                        seq: *seq,
                    }
                }
                Request::Drain { seq, .. } => {
                    let delta = replica.session.drain(*seq).map_err(err)?;
                    Reply::Drained {
                        accounting: replica.session.accounting(),
                        calibrations: delta.calibrations,
                        starts: delta.starts,
                        seq: *seq,
                    }
                }
                _ => unreachable!("filtered above"),
            })
        })?;
        self.depth
            .push((replica.engine.jobs_submitted() - replica.engine.assignment_count()) as f64);
        let stepped = self.span(k, ENGINE, |_| match &request {
            Request::Arrive { jobs, .. } => replica.engine.submit(jobs).map(|()| 0),
            Request::Tick { now, .. } => replica
                .engine
                .step(*now, &[], replica.scheduler.as_mut())
                .map(|d| d.len()),
            _ => replica
                .engine
                .drain(replica.scheduler.as_mut())
                .map(|d| d.len()),
        });
        let stepped = stepped.map_err(|e| e.to_string())?;
        let delivered = match &reply {
            Reply::Decisions {
                calibrations,
                starts,
                ..
            }
            | Reply::Drained {
                calibrations,
                starts,
                ..
            } => calibrations.len() + starts.len(),
            _ => 0,
        };
        if stepped != delivered {
            self.errors.push(format!(
                "{tenant}: mirror engine made {stepped} decisions, the session {delivered}"
            ));
        }
        if let Reply::Drained { accounting, .. } = &reply {
            self.drained
                .push((tenant.clone(), accounting.flow, accounting.cost));
        }
        self.decisions += stepped as u64;
        if matches!(request, Request::Drain { .. }) {
            let instance = Instance::new(
                replica.engine.submitted_jobs(),
                replica.config.machines,
                replica.config.cal_len,
            )
            .map_err(|e| e.to_string())?;
            let schedule = replica.engine.schedule_snapshot();
            let checked = self.span(k, CHECKER, |_| check_schedule(&instance, &schedule));
            if let Err(e) = checked {
                self.errors
                    .push(format!("{tenant}: mirror schedule fails the checker: {e}"));
            }
            self.drains += 1;
        }
        // The daemon's checkpoint cadence, after the request is applied.
        if let Some(every) = self.checkpoint_every {
            replica.since_checkpoint += 1;
            if replica.since_checkpoint >= every {
                replica.since_checkpoint = 0;
                let written = self.span(k, CHECKPOINT, |_| {
                    let state = replica.session.checkpoint_state();
                    let journal = replica.journal.as_mut().expect("journaled workload");
                    journal.append_counted(&JournalRecord::Checkpoint(Box::new(state)))
                });
                let bytes = written.map_err(|e| format!("checkpoint: {e}"))?;
                self.checkpoint_bytes.push(bytes);
            }
        }
        self.replicas[plan] = Some(replica);
        let encoded = self.span(k, ENCODE, |_| reply.to_line());
        self.reply_bytes.push(encoded.len());
        self.line_bytes.push(line.len());
        if self.record {
            let end = self.now();
            self.spans.push(Span {
                request: k,
                layer: REQUEST,
                start,
                end,
            });
        }
        Ok(())
    }
}

/// Per-layer totals over the spans.
#[derive(Debug, Default, Clone)]
struct LayerStats {
    count: usize,
    total_ns: u64,
    ns: Vec<f64>,
}

fn layer_stats(spans: &[Span]) -> Vec<LayerStats> {
    let mut stats = vec![LayerStats::default(); LAYERS.len()];
    for s in spans {
        let l = &mut stats[s.layer];
        l.count += 1;
        l.total_ns += s.ns();
        l.ns.push(s.ns() as f64);
    }
    stats
}

/// Every parent span covers its children, and every active layer has one
/// span per request (the checker one per drain, the checkpoint one per
/// `--checkpoint-every-n` journal appends of a tenant).
fn check_spans(
    spans: &[Span],
    input: &PassInput,
    requests: usize,
    drains: usize,
    w: &Workload,
    errors: &mut Vec<String>,
) {
    let config = server_config(w, None);
    let mut appends: HashMap<usize, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.layer == JOURNAL) {
        *appends.entry(input.requests[s.request].0).or_default() += 1;
    }
    let checkpoints = match config.as_ref().ok().and_then(|c| c.checkpoint_every) {
        Some(every) => appends.values().map(|n| n / every).sum::<u64>() as usize,
        None => 0,
    };
    let mut parent: HashMap<usize, Span> = HashMap::new();
    for s in spans.iter().filter(|s| s.layer == REQUEST) {
        parent.insert(s.request, *s);
    }
    for s in spans.iter().filter(|s| s.layer != REQUEST) {
        match parent.get(&s.request) {
            Some(p) if p.start <= s.start && s.end <= p.end => {}
            Some(_) => errors.push(format!(
                "span {} of request {} escapes its parent",
                LAYERS[s.layer], s.request
            )),
            None => errors.push(format!(
                "span {} of request {} has no parent",
                LAYERS[s.layer], s.request
            )),
        }
    }
    let stats = layer_stats(spans);
    for (layer, name) in LAYERS.iter().enumerate() {
        let want = match layer {
            ADMIT if !config.as_ref().is_ok_and(|c| c.admit.enabled()) => 0,
            JOURNAL if !w.journal => 0,
            CHECKER => drains,
            CHECKPOINT => checkpoints,
            _ => requests,
        };
        if stats[layer].count != want {
            errors.push(format!(
                "layer {name}: {} spans for {want} requests",
                stats[layer].count
            ));
        }
    }
}

fn perfetto(spans: &[Span], input: &PassInput, phase: &PhasePlan, workload: &str) -> Vec<u8> {
    let mut tb = TraceBuilder::new();
    let process = 1;
    tb.process_track(process, 1, &format!("servebench {workload}"));
    for (i, p) in phase.plans.iter().enumerate() {
        tb.named_track(100 + i as u64, process, &p.name);
    }
    let mut events: Vec<(u64, bool, usize, usize)> = Vec::new();
    for s in spans.iter().filter(|s| s.request < PERFETTO_REQUESTS) {
        events.push((s.start, true, s.layer, s.request));
        events.push((s.end, false, s.layer, s.request));
    }
    // Ends before begins at equal times, parents open before children.
    events.sort_by_key(|&(t, begin, layer, _)| {
        (t, begin, if begin { layer } else { LAYERS.len() - layer })
    });
    for (t, begin, layer, request) in events {
        let track = 100 + input.requests[request].0 as u64;
        if begin {
            tb.slice_begin(track, t, LAYERS[layer], "servebench");
        } else {
            tb.slice_end(track, t);
        }
    }
    tb.into_bytes()
}

/// `router.added_p50_us`: the same light plans sent straight to their
/// ring-owner shard and through the router, one shard's tenants at a time
/// so both paths carry identical traffic. The paths run direct, routed,
/// routed, direct, so drift over the run cancels.
fn router_added(
    env: &Env,
    w: &Workload,
    seed: u64,
    secs: f64,
    dir: &Path,
    errors: &mut Vec<String>,
) -> Result<(f64, f64), String> {
    let phase = open_phase(w, "tdirect", seed, w.rate_light, secs, Tail::DrainBye);
    let (router_seed, vnodes) = ring_params(w);
    let ring = calib_router::Ring::new(2, vnodes, router_seed);
    let mut fleet = Fleet::spawn_shards(env, w, dir)?;
    let mut latencies: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut relayed = 0.0;
    for (pass, path) in [0, 1, 1, 0].into_iter().enumerate() {
        if pass == 1 {
            fleet.start_router(env, w)?;
        }
        let lat = &mut latencies[path];
        for shard in 0..2 {
            let owned: Vec<usize> = (0..phase.plans.len())
                .filter(|&t| ring.owner(&phase.plans[t].name) == shard)
                .collect();
            if owned.is_empty() {
                continue;
            }
            let mut plans: Vec<TenantPlan> =
                owned.iter().map(|&t| phase.plans[t].clone()).collect();
            let order: Vec<(usize, usize)> = phase
                .order
                .iter()
                .filter_map(|&(t, i)| owned.iter().position(|&o| o == t).map(|n| (n, i)))
                .collect();
            let rate = w.rate_light * order.len() as f64 / phase.order.len() as f64;
            let addr = match (&fleet.router, path) {
                (Some(r), 1) => r.addr.clone(),
                _ => fleet.daemons[shard].addr.clone(),
            };
            let mut conn = Conn::connect(&addr)?;
            let out = run_phase(
                &mut conn,
                &mut plans,
                Tail::DrainBye,
                Mode::Open {
                    rate,
                    order: &order,
                },
            );
            errors.extend(out.errors.iter().cloned());
            check_phase("router-added", &plans, &out, Tail::DrainBye, errors);
            lat.extend(out.latency_us);
            if pass == 2 && shard == 1 {
                let m = conn.roundtrip("{\"type\":\"metrics\"}", "metrics")?;
                relayed = m
                    .get("router")
                    .and_then(|r| r.get("forwarded_requests"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
            }
        }
    }
    Ok((
        percentile(&latencies[1], 0.5) - percentile(&latencies[0], 0.5),
        relayed,
    ))
}

/// One traced run of `w`.
pub fn run(env: &Env, w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let dir = fresh_dir(
        env.out_dir
            .join(format!("trace-{}-{}", w.name, std::process::id())),
    )?;
    let result = run_in(env, w, seed, seconds, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(env: &Env, w: &Workload, seed: u64, seconds: f64, dir: &Path) -> Result<Outcome, String> {
    let mut out = run::run_rounds(env, w, seed, seconds * LOOPBACK_SHARE, None, 1)?;
    let light_p50 = out.metrics.get("latency_light_p50_us").unwrap_or(0.0);
    let mut errors = Vec::new();

    let (added, relayed) = match w.topology {
        Topology::Router => router_added(
            env,
            w,
            seed,
            seconds * PASS_SHARE,
            &dir.join("router"),
            &mut errors,
        )?,
        Topology::Daemon => (0.0, 0.0),
    };

    let phase = open_phase(
        w,
        "tlight",
        seed,
        w.rate_light,
        seconds * PASS_SHARE,
        Tail::DrainBye,
    );
    let input = pass_input(&phase, w.rate_light);
    let pass = serve_pass(w, &phase, &input, &fresh_dir(dir.join("pass"))?)?;
    errors.extend(pass.errors.iter().cloned());

    // The layer replay runs after the pass, alone, as fast as it can,
    // alternately without spans and with them, so that
    // `trace.overhead_ratio` prices recording the spans. The first replay
    // with spans gives the layer metrics.
    let mut times: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut layers = None;
    for i in 0..2 * REPLAY_PAIRS {
        let record = i % 2 == 1;
        let replay_dir = fresh_dir(dir.join(format!("replay{i}")))?;
        let mut replay = Replay::new(w, &phase, &input, replay_dir.clone(), record)?;
        let started = Instant::now();
        for k in 0..input.requests.len() {
            replay.request(k)?;
        }
        times[usize::from(record)].push(started.elapsed().as_secs_f64());
        if record && layers.is_none() {
            errors.extend(replay.errors.iter().cloned());
            layers = Some(replay);
        } else {
            let _ = std::fs::remove_dir_all(&replay_dir);
        }
    }
    let layers = layers.expect("every other replay records spans");
    let requests = layers.line_bytes.len();
    check_spans(
        &layers.spans,
        &input,
        requests,
        layers.drains,
        w,
        &mut errors,
    );

    // The in-process pass must agree with the replay on every drain.
    {
        let mut served: Vec<(String, u128, u128)> = Vec::new();
        for text in pass
            .replies
            .iter()
            .filter(|t| t.starts_with("{\"type\":\"drained\""))
        {
            let v = Json::parse(text).map_err(|e| format!("in-process reply: {e}"))?;
            if v.get("checker_ok") != Some(&Json::Bool(true)) {
                errors.push(format!("in-process drain failed the checker: {text}"));
            }
            let field = |k: &str| v.get(k).and_then(Json::as_u128).unwrap_or(u128::MAX);
            let tenant = v.get("tenant").and_then(Json::as_str).unwrap_or_default();
            served.push((tenant.to_string(), field("flow"), field("cost")));
        }
        served.sort();
        let mut replayed = layers.drained.clone();
        replayed.sort();
        if served != replayed {
            errors.push("in-process drains disagree with the layer replay".to_string());
        }
    }

    // Journal read-back: every replayed tenant's journal, read and replayed.
    let mut replay_ns = 0u128;
    let mut records = 0usize;
    if w.journal {
        for p in &phase.plans {
            let path = calib_serve::journal::journal_path(&layers.dir, &p.name);
            let started = Instant::now();
            let recs = read_journal(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let session = replay(&recs).map_err(|e| e.to_string())?;
            replay_ns += started.elapsed().as_nanos();
            records += recs.len();
            if session.is_none() {
                errors.push(format!("{}: journal replayed to nothing", p.name));
            }
        }
    }

    let stats = layer_stats(&layers.spans);
    let mean_ns = |layer: usize| stats[layer].total_ns as f64 / stats[layer].count.max(1) as f64;
    let res: Vec<f64> = pass.residence_us.iter().flatten().copied().collect();
    let res_total_ns: f64 = res.iter().sum::<f64>() * 1e3;
    let busy_ns: u64 = [JSON, DECODE, ADMIT, JOURNAL, SESSION, CHECKPOINT, ENCODE]
        .iter()
        .map(|&l| stats[l].total_ns)
        .sum();
    let engine_steps: Vec<f64> = layers
        .spans
        .iter()
        .filter(|s| {
            let line = &input.lines[s.request].1;
            s.layer == ENGINE
                && (line.starts_with("{\"type\":\"tick\"")
                    || line.starts_with("{\"type\":\"drain\""))
        })
        .map(|s| s.ns() as f64)
        .collect();
    let session_overhead: Vec<f64> = {
        let mut per: HashMap<usize, (f64, f64)> = HashMap::new();
        for s in &layers.spans {
            let e = per.entry(s.request).or_default();
            match s.layer {
                SESSION => e.0 += s.ns() as f64,
                ENGINE => e.1 += s.ns() as f64,
                _ => {}
            }
        }
        per.values().map(|(s, e)| s - e).collect()
    };
    let line_bytes: usize = layers.line_bytes.iter().sum();
    let journal_bytes = layers.journal_bytes.iter().sum::<usize>() as u64
        + layers.checkpoint_bytes.iter().sum::<u64>();
    let res_p50 = percentile(&res, 0.5);
    let busy_drops = pass
        .replies
        .iter()
        .filter(|r| r.starts_with("{\"type\":\"error\"") && r.contains("\"code\":\"busy\""))
        .count();

    let m = &mut out.metrics;
    m.set(
        "json.parse_ns_per_kib",
        stats[JSON].total_ns as f64 / (line_bytes as f64 / 1024.0).max(1e-9),
        requests,
    );
    m.set("json.bytes_in", line_bytes as f64, requests);
    m.set(
        "json.mean_line_bytes",
        line_bytes as f64 / requests.max(1) as f64,
        requests,
    );
    m.set("protocol.decode_ns", mean_ns(DECODE), stats[DECODE].count);
    m.set("protocol.encode_ns", mean_ns(ENCODE), stats[ENCODE].count);
    m.set(
        "protocol.reply_bytes",
        mean(
            &layers
                .reply_bytes
                .iter()
                .map(|&b| b as f64)
                .collect::<Vec<_>>(),
        ),
        requests,
    );
    m.set("admit.ns_per_call", mean_ns(ADMIT), stats[ADMIT].count);
    let calls = layers.admitted + layers.refused;
    m.set(
        "admit.admit_ratio",
        if calls == 0 {
            0.0
        } else {
            layers.admitted as f64 / calls as f64
        },
        calls as usize,
    );
    m.set("admit.admitted", layers.admitted as f64, calls as usize);
    m.set("admit.refused", layers.refused as f64, calls as usize);
    m.set("journal.append_ns", mean_ns(JOURNAL), stats[JOURNAL].count);
    m.set(
        "journal.checkpoint_ns",
        mean_ns(CHECKPOINT),
        stats[CHECKPOINT].count,
    );
    m.set(
        "journal.bytes_per_record",
        journal_bytes as f64 / layers.journal_bytes.len().max(1) as f64,
        layers.journal_bytes.len(),
    );
    m.set(
        "journal.bytes_written",
        journal_bytes as f64,
        layers.journal_bytes.len(),
    );
    m.set(
        "journal.replay_ns_per_record",
        replay_ns as f64 / records.max(1) as f64,
        records,
    );
    m.set(
        "engine.step_ns_p50",
        percentile(&engine_steps, 0.5),
        engine_steps.len(),
    );
    m.set(
        "engine.step_ns_p99",
        percentile(&engine_steps, 0.99),
        engine_steps.len(),
    );
    m.set(
        "engine.ns_per_decision",
        engine_steps.iter().sum::<f64>() / layers.decisions.max(1) as f64,
        layers.decisions as usize,
    );
    m.set(
        "engine.queue_depth_mean",
        mean(&layers.depth),
        layers.depth.len(),
    );
    m.set(
        "engine.decisions",
        layers.decisions as f64,
        layers.decisions as usize,
    );
    m.set(
        "engine.busy_share",
        stats[ENGINE].total_ns as f64 / busy_ns.max(1) as f64,
        stats[ENGINE].count,
    );
    m.set(
        "engine.residence_share",
        stats[ENGINE].total_ns as f64 / res_total_ns.max(1.0),
        res.len(),
    );
    m.set(
        "session.overhead_ns",
        mean(&session_overhead),
        session_overhead.len(),
    );
    m.set(
        "checker.ns_per_drain",
        mean_ns(CHECKER),
        stats[CHECKER].count,
    );
    m.set("server.residence_p50_us", res_p50, res.len());
    m.set("server.residence_p99_us", percentile(&res, 0.99), res.len());
    m.set(
        "server.wait_share",
        1.0 - busy_ns as f64 / res_total_ns.max(1.0),
        res.len(),
    );
    m.set("server.busy_drops", busy_drops as f64, res.len());
    m.set("wire.overhead_p50_us", light_p50 - res_p50, res.len());
    m.set("router.added_p50_us", added, res.len());
    m.set("router.relayed", relayed, relayed as usize);
    if m.get("router.migrate_ms").is_none() {
        m.set("router.migrate_ms", 0.0, 0);
    }
    if m.get("recover_ms").is_none() {
        m.set("recover_ms", 0.0, 0);
    }
    m.set(
        "trace.overhead_ratio",
        percentile(&times[1], 0.5) / percentile(&times[0], 0.5).max(1e-9),
        2 * REPLAY_PAIRS,
    );

    println!(
        "properties {}: engine.queue_depth_mean {:.1} jobs, mean request line {:.0} bytes, engine share of residence {:.3} (of busy time {:.3}), journal bytes {}, admission {} admitted / {} refused",
        w.name,
        mean(&layers.depth),
        line_bytes as f64 / requests.max(1) as f64,
        m.get("engine.residence_share").unwrap_or(0.0),
        m.get("engine.busy_share").unwrap_or(0.0),
        journal_bytes,
        layers.admitted,
        layers.refused
    );

    // Spans and the summary go next to the run directory, which is removed.
    let stem = format!("{}-{seed}", w.name);
    let trace_path = env.out_dir.join(format!("trace-{stem}.perfetto-trace"));
    std::fs::write(
        &trace_path,
        perfetto(&layers.spans, &input, &phase, &w.name),
    )
    .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let summary = Json::Obj(
        LAYERS
            .iter()
            .zip(&stats)
            .map(|(name, s)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("spans", s.count.to_json()),
                        ("total_ns", s.total_ns.to_json()),
                        ("p50_ns", percentile(&s.ns, 0.5).to_json()),
                        ("p99_ns", percentile(&s.ns, 0.99).to_json()),
                    ]),
                )
            })
            .collect(),
    );
    let summary_path = env.out_dir.join(format!("layers-{stem}.json"));
    std::fs::write(&summary_path, summary.to_string_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", summary_path.display()))?;
    println!(
        "trace {}: {} and {}",
        w.name,
        trace_path.display(),
        summary_path.display()
    );
    out.errors.extend(errors);
    let failed = out.errors.len() as f64;
    out.metrics.set(
        "failed_ratio",
        failed / out.attempted.max(1) as f64,
        out.attempted as usize,
    );
    Ok(out)
}
