//! The loopback side: child daemon and router processes, the client
//! connection, and the phase driver. The driver uses two threads — the
//! calling thread sends, one scoped thread reads replies — over one
//! connection at a time.

use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use calib_core::json::Json;

use crate::plan::TenantPlan;

/// Closed-loop throughput is counted per bucket of this length.
pub const THROUGHPUT_BUCKET: Duration = Duration::from_millis(100);

/// How long any single reply may take before the run counts it missing.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// The scheduling priority (nice value) of every daemon and router thread.
/// The driver's two threads share the machine's cores with them; at the
/// default priority a sender woken for its next due time waited behind
/// busy daemon workers for a core, ran milliseconds late at p99, and that
/// lag set most of the run-to-run spread of the `deep-queue` latencies. A
/// client on another machine would not wait for the server's cores.
pub const SERVER_NICE: i32 = 10;

const PRIO_PROCESS: i32 = 0;

extern "C" {
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    fn getpriority(which: i32, who: u32) -> i32;
}

/// A child daemon or router. Dropping it kills the process and waits for
/// it, so no exit path leaves one running.
pub struct Proc {
    child: std::process::Child,
    /// The address it listens on.
    pub addr: String,
    /// From starting the process until it reported its address.
    pub startup: Duration,
    /// Its standard output, read past the `listening` line into `log`
    /// whenever the driver drains it.
    stdout: BufReader<UnixStream>,
    log: PathBuf,
}

impl Proc {
    /// Starts `bin` with `args` and waits for its `listening` line, read
    /// from a socket that is its standard output. The rest of its output
    /// goes to `log` as it is drained, its standard error to `log.err`.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<Proc, String> {
        let err_path = log.with_extension("err");
        let err =
            std::fs::File::create(&err_path).map_err(|e| format!("{}: {e}", err_path.display()))?;
        let (ours, theirs) = UnixStream::pair().map_err(|e| e.to_string())?;
        ours.set_read_timeout(Some(Duration::from_secs(20)))
            .map_err(|e| e.to_string())?;
        let started = Instant::now();
        // The `Command` and with it this process's copy of the child's end
        // are dropped at the end of the statement, so the read below ends
        // if the child exits.
        let child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(OwnedFd::from(theirs))
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut proc = Proc {
            child,
            addr: String::new(),
            startup: Duration::ZERO,
            stdout: BufReader::new(ours),
            log: log.to_path_buf(),
        };
        let mut first = String::new();
        let read = proc.stdout.read_line(&mut first);
        proc.startup = started.elapsed();
        if !matches!(read, Ok(n) if n > 0 && first.ends_with('\n')) {
            let _ = proc.child.kill();
            let _ = proc.child.wait();
            let err = std::fs::read_to_string(&err_path).unwrap_or_default();
            return Err(match read {
                Err(e) => format!("{} never reported its address: {e}", bin.display()),
                Ok(_) => format!("{} exited early: {err}", bin.display()),
            });
        }
        proc.stdout
            .get_ref()
            .set_nonblocking(true)
            .map_err(|e| e.to_string())?;
        proc.addr = Json::parse(first.trim())
            .ok()
            .and_then(|v| v.get("addr").and_then(Json::as_str).map(str::to_string))
            .ok_or_else(|| format!("{}: unexpected first line {first}", bin.display()))?;
        proc.lower_priority()?;
        Ok(proc)
    }

    /// Sets every thread of the process to [`SERVER_NICE`]. Nice values are
    /// per thread and a new thread inherits its creator's, so once every
    /// thread that exists has it, so do the ones started later (workers,
    /// connection readers, relays). The daemon may still be starting its
    /// workers here, hence the passes until no thread is left at another
    /// value. Done after the `listening` line, outside set-up time.
    fn lower_priority(&self) -> Result<(), String> {
        let tasks = format!("/proc/{}/task", self.child.id());
        for _ in 0..100 {
            let mut changed = false;
            let dir = std::fs::read_dir(&tasks).map_err(|e| format!("{tasks}: {e}"))?;
            for tid in dir.filter_map(|t| t.ok()?.file_name().to_str()?.parse::<u32>().ok()) {
                // SAFETY: plain system calls on integers. `getpriority`
                // returns the nice value (-1 is also its error value,
                // which only makes the pass repeat).
                unsafe {
                    if getpriority(PRIO_PROCESS, tid) != SERVER_NICE {
                        setpriority(PRIO_PROCESS, tid, SERVER_NICE);
                        changed = true;
                    }
                }
            }
            if !changed {
                return Ok(());
            }
        }
        Err(format!("{tasks}: threads kept appearing at another priority"))
    }

    /// Moves whatever the process has written since the last call into
    /// its log, so its output never fills the socket.
    pub fn drain_log(&mut self) {
        let mut text = Vec::new();
        let _ = self.stdout.read_to_end(&mut text);
        if !text.is_empty() {
            let _ = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.log)
                .and_then(|mut f| f.write_all(&text));
        }
    }

    /// Peak resident set (`VmHWM`), KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// `kill -9` and wait.
    pub fn kill(&mut self) {
        self.drain_log();
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Where each plan's replies land: plan `t`'s request with `seq` s
/// (`hello` is 0) owns slot `base[t] + s`. Plans are added in index order,
/// by the sending and the reading thread alike, so both number the slots
/// the same way.
#[derive(Default)]
pub struct Table {
    names: HashMap<String, usize>,
    base: Vec<usize>,
    slots: usize,
}

impl Table {
    /// Adds the next plan, with room for `entries` requests.
    pub fn add(&mut self, name: &str, entries: usize) {
        self.names.insert(name.to_string(), self.base.len());
        self.base.push(self.slots);
        self.slots += entries;
    }

    /// The slot of plan `t`'s request `seq`.
    pub fn slot(&self, t: usize, seq: u64) -> usize {
        self.base[t] + seq as usize
    }

    fn lookup(&self, tenant: &str, seq: u64) -> Option<(usize, usize)> {
        let t = *self.names.get(tenant)?;
        let slot = self.base[t] + usize::try_from(seq).ok()?;
        let end = self.base.get(t + 1).copied().unwrap_or(self.slots);
        (slot < end).then_some((t, slot))
    }
}

/// Error codes the daemon counts on its own side.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Refusals {
    pub busy: u64,
    pub shed: u64,
    pub rate_limited: u64,
}

impl Refusals {
    fn note(&mut self, code: &str) {
        match code {
            "busy" => self.busy += 1,
            "shed" => self.shed += 1,
            "rate-limited" => self.rate_limited += 1,
            _ => {}
        }
    }

    pub fn add(&mut self, other: Refusals) {
        self.busy += other.busy;
        self.shed += other.shed;
        self.rate_limited += other.rate_limited;
    }
}

/// A client connection to a daemon or router. Every line written is
/// counted, so the daemon's own request counter can be checked.
pub struct Conn {
    writer: BufWriter<TcpStream>,
    reader: Option<BufReader<TcpStream>>,
    /// Lines written, for the daemon-counter check.
    pub lines_sent: u64,
    /// Of those, lines a router answers itself (`ping`, `metrics`,
    /// `migrate`) instead of forwarding.
    pub router_local: u64,
    /// Calibrations + starts in every reply read.
    pub decisions: u64,
    /// Refusals in every reply read.
    pub refusals: Refusals,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            writer: BufWriter::with_capacity(1 << 16, stream),
            reader: Some(BufReader::with_capacity(1 << 16, read_half)),
            lines_sent: 0,
            router_local: 0,
            decisions: 0,
            refusals: Refusals::default(),
        })
    }

    /// Buffers one request line.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.lines_sent += 1;
        if [
            "{\"type\":\"ping\"",
            "{\"type\":\"metrics\"",
            "{\"type\":\"migrate\"",
        ]
        .iter()
        .any(|p| line.starts_with(p))
        {
            self.router_local += 1;
        }
        Ok(())
    }

    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Reads one reply on the calling thread.
    pub fn recv(&mut self) -> Result<Json, String> {
        let reader = self.reader.as_mut().ok_or("reader is lent out")?;
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => {
                let v = Json::parse(line.trim()).map_err(|e| format!("bad reply: {e}"))?;
                self.decisions += decisions_in(&v);
                if let Some(code) = error_code(&v) {
                    self.refusals.note(code);
                }
                Ok(v)
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Sends `line` and reads its reply, which must be of type `want`.
    pub fn roundtrip(&mut self, line: &str, want: &str) -> Result<Json, String> {
        self.send(line).map_err(|e| e.to_string())?;
        self.flush().map_err(|e| e.to_string())?;
        let v = self.recv()?;
        if v.get("type").and_then(Json::as_str) == Some(want) {
            Ok(v)
        } else {
            Err(format!("expected `{want}`, got {}", v.to_string_compact()))
        }
    }

    /// Sends every line, then reads one reply per line, in arrival order.
    pub fn exchange(&mut self, lines: &[String]) -> Result<Vec<Json>, String> {
        for l in lines {
            self.send(l).map_err(|e| e.to_string())?;
        }
        self.flush().map_err(|e| e.to_string())?;
        lines.iter().map(|_| self.recv()).collect()
    }
}

fn error_code(v: &Json) -> Option<&str> {
    if v.get("type").and_then(Json::as_str) == Some("error") {
        Some(v.get("code").and_then(Json::as_str).unwrap_or("?"))
    } else {
        None
    }
}

fn count(v: Option<&Json>, key: &str) -> u64 {
    v.and_then(|d| d.get(key))
        .and_then(Json::as_arr)
        .map_or(0, |a| a.len() as u64)
}

/// Calibrations + starts a reply delivers.
pub fn decisions_in(v: &Json) -> u64 {
    match v.get("type").and_then(Json::as_str) {
        Some("decisions") => count(Some(v), "calibrations") + count(Some(v), "starts"),
        Some("drained") => {
            let d = v.get("decisions");
            count(d, "calibrations") + count(d, "starts")
        }
        _ => 0,
    }
}

/// Makes the next generation of a closed phase's sessions on demand.
pub type More<'a> = &'a mut dyn FnMut() -> Vec<TenantPlan>;

/// How a phase sends.
pub enum Mode<'a> {
    /// Entry `k` of `order` (a [`crate::plan::merged_order`]) is due
    /// `k / rate` seconds after the phase starts, whatever the replies do.
    Open {
        rate: f64,
        order: &'a [(usize, usize)],
    },
    /// Plan `p` belongs to tenant slot `p % slots`; each slot runs its
    /// plans one after another and keeps `window` requests in flight. No
    /// plan step is sent after `deadline`: the slot's current plan gets its
    /// tail and the slot stops. A slot that runs past the last plan before
    /// the deadline gets a new generation of plans from `more`; without
    /// `more` it stops there.
    Closed {
        window: usize,
        deadline: Duration,
        slots: usize,
        more: Option<More<'a>>,
    },
}

/// What one phase produced.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Per answered request in order of due (open) or send (closed)
    /// time, from that time to the reply, microseconds.
    pub latency_us: Vec<f64>,
    /// Closed loop: decisions delivered per [`THROUGHPUT_BUCKET`] of the
    /// phase, complete buckets before the deadline only.
    pub decisions_per_bucket: Vec<u64>,
    /// Open loop: send time minus due time, microseconds.
    pub lag_us: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Error replies and missing replies, described.
    pub errors: Vec<String>,
    /// `drained` and `goodbye` replies, by plan and `seq`.
    pub captured: HashMap<(usize, u64), Json>,
    /// Plan steps sent per plan.
    pub cut: Vec<usize>,
    /// Plans that were sent anything (their tail included).
    pub touched: Vec<bool>,
    /// Closed loop: generations of plans made during the phase.
    pub generated: usize,
    /// First send to last reply, seconds.
    pub wall_s: f64,
}

/// Which extra requests follow each tenant's last plan step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    DrainBye,
    Drain,
    /// Parked: the session stays open.
    None,
}

impl Tail {
    pub fn kinds(self) -> &'static [&'static str] {
        match self {
            Tail::DrainBye => &["drain", "bye"],
            Tail::Drain => &["drain"],
            Tail::None => &[],
        }
    }
}

/// `(seq, line)` of a plan's entry `i` (see [`crate::plan::merged_order`])
/// when its session sends `cut` plan steps: `hello`, a step, or a tail
/// request.
pub fn entry_line(plan: &TenantPlan, i: usize, cut: usize, tail: Tail) -> (u64, Cow<'_, str>) {
    if i == 0 {
        return (0, Cow::Owned(plan.hello_line()));
    }
    if i <= cut {
        let step = &plan.steps[i - 1];
        return (step.seq, Cow::Borrowed(step.line.as_str()));
    }
    let k = i - cut - 1;
    let seq = (cut + 1 + k) as u64;
    (
        seq,
        Cow::Owned(plan.simple_line(tail.kinds()[k], Some(seq))),
    )
}

/// The sending thread's side of a phase: the reply slots of every plan,
/// and when each slot's request was due and sent.
struct Outbox {
    table: Table,
    /// Tells the reading thread about each plan added to `table`.
    adds: mpsc::Sender<(String, usize)>,
    tail: Tail,
    due: Vec<Option<Instant>>,
    sent: Vec<Option<Instant>>,
    errors: Vec<String>,
}

impl Outbox {
    fn add(&mut self, plans: &[TenantPlan]) {
        for p in plans {
            let entries = 1 + p.steps.len() + self.tail.kinds().len();
            self.table.add(&p.name, entries);
            let _ = self.adds.send((p.name.clone(), entries));
        }
        self.due.resize(self.table.slots, None);
        self.sent.resize(self.table.slots, None);
    }

    /// Buffers plan `t`'s entry `i` with `cut` plan steps; returns its slot.
    fn send(
        &mut self,
        conn: &mut Conn,
        plan: &TenantPlan,
        t: usize,
        i: usize,
        cut: usize,
    ) -> usize {
        let (seq, line) = entry_line(plan, i, cut, self.tail);
        if let Err(e) = conn.send(&line) {
            self.errors.push(format!("send: {e}"));
        }
        let slot = self.table.slot(t, seq);
        self.sent[slot] = Some(Instant::now());
        slot
    }
}

/// The closed loop's progress: per plan, what was sent; per slot, its
/// current plan and requests in flight.
struct Closed<'p, 'm> {
    plans: &'p mut Vec<TenantPlan>,
    more: Option<More<'m>>,
    window: usize,
    deadline: Duration,
    slots: usize,
    t0: Instant,
    hello_sent: Vec<bool>,
    steps_sent: Vec<usize>,
    tail_sent: Vec<usize>,
    current: Vec<usize>,
    inflight: Vec<usize>,
    generated: usize,
}

impl Closed<'_, '_> {
    /// Tops slot `s` up to `window` requests in flight; returns how many
    /// it sent.
    fn refill(&mut self, s: usize, conn: &mut Conn, out: &mut Outbox) -> usize {
        let tail_len = out.tail.kinds().len();
        let mut n = 0;
        let open = self.t0.elapsed() < self.deadline;
        while self.inflight[s] < self.window {
            let p = self.current[s];
            if p >= self.plans.len() {
                // Only a slot still inside its deadline asks for more.
                let Some(more) = self.more.as_mut().filter(|_| open) else {
                    break;
                };
                let from = self.plans.len();
                self.plans.extend(more());
                out.add(&self.plans[from..]);
                let len = self.plans.len();
                self.hello_sent.resize(len, false);
                self.steps_sent.resize(len, 0);
                self.tail_sent.resize(len, 0);
                self.generated += 1;
                continue;
            }
            let steps = self.plans[p].steps.len();
            let i = if !self.hello_sent[p] {
                // No session starts after the deadline.
                if !open {
                    break;
                }
                self.hello_sent[p] = true;
                0
            } else if open && self.steps_sent[p] < steps && self.tail_sent[p] == 0 {
                self.steps_sent[p] += 1;
                self.steps_sent[p]
            } else if self.tail_sent[p] < tail_len {
                self.tail_sent[p] += 1;
                self.steps_sent[p] + self.tail_sent[p]
            } else if open {
                self.current[s] += self.slots;
                continue;
            } else {
                break;
            };
            out.send(conn, &self.plans[p], p, i, self.steps_sent[p]);
            self.inflight[s] += 1;
            n += 1;
        }
        n
    }
}

/// Runs one phase over `conn`. Every session opens with its `hello`, and
/// every session that was opened gets its `tail` after its last plan step.
/// A closed phase may add plans to `plans` (see [`Mode::Closed`]).
pub fn run_phase(
    conn: &mut Conn,
    plans: &mut Vec<TenantPlan>,
    tail: Tail,
    mode: Mode<'_>,
) -> PhaseOut {
    let total = AtomicUsize::new(usize::MAX);
    let done = AtomicBool::new(false);
    let mut reader = conn.reader.take().expect("reader is home between phases");
    let (ack_tx, ack_rx) = mpsc::channel::<usize>();
    let (add_tx, add_rx) = mpsc::channel::<(String, usize)>();
    let mut outbox = Outbox {
        table: Table::default(),
        adds: add_tx,
        tail,
        due: Vec::new(),
        sent: Vec::new(),
        errors: Vec::new(),
    };
    outbox.add(plans);
    let closed_deadline = match &mode {
        Mode::Closed { deadline, .. } => Some(*deadline),
        Mode::Open { .. } => None,
    };
    let mut cut: Vec<usize> = plans.iter().map(|p| p.steps.len()).collect();
    let mut touched = vec![false; plans.len()];
    let mut generated = 0;

    let (read_out, t0, sent_n) = std::thread::scope(|scope| {
        let total = &total;
        let done = &done;
        let acks = closed_deadline.is_some().then_some(ack_tx);
        let handle = scope.spawn(move || {
            let out = read_replies(&mut reader, add_rx, total, done, acks);
            (reader, out)
        });
        let t0 = Instant::now();
        let sent_n = match mode {
            Mode::Open { rate, order } => {
                total.store(order.len(), Ordering::SeqCst);
                done.store(true, Ordering::SeqCst);
                for (k, &(t, i)) in order.iter().enumerate() {
                    let at = t0 + Duration::from_secs_f64(k as f64 / rate);
                    let now = Instant::now();
                    if at > now {
                        let _ = conn.flush();
                        std::thread::sleep(at - now);
                    }
                    let slot = outbox.send(conn, &plans[t], t, i, cut[t]);
                    outbox.due[slot] = Some(at);
                    touched[t] = true;
                }
                let _ = conn.flush();
                order.len()
            }
            Mode::Closed {
                window,
                deadline,
                slots,
                more,
            } => {
                let mut lp = Closed {
                    hello_sent: vec![false; plans.len()],
                    steps_sent: vec![0; plans.len()],
                    tail_sent: vec![0; plans.len()],
                    plans: &mut *plans,
                    more,
                    window,
                    deadline,
                    slots,
                    t0,
                    current: (0..slots).collect(),
                    inflight: vec![0; slots],
                    generated: 0,
                };
                let mut outstanding = 0usize;
                for s in 0..slots {
                    outstanding += lp.refill(s, conn, &mut outbox);
                }
                let _ = conn.flush();
                let mut sent_n = outstanding;
                while outstanding > 0 {
                    let Ok(first) = ack_rx.recv_timeout(REPLY_TIMEOUT) else {
                        outbox
                            .errors
                            .push(format!("{outstanding} replies never came"));
                        break;
                    };
                    // Every reply already read is refilled before one flush.
                    let mut n = 0;
                    for t in std::iter::once(first).chain(ack_rx.try_iter()) {
                        outstanding -= 1;
                        let s = t % slots;
                        lp.inflight[s] -= 1;
                        n += lp.refill(s, conn, &mut outbox);
                    }
                    outstanding += n;
                    sent_n += n;
                    if n > 0 {
                        let _ = conn.flush();
                    }
                }
                cut = lp.steps_sent;
                touched = lp.hello_sent;
                generated = lp.generated;
                total.store(sent_n, Ordering::SeqCst);
                done.store(true, Ordering::SeqCst);
                // Wakes the reader if it already holds every reply.
                let _ = conn.send("{\"type\":\"ping\"}");
                let _ = conn.flush();
                sent_n
            }
        };
        let (reader, out) = handle.join().expect("reply reader panicked");
        conn.reader = Some(reader);
        (out, t0, sent_n)
    });

    let mut out = PhaseOut {
        attempted: sent_n as u64,
        errors: read_out.errors,
        cut,
        touched,
        generated,
        ..PhaseOut::default()
    };
    out.errors.extend(outbox.errors);
    conn.decisions += read_out.decisions;
    conn.refusals.add(read_out.refusals);
    let mut last = t0;
    let mut timed: Vec<(Instant, f64)> = Vec::new();
    if let Some(deadline) = closed_deadline {
        let buckets = (deadline.as_secs_f64() / THROUGHPUT_BUCKET.as_secs_f64()).floor() as usize;
        out.decisions_per_bucket = vec![0; buckets.min(1 << 20)];
    }
    for slot in 0..outbox.table.slots {
        let Some(s) = outbox.sent[slot] else { continue };
        let start = outbox.due[slot].unwrap_or(s);
        match read_out.recv.get(slot).copied().flatten() {
            Some(r) => {
                last = last.max(r);
                timed.push((
                    start,
                    r.saturating_duration_since(start).as_secs_f64() * 1e6,
                ));
                let b = (r.saturating_duration_since(t0).as_secs_f64()
                    / THROUGHPUT_BUCKET.as_secs_f64()) as usize;
                if let Some(n) = out.decisions_per_bucket.get_mut(b) {
                    *n += read_out.slot_decisions[slot];
                }
            }
            None => out.errors.push(format!("slot {slot}: no reply")),
        }
        if let Some(d) = outbox.due[slot] {
            out.lag_us
                .push(s.saturating_duration_since(d).as_secs_f64() * 1e6);
        }
    }
    timed.sort_by_key(|&(at, _)| at);
    out.latency_us = timed.into_iter().map(|(_, l)| l).collect();
    out.wall_s = last.saturating_duration_since(t0).as_secs_f64();
    out.captured = read_out.captured.into_iter().collect();
    out
}

/// What the reader saw in one phase.
struct ReadOut {
    recv: Vec<Option<Instant>>,
    /// Decisions in each slot's reply.
    slot_decisions: Vec<u64>,
    decisions: u64,
    errors: Vec<String>,
    refusals: Refusals,
    captured: Vec<((usize, u64), Json)>,
    got: usize,
}

/// Reads the phase's replies. Each reply's plan is acked on `acks` (the
/// closed loop); plans reach the reader's own [`Table`] over `adds`.
fn read_replies(
    reader: &mut BufReader<TcpStream>,
    adds: mpsc::Receiver<(String, usize)>,
    total: &AtomicUsize,
    done: &AtomicBool,
    acks: Option<mpsc::Sender<usize>>,
) -> ReadOut {
    let mut table = Table::default();
    let mut out = ReadOut {
        recv: Vec::new(),
        slot_decisions: Vec::new(),
        decisions: 0,
        errors: Vec::new(),
        refusals: Refusals::default(),
        captured: Vec::new(),
        got: 0,
    };
    let take_adds = |table: &mut Table, out: &mut ReadOut| {
        for (name, entries) in adds.try_iter() {
            table.add(&name, entries);
        }
        out.recv.resize(table.slots, None);
        out.slot_decisions.resize(table.slots, 0);
    };
    take_adds(&mut table, &mut out);
    // The closed loop ends with a `ping`; its `pong` must be read here, or
    // it would be taken for the next phase's first reply.
    let mut pong_pending = acks.is_some();
    let mut line = String::new();
    loop {
        if done.load(Ordering::SeqCst) && out.got >= total.load(Ordering::SeqCst) && !pong_pending {
            break;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                out.errors.push("connection closed mid-phase".to_string());
                break;
            }
            Ok(_) => {}
            Err(e) => {
                out.errors.push(format!("read: {e}"));
                break;
            }
        }
        let at = Instant::now();
        let text = line.trim();
        // `ok` and `decisions` replies are most of the traffic; reading
        // them without a JSON tree keeps the driver's own CPU use down.
        let (ty, tenant, seq, parsed) = match scan(text) {
            Some((ty @ ("ok" | "decisions" | "pong"), tenant, seq)) => (ty, tenant, seq, None),
            _ => match Json::parse(text) {
                Ok(v) => {
                    let ty = match v.get("type").and_then(Json::as_str) {
                        Some("pong") => "pong",
                        _ => "",
                    };
                    let tenant = v
                        .get("tenant")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string();
                    let seq = v.get("seq").and_then(Json::as_u64).unwrap_or(0);
                    (ty, "", seq, Some((v, tenant)))
                }
                Err(e) => {
                    out.errors.push(format!("bad reply: {e}"));
                    continue;
                }
            },
        };
        if ty == "pong" {
            pong_pending = false;
            continue;
        }
        let tenant = parsed.as_ref().map_or(tenant, |(_, t)| t.as_str());
        // A plan is added before its first request is sent, so a reply
        // from a plan not yet known here finds it among the new ones.
        let found = table.lookup(tenant, seq).or_else(|| {
            take_adds(&mut table, &mut out);
            table.lookup(tenant, seq)
        });
        let Some((t, slot)) = found else {
            out.errors.push(format!("unmatched reply {text}"));
            continue;
        };
        if out.recv[slot].is_some() {
            out.errors.push(format!("second reply for slot {slot}"));
            continue;
        }
        out.recv[slot] = Some(at);
        out.got += 1;
        if let Some(tx) = &acks {
            let _ = tx.send(t);
        }
        match parsed {
            None if ty == "decisions" => {
                out.slot_decisions[slot] = text.matches("\"start\":").count() as u64
            }
            None => {}
            Some((v, _)) => {
                out.slot_decisions[slot] = decisions_in(&v);
                if let Some(code) = error_code(&v) {
                    out.refusals.note(code);
                    out.errors.push(text.to_string());
                }
                if matches!(
                    v.get("type").and_then(Json::as_str),
                    Some("drained" | "goodbye")
                ) {
                    out.captured.push(((t, seq), v));
                }
            }
        }
        out.decisions += out.slot_decisions[slot];
    }
    out
}

/// `(type, tenant, seq)` of a compact reply line that starts with its
/// `type` and ends with its `seq`, read without building a JSON tree.
pub fn scan(line: &str) -> Option<(&str, &str, u64)> {
    let rest = line.strip_prefix("{\"type\":\"")?;
    let ty = &rest[..rest.find('"')?];
    let tenant = match line.find("\"tenant\":\"") {
        Some(at) => {
            let from = at + "\"tenant\":\"".len();
            &line[from..from + line[from..].find('"')?]
        }
        None => "",
    };
    let digits = line.strip_suffix('}')?;
    let at = digits.rfind(",\"seq\":")?;
    let seq = digits[at + ",\"seq\":".len()..].parse().ok()?;
    Some((ty, tenant, seq))
}

/// A scratch directory for one run's logs and journals.
pub fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
