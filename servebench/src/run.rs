//! The untraced run: set-up, the `light`, `heavy` and `closed` phases over
//! loopback TCP, the workload's extra phase (`recover` or `migrate`), and
//! the correctness gate.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use calib_core::json::Json;
use calib_core::Cost;
use calib_online::run_online;

use crate::config::{Topology, Workload};
use crate::plan::{merged_order, session_plans, Sessions, TenantPlan};
use crate::report::{interquartile_mean, mean, percentile, windowed_percentile, Metrics};
use crate::wire::{fresh_dir, run_phase, Conn, Mode, PhaseOut, Proc, Tail, THROUGHPUT_BUCKET};
use crate::Env;

/// Share of `--seconds` each of the three timed phases runs for, summed
/// over rounds.
pub const PHASE_SHARE: f64 = 0.28;
/// Rounds of the three phases per run.
pub const ROUNDS: usize = 5;
/// Throwaway fleets set up before each phase, besides the fleet that
/// serves the phases; `setup_s` is the median of every set-up of the run.
pub const SETUPS_PER_PHASE: usize = 3;
/// A run whose open-loop sender was this late at p99 did not offer the
/// load it claims: it is invalid, not slow, and fails.
pub const GEN_LAG_LIMIT_US: f64 = 20_000.0;

/// What a run measured and every failure it saw.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub errors: Vec<String>,
    pub attempted: u64,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.errors.len() as u64
    }
}

/// The daemons (and router) of one workload.
pub struct Fleet {
    pub daemons: Vec<Proc>,
    pub router: Option<Proc>,
    dir: PathBuf,
    generation: usize,
}

fn daemon_args(w: &Workload, dir: &Path) -> Vec<String> {
    let mut args: Vec<String> = ["--listen", "127.0.0.1:0", "--run-forever"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    args.extend(w.daemon_flags.iter().cloned());
    if w.journal {
        args.push("--journal-dir".into());
        args.push(dir.join("journal").display().to_string());
    }
    args
}

impl Fleet {
    /// Starts the workload's daemons and, when routed, its router, with
    /// state under `dir`.
    pub fn spawn(env: &Env, w: &Workload, dir: &Path) -> Result<Fleet, String> {
        let mut fleet = Fleet::spawn_shards(env, w, dir)?;
        if w.topology == Topology::Router {
            fleet.start_router(env, w)?;
        }
        Ok(fleet)
    }

    /// Starts the daemons only: one, or two shards sharing a journal
    /// directory when the workload is routed.
    pub fn spawn_shards(env: &Env, w: &Workload, dir: &Path) -> Result<Fleet, String> {
        std::fs::create_dir_all(dir.join("journal")).map_err(|e| e.to_string())?;
        let shards = match w.topology {
            Topology::Daemon => 1,
            Topology::Router => 2,
        };
        let mut daemons = Vec::new();
        for i in 0..shards {
            let log = dir.join(format!("daemon{i}-0.log"));
            daemons.push(Proc::spawn(&env.serve_bin, &daemon_args(w, dir), &log)?);
        }
        Ok(Fleet {
            daemons,
            router: None,
            dir: dir.to_path_buf(),
            generation: 0,
        })
    }

    /// Puts the router in front of the running shards.
    pub fn start_router(&mut self, env: &Env, w: &Workload) -> Result<(), String> {
        let mut args: Vec<String> = vec![
            "--listen".into(),
            "127.0.0.1:0".into(),
            "--run-forever".into(),
        ];
        for d in &self.daemons {
            args.push("--shard".into());
            args.push(d.addr.clone());
        }
        args.extend(w.router_flags.iter().cloned());
        self.router = Some(Proc::spawn(
            &env.router_bin,
            &args,
            &self.dir.join("router.log"),
        )?);
        Ok(())
    }

    /// Where clients connect.
    pub fn addr(&self) -> &str {
        match &self.router {
            Some(r) => &r.addr,
            None => &self.daemons[0].addr,
        }
    }

    /// `kill -9` the lone daemon and start it again on the same journal.
    pub fn crash_and_restart(&mut self, env: &Env, w: &Workload) -> Result<(), String> {
        self.daemons[0].kill();
        self.generation += 1;
        let log = self.dir.join(format!("daemon0-{}.log", self.generation));
        self.daemons[0] = Proc::spawn(&env.serve_bin, &daemon_args(w, &self.dir), &log)?;
        Ok(())
    }

    /// Every process, router last.
    fn procs(&mut self) -> impl Iterator<Item = &mut Proc> {
        self.daemons.iter_mut().chain(self.router.iter_mut())
    }

    /// From starting each process until it listened, summed over the
    /// fleet, seconds. The driver's own file work between the processes is
    /// left out.
    pub fn startup_s(&mut self) -> f64 {
        self.procs().map(|p| p.startup.as_secs_f64()).sum()
    }

    /// Moves every process's output into its log.
    pub fn drain_logs(&mut self) {
        self.procs().for_each(Proc::drain_log);
    }

    /// Summed `VmHWM` of every process, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let kib: u64 = self
            .daemons
            .iter()
            .chain(self.router.iter())
            .filter_map(Proc::peak_rss_kib)
            .sum();
        kib as f64 / 1024.0
    }
}

/// The plans and open-loop order of one phase.
pub struct PhasePlan {
    pub plans: Vec<TenantPlan>,
    pub order: Vec<(usize, usize)>,
}

/// Whole generations of sessions holding about `rate * secs` requests,
/// tails included, and their merged order.
pub fn open_phase(
    w: &Workload,
    tag: &str,
    seed: u64,
    rate: f64,
    secs: f64,
    tail: Tail,
) -> PhasePlan {
    let per_generation = w.tenants.len() * (w.session_steps + tail.kinds().len());
    let generations = ((rate * secs / per_generation as f64).round() as usize).max(1);
    let plans = session_plans(w, tag, seed, generations);
    let order = merged_order(&plans, tail.kinds().len());
    PhasePlan { plans, order }
}

/// `drained`/`goodbye` of every tenant against a batch run of exactly the
/// jobs it was sent. The batch runs are split over the calling thread and
/// one more (the phase's reader thread has ended by now).
pub fn check_phase(
    name: &str,
    plans: &[TenantPlan],
    out: &PhaseOut,
    tail: Tail,
    errors: &mut Vec<String>,
) {
    let touched: Vec<usize> = (0..plans.len()).filter(|&t| out.touched[t]).collect();
    let batch = |ts: &[usize]| -> Vec<(usize, Cost, Cost)> {
        ts.iter()
            .map(|&t| {
                let p = &plans[t];
                let r = run_online(
                    &p.instance_upto(out.cut[t]),
                    p.spec.cal_cost,
                    p.spec.algorithm.scheduler().as_mut(),
                );
                (t, r.flow, r.cost)
            })
            .collect()
    };
    let (first, second) = touched.split_at(touched.len() / 2);
    let expected: Vec<(usize, Cost, Cost)> = std::thread::scope(|scope| {
        let other = scope.spawn(|| batch(second));
        let mut mine = batch(first);
        mine.extend(other.join().expect("batch-run thread panicked"));
        mine
    });
    for (t, flow, cost) in expected {
        let plan = &plans[t];
        let cut = out.cut[t] as u64;
        let mut check = |seq: u64, want: &str| match out.captured.get(&(t, seq)) {
            Some(reply) => check_accounting(reply, want, flow, cost, errors),
            None => errors.push(format!("{name}/{}: no `{want}` reply", plan.name)),
        };
        check(cut + 1, "drained");
        if tail == Tail::DrainBye {
            check(cut + 2, "goodbye");
        }
    }
}

/// One drained or goodbye accounting against the batch engine.
pub fn check_accounting(
    reply: &Json,
    want: &str,
    flow: Cost,
    cost: Cost,
    errors: &mut Vec<String>,
) {
    let tenant = reply.get("tenant").and_then(Json::as_str).unwrap_or("?");
    if reply.get("type").and_then(Json::as_str) != Some(want) {
        errors.push(format!(
            "{tenant}: expected `{want}`, got {}",
            reply.to_string_compact()
        ));
        return;
    }
    if reply.get("checker_ok") != Some(&Json::Bool(true)) {
        errors.push(format!(
            "{tenant}: checker rejected the schedule: {:?}",
            reply.get("violations")
        ));
    }
    let got_flow = reply.get("flow").and_then(Json::as_u128);
    let got_cost = reply.get("cost").and_then(Json::as_u128);
    if got_flow != Some(flow) || got_cost != Some(cost) {
        errors.push(format!(
            "{tenant}: {want} flow/cost {got_flow:?}/{got_cost:?}, batch run {flow}/{cost}"
        ));
    }
}

/// The daemon's (or fleet's) counters against the driver's own counts.
/// Through the router, `migrations` (an `evict` and an `adopt` each) and
/// this call's `metrics` to both shards are the shards' extra requests.
pub fn check_counters(conn: &mut Conn, routed: bool, migrations: u64, errors: &mut Vec<String>) {
    let snapshot = match conn.roundtrip("{\"type\":\"metrics\"}", "metrics") {
        Ok(s) => s,
        Err(e) => {
            errors.push(format!("metrics: {e}"));
            return;
        }
    };
    let global = |key: &str| {
        snapshot
            .get("global")
            .and_then(|g| g.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX)
    };
    let mut expect = |what: &str, daemon: u64, driver: u64| {
        if daemon != driver {
            errors.push(format!("counter {what}: server {daemon}, driver {driver}"));
        }
    };
    expect("decisions", global("decisions"), conn.decisions);
    expect("busy_drops", global("busy_drops"), conn.refusals.busy);
    expect("sheds", global("sheds"), conn.refusals.shed);
    expect(
        "rate_limited",
        global("rate_limited"),
        conn.refusals.rate_limited,
    );
    if routed {
        let router = |key: &str| {
            snapshot
                .get("router")
                .and_then(|g| g.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(u64::MAX)
        };
        let forwarded = conn.lines_sent - conn.router_local;
        expect("router.requests", router("requests"), conn.lines_sent);
        expect(
            "router.forwarded_requests",
            router("forwarded_requests"),
            forwarded,
        );
        expect(
            "requests",
            global("requests"),
            forwarded + 2 * migrations + 2,
        );
    } else {
        expect("requests", global("requests"), conn.lines_sent);
    }
}

/// Moves every idle tenant to the other shard with `migrate`, then
/// resumes it there and says `bye`. Returns the migrate round trips, ms.
pub fn migrate_all(
    conn: &mut Conn,
    phases: &[(&[TenantPlan], &PhaseOut)],
    router_seed: u64,
    vnodes: usize,
    errors: &mut Vec<String>,
) -> Vec<f64> {
    let ring = calib_router::Ring::new(2, vnodes, router_seed);
    let mut millis = Vec::new();
    for (plans, out) in phases {
        for (t, plan) in plans.iter().enumerate() {
            if !out.touched[t] {
                continue;
            }
            let to = 1 - ring.owner(&plan.name);
            let line = format!(
                "{{\"type\":\"migrate\",\"tenant\":\"{}\",\"to\":{to}}}",
                plan.name
            );
            let started = Instant::now();
            match conn.roundtrip(&line, "migrated") {
                Ok(_) => millis.push(started.elapsed().as_secs_f64() * 1e3),
                Err(e) => errors.push(format!("migrate {}: {e}", plan.name)),
            }
            let bye_seq = out.cut[t] as u64 + 2;
            let lines = [
                plan.simple_line("resume", None),
                plan.simple_line("bye", Some(bye_seq)),
            ];
            match conn.exchange(&lines) {
                Ok(replies) => {
                    for r in replies {
                        if r.get("type").and_then(Json::as_str) == Some("error") {
                            errors.push(format!(
                                "after migrating {}: {}",
                                plan.name,
                                r.to_string_compact()
                            ));
                        }
                    }
                }
                Err(e) => errors.push(format!("after migrating {}: {e}", plan.name)),
            }
        }
    }
    millis
}

fn flag(flags: &[String], name: &str) -> Option<u64> {
    let at = flags.iter().position(|f| f == name)?;
    flags.get(at + 1)?.parse().ok()
}

/// The router's ring parameters from its pinned flags.
pub fn ring_params(w: &Workload) -> (u64, usize) {
    (
        flag(&w.router_flags, "--seed").unwrap_or(0),
        flag(&w.router_flags, "--vnodes").unwrap_or(64) as usize,
    )
}

/// The `recover` phase: park fresh tenants, `kill -9` the daemon, restart
/// it on the same journal, then resume and drain them. Returns one
/// restart-to-verified time per cycle, ms.
fn recover_cycles(
    env: &Env,
    w: &Workload,
    seed: u64,
    fleet: &mut Fleet,
    conn: &mut Conn,
    attempted: &mut u64,
    errors: &mut Vec<String>,
) -> Result<Vec<f64>, String> {
    let Some(spec) = &w.recover else {
        return Ok(Vec::new());
    };
    let mut parked_workload = w.clone();
    parked_workload.session_steps = spec.steps;
    parked_workload.tenants.truncate(spec.tenants);
    let mut times = Vec::new();
    for cycle in 0..spec.cycles {
        let mut plans = session_plans(&parked_workload, &format!("park{cycle}"), seed, 1);
        let slots = plans.len();
        let parked = run_phase(
            conn,
            &mut plans,
            Tail::None,
            Mode::Closed {
                window: w.closed_window,
                deadline: Duration::MAX,
                slots,
                more: None,
            },
        );
        errors.extend(parked.errors);
        let expected: Vec<_> = plans
            .iter()
            .map(|p| {
                run_online(
                    &p.instance_upto(p.steps.len()),
                    p.spec.cal_cost,
                    p.spec.algorithm.scheduler().as_mut(),
                )
            })
            .collect();
        check_counters(conn, false, 0, errors);
        *attempted += conn.lines_sent;

        let started = Instant::now();
        fleet.crash_and_restart(env, w)?;
        *conn = Conn::connect(fleet.addr())?;
        let mut lines = Vec::new();
        for p in &plans {
            lines.push(p.simple_line("resume", None));
            lines.push(p.simple_line("drain", Some(p.steps.len() as u64 + 1)));
        }
        let replies = conn.exchange(&lines)?;
        for (i, p) in plans.iter().enumerate() {
            let reply = |ty: &str| {
                replies.iter().find(|r| {
                    r.get("tenant").and_then(Json::as_str) == Some(p.name.as_str())
                        && r.get("type").and_then(Json::as_str) == Some(ty)
                })
            };
            let last_seq = reply("resumed")
                .and_then(|r| r.get("last_seq"))
                .and_then(Json::as_u64);
            if last_seq != Some(p.steps.len() as u64) {
                errors.push(format!("{}: resume reported last_seq {last_seq:?}", p.name));
            }
            match reply("drained") {
                Some(r) => {
                    check_accounting(r, "drained", expected[i].flow, expected[i].cost, errors)
                }
                None => errors.push(format!("{}: no `drained` after resume", p.name)),
            }
        }
        times.push(started.elapsed().as_secs_f64() * 1e3);
        let byes: Vec<String> = plans
            .iter()
            .map(|p| p.simple_line("bye", Some(p.steps.len() as u64 + 2)))
            .collect();
        let replies = conn.exchange(&byes)?;
        for (i, p) in plans.iter().enumerate() {
            match replies
                .iter()
                .find(|r| r.get("tenant").and_then(Json::as_str) == Some(p.name.as_str()))
            {
                Some(r) => {
                    check_accounting(r, "goodbye", expected[i].flow, expected[i].cost, errors)
                }
                None => errors.push(format!("{}: no `goodbye`", p.name)),
            }
        }
    }
    Ok(times)
}

/// One untraced run of `w`.
pub fn run(
    env: &Env,
    w: &Workload,
    seed: u64,
    seconds: f64,
    connect: Option<&str>,
) -> Result<Outcome, String> {
    run_rounds(env, w, seed, seconds, connect, ROUNDS)
}

/// [`run`] with `rounds` rounds in `seconds`.
pub fn run_rounds(
    env: &Env,
    w: &Workload,
    seed: u64,
    seconds: f64,
    connect: Option<&str>,
    rounds: usize,
) -> Result<Outcome, String> {
    let dir = fresh_dir(
        env.out_dir
            .join(format!("run-{}-{}", w.name, std::process::id())),
    )?;
    let result = run_in(env, w, seed, seconds, connect, &dir, rounds);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// One round: a `light`, a `heavy` and a `closed` window, each on fresh
/// tenants.
struct Round {
    light: PhasePlan,
    heavy: PhasePlan,
    closed: Vec<TenantPlan>,
}

/// What one round measured.
struct RoundOut {
    light: PhaseOut,
    heavy: PhaseOut,
    closed: PhaseOut,
}

/// Spawns a fleet under `dir`, checks that it answers, and returns it, a
/// connection to it and its set-up time. The `ping` is not timed: the
/// daemon's accept loop polls every 5 ms, and whether the first connect
/// waits out a poll is a race, not a cost of setting up.
fn set_up(env: &Env, w: &Workload, dir: &Path) -> Result<(Fleet, Conn, f64), String> {
    let mut fleet = Fleet::spawn(env, w, dir)?;
    let startup = fleet.startup_s();
    let mut conn = Conn::connect(fleet.addr())?;
    conn.roundtrip("{\"type\":\"ping\"}", "pong")?;
    Ok((fleet, conn, startup))
}

/// [`SETUPS_PER_PHASE`] throwaway set-ups, each from the same state: no
/// earlier fleet or its journals left behind.
fn sample_setups(
    env: &Env,
    w: &Workload,
    dir: &Path,
    tag: &str,
    setups: &mut Vec<f64>,
) -> Result<(), String> {
    for k in 0..SETUPS_PER_PHASE {
        let sample_dir = dir.join(format!("setup-{tag}-{k}"));
        setups.push(set_up(env, w, &sample_dir)?.2);
        let _ = std::fs::remove_dir_all(&sample_dir);
    }
    Ok(())
}

fn run_in(
    env: &Env,
    w: &Workload,
    seed: u64,
    seconds: f64,
    connect: Option<&str>,
    dir: &Path,
    round_count: usize,
) -> Result<Outcome, String> {
    let window = seconds * PHASE_SHARE / round_count as f64;
    let routed = w.topology == Topology::Router;
    let tail = if routed { Tail::Drain } else { Tail::DrainBye };
    let mut out = Outcome::default();
    let errors = &mut out.errors;

    // Set-up: the fleet that serves the phases, then SETUPS_PER_PHASE
    // throwaway fleets before each phase, so the set-ups sample the whole
    // run rather than its first moments.
    let mut setups = Vec::new();
    let (mut fleet, mut conn) = match connect {
        Some(addr) => {
            let mut conn = Conn::connect(addr)?;
            conn.roundtrip("{\"type\":\"ping\"}", "pong")?;
            (None, conn)
        }
        None => {
            let (fleet, conn, startup) = set_up(env, w, &dir.join("fleet"))?;
            setups.push(startup);
            (Some(fleet), conn)
        }
    };

    // Rounds interleave the phases, so a slow spell on the machine lands in
    // one round of each metric instead of all of one metric.
    let mut rounds = Vec::new();
    let mut outs = Vec::new();
    // The most generations a closed phase has used so far.
    let mut closed_used = 0usize;
    let spawned = fleet.is_some();
    for r in 0..round_count {
        let mut light = open_phase(w, &format!("r{r}light"), seed, w.rate_light, window, tail);
        let mut heavy = open_phase(w, &format!("r{r}heavy"), seed, w.rate_heavy, window, tail);
        // The closed phase's plans are made before its window, half as
        // many again as an earlier closed phase used; a slot that runs past
        // them makes more on the spot, so the phase never runs dry. The
        // first round's closed phase starts from one generation: it sizes
        // the later ones and is left out of `decisions_per_sec`.
        let mut sessions = Sessions::new(w, &format!("r{r}closed"), seed);
        let ahead = (closed_used * 3).div_ceil(2).max(1);
        let mut closed: Vec<TenantPlan> = (0..ahead)
            .flat_map(|_| sessions.next_generation())
            .collect();
        if spawned {
            sample_setups(env, w, dir, &format!("r{r}light"), &mut setups)?;
        }
        let light_out = run_phase(
            &mut conn,
            &mut light.plans,
            tail,
            Mode::Open {
                rate: w.rate_light,
                order: &light.order,
            },
        );
        if spawned {
            sample_setups(env, w, dir, &format!("r{r}heavy"), &mut setups)?;
        }
        let heavy_out = run_phase(
            &mut conn,
            &mut heavy.plans,
            tail,
            Mode::Open {
                rate: w.rate_heavy,
                order: &heavy.order,
            },
        );
        if spawned {
            sample_setups(env, w, dir, &format!("r{r}closed"), &mut setups)?;
        }
        let mut closed_out = run_phase(
            &mut conn,
            &mut closed,
            tail,
            Mode::Closed {
                window: w.closed_window,
                deadline: Duration::from_secs_f64(window),
                slots: w.tenants.len(),
                more: Some(&mut || sessions.next_generation()),
            },
        );
        // Plans made but never started are dropped.
        let used = closed_out
            .touched
            .iter()
            .rposition(|&t| t)
            .map_or(0, |p| p + 1);
        closed.truncate(used);
        closed_out.touched.truncate(used);
        closed_out.cut.truncate(used);
        closed_used = closed_used.max(used.div_ceil(w.tenants.len()));
        if let Some(f) = fleet.as_mut() {
            f.drain_logs();
        }
        rounds.push(Round {
            light,
            heavy,
            closed,
        });
        outs.push(RoundOut {
            light: light_out,
            heavy: heavy_out,
            closed: closed_out,
        });
    }
    let mut migrations = 0;
    let mut migrate_ms = Vec::new();
    if routed {
        let (router_seed, vnodes) = ring_params(w);
        let phases: Vec<(&[TenantPlan], &PhaseOut)> = rounds
            .iter()
            .zip(&outs)
            .flat_map(|(r, o)| {
                [
                    (&r.light.plans[..], &o.light),
                    (&r.heavy.plans[..], &o.heavy),
                    (&r.closed[..], &o.closed),
                ]
            })
            .collect();
        migrate_ms = migrate_all(&mut conn, &phases, router_seed, vnodes, errors);
        migrations = migrate_ms.len() as u64;
    }
    check_counters(&mut conn, routed, migrations, errors);
    let peak_rss_mb = fleet.as_ref().map_or(0.0, Fleet::peak_rss_mb);
    let mut recover_ms = Vec::new();
    if let Some(f) = fleet.as_mut() {
        recover_ms = recover_cycles(env, w, seed, f, &mut conn, &mut out.attempted, errors)?;
        if !recover_ms.is_empty() {
            check_counters(&mut conn, false, 0, errors);
        }
    }
    out.attempted += conn.lines_sent;
    drop(conn);
    drop(fleet);

    for (r, (round, o)) in rounds.iter().zip(&outs).enumerate() {
        for (name, plans, phase_out) in [
            ("light", &round.light.plans, &o.light),
            ("heavy", &round.heavy.plans, &o.heavy),
            ("closed", &round.closed, &o.closed),
        ] {
            let name = format!("round {r} {name}");
            errors.extend(phase_out.errors.iter().map(|e| format!("{name}: {e}")));
            check_phase(&name, plans, phase_out, tail, errors);
        }
    }

    let count = |f: &dyn Fn(&RoundOut) -> usize| -> usize { outs.iter().map(f).sum() };
    let m = &mut out.metrics;
    // The first round's closed phase only sizes the later ones.
    let buckets: Vec<f64> = outs
        .iter()
        .skip(1)
        .flat_map(|o| o.closed.decisions_per_bucket.iter())
        .map(|&n| n as f64 / THROUGHPUT_BUCKET.as_secs_f64())
        .collect();
    if !buckets.is_empty() {
        m.set(
            "decisions_per_sec",
            interquartile_mean(&buckets),
            buckets.len(),
        );
    }
    let light: Vec<&[f64]> = outs.iter().map(|o| &o.light.latency_us[..]).collect();
    let heavy: Vec<&[f64]> = outs.iter().map(|o| &o.heavy.latency_us[..]).collect();
    let light_n = count(&|o| o.light.latency_us.len());
    let heavy_n = count(&|o| o.heavy.latency_us.len());
    m.set(
        "latency_light_p50_us",
        windowed_percentile(&light, 0.5),
        light_n,
    );
    m.set(
        "latency_light_p90_us",
        windowed_percentile(&light, 0.9),
        light_n,
    );
    m.set(
        "latency_light_p99_us",
        windowed_percentile(&light, 0.99),
        light_n,
    );
    m.set(
        "latency_heavy_p50_us",
        windowed_percentile(&heavy, 0.5),
        heavy_n,
    );
    m.set(
        "latency_heavy_p90_us",
        windowed_percentile(&heavy, 0.9),
        heavy_n,
    );
    m.set(
        "latency_heavy_p99_us",
        windowed_percentile(&heavy, 0.99),
        heavy_n,
    );
    m.set("setup_s", percentile(&setups, 0.5), setups.len());
    m.set("peak_rss_mb", peak_rss_mb, 1);
    let heavy_attempted = count(&|o| o.heavy.attempted as usize);
    let over = outs
        .iter()
        .map(|o| {
            o.heavy
                .latency_us
                .iter()
                .filter(|&&x| x > w.latency_limit_us)
                .count()
                + o.heavy.errors.len()
        })
        .sum::<usize>();
    m.set(
        "slo_miss_ratio",
        over as f64 / heavy_attempted.max(1) as f64,
        heavy_attempted,
    );
    let lags: Vec<f64> = outs
        .iter()
        .flat_map(|o| o.light.lag_us.iter().chain(&o.heavy.lag_us))
        .copied()
        .collect();
    let lag_p99 = percentile(&lags, 0.99);
    m.set("gen.lag_p99_us", lag_p99, lags.len());
    if lag_p99 > GEN_LAG_LIMIT_US {
        out.errors.push(format!(
            "invalid run: the generator lagged {lag_p99:.0}us at p99 (limit {GEN_LAG_LIMIT_US:.0}us)"
        ));
    }
    m.set(
        "gen.requests",
        (light_n + heavy_n) as f64,
        light_n + heavy_n,
    );
    if !recover_ms.is_empty() {
        m.set("recover_ms", percentile(&recover_ms, 0.5), recover_ms.len());
    }
    if !migrate_ms.is_empty() {
        m.set(
            "router.migrate_ms",
            percentile(&migrate_ms, 0.5),
            migrate_ms.len(),
        );
    }
    let failed = out.errors.len() as f64;
    out.metrics.set(
        "failed_ratio",
        failed / out.attempted.max(1) as f64,
        out.attempted as usize,
    );
    println!(
        "setup {}: {}",
        w.name,
        setups
            .iter()
            .map(|s| format!("{s:.4}s"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "rounds {}: {round_count} x (light {} req, heavy {} req), mean lag {:.1}us",
        w.name,
        outs[0].light.attempted,
        outs[0].heavy.attempted,
        mean(&lags),
    );
    for (r, o) in outs.iter().enumerate() {
        println!(
            "closed {} round {r}: {} req, {:.0} req/s, {} generations of sessions made on the spot",
            w.name,
            o.closed.attempted,
            o.closed.attempted as f64 / o.closed.wall_s.max(1e-9),
            o.closed.generated
        );
    }
    Ok(out)
}
