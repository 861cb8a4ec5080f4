//! Chaos-fault e2e: the full resilience stack under injected failures.
//!
//! Three layers under test at once — the daemon's journaling/detach/resume
//! semantics, the client's reconnect/backoff/resend loop, and the seeded
//! fault proxy between them. The acceptance bar is exact: under any
//! injected fault schedule, every tenant's drained accounting must equal
//! the local batch engine's `u128` flow/cost to the last integer, and a
//! `kill -9`'d daemon restarted from its journal must drain to the same
//! numbers.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use calib_core::json::{Json, ToJson};
use calib_core::{Instance, Job, Time};
use calib_difftest::{gen_case_sized, GenParams};
use calib_online::run_online;
use calib_serve::{
    run_plan, run_proxy, serve, Algorithm, Backoff, ClientConfig, FaultPlan, PlanStep, ProxyStats,
    RetryClock, ServerConfig, SystemClock,
};

mod support;
use support::{read_reply, send_line, spawn_daemon, spawn_daemon_args, TempDir};

fn spawn_server(
    config: ServerConfig,
) -> (
    SocketAddr,
    std::thread::JoinHandle<calib_serve::ServeReport>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind server");
    let addr = listener.local_addr().expect("server addr");
    let handle = std::thread::spawn(move || serve(listener, config).expect("serve"));
    (addr, handle)
}

fn spawn_proxy(
    upstream: SocketAddr,
    plan: FaultPlan,
) -> (SocketAddr, Arc<AtomicBool>, Arc<ProxyStats>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr");
    let stop = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ProxyStats::default());
    let stop2 = Arc::clone(&stop);
    let stats2 = Arc::clone(&stats);
    std::thread::spawn(move || {
        run_proxy(listener, upstream.to_string(), plan, stop2, stats2).ok();
    });
    (addr, stop, stats)
}

/// The i-th tenant's algorithm and generator bounds (mirrors loadgen).
fn tenant_family(i: usize) -> (Algorithm, GenParams) {
    let base = GenParams {
        max_n: 1,
        max_t: 8,
        max_g: 60,
        max_p: 1,
        max_weight: 1,
    };
    match i % 3 {
        0 => (Algorithm::Alg1, base),
        1 => (
            Algorithm::Alg2,
            GenParams {
                max_weight: 9,
                ..base
            },
        ),
        _ => (Algorithm::Alg3, GenParams { max_p: 3, ..base }),
    }
}

/// Compiles a session plan: hello, arrive/tick per release group, drain
/// (captured), bye. Returns the steps and the drain's seq.
fn build_plan(
    name: &str,
    algorithm: Algorithm,
    cal_cost: u128,
    instance: &Instance,
) -> (Vec<PlanStep>, u64) {
    let mut steps = Vec::new();
    let mut seq: u64 = 0;
    steps.push(PlanStep::new(
        seq,
        vec![
            ("type", "hello".to_json()),
            ("tenant", name.to_json()),
            ("machines", instance.machines().to_json()),
            ("cal_len", instance.cal_len().to_json()),
            ("cal_cost", cal_cost.to_json()),
            ("algorithm", algorithm.name().to_json()),
        ],
        false,
        false,
    ));
    seq += 1;
    let mut jobs: Vec<Job> = instance.jobs().to_vec();
    jobs.sort_by_key(|j| (j.release, j.id));
    let mut i = 0;
    while i < jobs.len() {
        let release: Time = jobs[i].release;
        let mut batch = Vec::new();
        while i < jobs.len() && jobs[i].release == release {
            batch.push(jobs[i]);
            i += 1;
        }
        steps.push(PlanStep::new(
            seq,
            vec![
                ("type", "arrive".to_json()),
                ("tenant", name.to_json()),
                ("jobs", batch.to_json()),
            ],
            false,
            false,
        ));
        seq += 1;
        steps.push(PlanStep::new(
            seq,
            vec![
                ("type", "tick".to_json()),
                ("tenant", name.to_json()),
                ("now", release.to_json()),
            ],
            false,
            false,
        ));
        seq += 1;
    }
    let drain_seq = seq;
    steps.push(PlanStep::new(
        seq,
        vec![("type", "drain".to_json()), ("tenant", name.to_json())],
        true,
        false,
    ));
    seq += 1;
    steps.push(PlanStep::new(
        seq,
        vec![("type", "bye".to_json()), ("tenant", name.to_json())],
        false,
        true,
    ));
    (steps, drain_seq)
}

fn assert_exact_accounting(reply: &Json, name: &str, flow: u128, cost: u128) {
    assert_eq!(
        reply.get("type").and_then(Json::as_str),
        Some("drained"),
        "{name}: captured reply is the drained accounting"
    );
    assert_eq!(
        reply.get("checker_ok"),
        Some(&Json::Bool(true)),
        "{name}: feasibility checker verdict"
    );
    assert_eq!(
        reply.get("flow").and_then(Json::as_u128),
        Some(flow),
        "{name}: exact flow equality with the batch engine"
    );
    assert_eq!(
        reply.get("cost").and_then(Json::as_u128),
        Some(cost),
        "{name}: exact cost equality with the batch engine"
    );
}

/// The headline chaos theorem: three tenants drive full sessions through
/// a proxy injecting disconnects, truncations, duplicates, torn writes,
/// and delays — and every drained accounting still equals the local batch
/// run exactly, with faults demonstrably injected.
#[test]
fn reconnecting_loadgen_is_exact_under_injected_faults() {
    let journal_dir = TempDir::new("faults-journal");
    let (server_addr, server) = spawn_server(ServerConfig {
        workers: 2,
        journal_dir: Some(journal_dir.0.clone()),
        ..Default::default()
    });
    let fault_plan = FaultPlan {
        seed: 2017,
        disconnect_per_10k: 80,
        truncate_per_10k: 40,
        duplicate_per_10k: 60,
        torn_per_10k: 40,
        delay_per_10k: 20,
        delay_ms: 2,
    };
    let (proxy_addr, proxy_stop, stats) = spawn_proxy(server_addr, fault_plan);

    let outcomes: Vec<(String, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3usize)
            .map(|i| {
                scope.spawn(move || {
                    let (algorithm, params) = tenant_family(i);
                    let seed = 77u64
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(i as u64);
                    let case = gen_case_sized(seed, &params, 200);
                    let expected = run_online(
                        &case.instance,
                        case.cal_cost,
                        algorithm.scheduler().as_mut(),
                    );
                    let name = format!("chaos-{i}");
                    let (plan, drain_seq) =
                        build_plan(&name, algorithm, case.cal_cost, &case.instance);
                    let cfg = ClientConfig {
                        tenant: name.clone(),
                        window: 8,
                        deadline: Some(Duration::from_secs(5)),
                        max_reconnects: 200,
                        resume_on_start: false,
                    };
                    let mut backoff = Backoff::new(1, 50, seed);
                    let mut clock = SystemClock;
                    let report = run_plan(
                        &proxy_addr.to_string(),
                        &cfg,
                        &plan,
                        &mut backoff,
                        &mut clock,
                    );
                    let mut errors = report.errors.clone();
                    if !report.completed {
                        errors.push(format!("{name}: plan did not complete"));
                    } else if let Some(reply) = report.captured_for(drain_seq) {
                        assert_exact_accounting(reply, &name, expected.flow, expected.cost);
                    } else {
                        errors.push(format!("{name}: drain reply never captured"));
                    }
                    (name, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect()
    });

    for (name, errors) in &outcomes {
        assert!(errors.is_empty(), "{name}: {errors:?}");
    }
    // The run must actually have been chaotic, or the test proves nothing.
    assert!(
        stats.faults() > 0,
        "fault plan injected nothing (lines={})",
        stats.lines.load(Ordering::Relaxed)
    );
    proxy_stop.store(true, Ordering::Relaxed);

    let report = server.join().expect("server thread");
    assert_eq!(report.accountings.len(), 3, "every tenant accounted for");
    assert!(report.all_ok(), "accountings: {:?}", report.accountings);
}

/// The crash-recovery theorem, with a real process and a real `kill -9`:
/// a daemon SIGKILLed mid-session and restarted from its journal drains
/// the resumed tenant to byte-identical accounting.
#[test]
fn kill_dash_nine_then_journal_restart_is_exact() {
    let journal_dir = TempDir::new("kill9-journal");
    let (mut first, addr) = spawn_daemon(&journal_dir.0);

    let (algorithm, params) = tenant_family(1);
    let case = gen_case_sized(4242, &params, 120);
    let expected = run_online(
        &case.instance,
        case.cal_cost,
        algorithm.scheduler().as_mut(),
    );
    let name = "phoenix";
    let (plan, drain_seq) = build_plan(name, algorithm, case.cal_cost, &case.instance);

    // Phase 1: apply roughly half the plan, cleanly, then vanish.
    let half = plan.len() / 2;
    let cfg = ClientConfig {
        tenant: name.to_string(),
        window: 8,
        deadline: Some(Duration::from_secs(5)),
        max_reconnects: 8,
        resume_on_start: false,
    };
    let mut backoff = Backoff::new(1, 50, 1);
    let mut clock = SystemClock;
    let report = run_plan(&addr, &cfg, &plan[..half], &mut backoff, &mut clock);
    assert!(
        report.completed,
        "phase 1 must apply its prefix: {:?}",
        report.errors
    );

    // The `kill -9`: no shutdown handler runs, only the journal survives.
    first.kill().expect("SIGKILL daemon");
    first.wait().expect("reap daemon");

    // Phase 2: a restarted daemon (fresh port — nothing shared but the
    // journal directory) serves the *full* plan from a resuming client;
    // the journal replay supplies the phase-1 prefix, the seq high-water
    // mark suppresses the resent duplicates.
    let (mut second, addr2) = spawn_daemon(&journal_dir.0);
    let cfg2 = ClientConfig {
        resume_on_start: true,
        ..cfg
    };
    let mut backoff2 = Backoff::new(1, 50, 2);
    let report2 = run_plan(&addr2, &cfg2, &plan, &mut backoff2, &mut clock);
    assert!(
        report2.completed,
        "phase 2 must finish the session: {:?}",
        report2.errors
    );
    assert!(report2.resumes >= 1, "phase 2 resumed from the journal");
    let drained = report2.captured_for(drain_seq).expect("drained captured");
    assert_exact_accounting(drained, name, expected.flow, expected.cost);

    // The clean bye finalized the tenant and deleted its journal; the
    // daemon, now idle, exits on its own.
    second.wait().expect("daemon exits when idle");
    let leftover: Vec<_> = std::fs::read_dir(&journal_dir.0)
        .expect("journal dir")
        .filter_map(|e| e.ok())
        .collect();
    assert!(
        leftover.is_empty(),
        "journal deleted after clean finalize: {leftover:?}"
    );
}

/// The compaction crash drill, with a real process: a daemon running
/// cadence checkpoints is SIGKILLed mid-session, a half-written compaction
/// scratch file is staged next to its journal (the on-disk state of a
/// crash *during* `compact()`), and the restarted daemon must recover from
/// the latest durable checkpoint — replaying at most the cadence-bounded
/// tail, reporting it on the `{"type":"recovered",...}` log line — and
/// drain the resumed tenant to byte-identical accounting.
#[test]
fn kill_dash_nine_mid_compaction_recovers_from_checkpoint() {
    use calib_serve::compact_tmp_path;
    use calib_serve::journal::journal_path;

    const CADENCE: u64 = 4;
    let cadence = CADENCE.to_string();
    let flags = [
        "--checkpoint-every-n",
        cadence.as_str(),
        "--compact-on-idle",
    ];
    let journal_dir = TempDir::new("compact-kill9-journal");
    let (mut first, addr) = spawn_daemon_args(&journal_dir.0, &flags);

    let (algorithm, params) = tenant_family(2);
    let case = gen_case_sized(99, &params, 120);
    let expected = run_online(
        &case.instance,
        case.cal_cost,
        algorithm.scheduler().as_mut(),
    );
    let name = "compactor";
    let (plan, drain_seq) = build_plan(name, algorithm, case.cal_cost, &case.instance);

    // Phase 1: enough of the plan that cadence checkpoints have fired.
    let half = plan.len() / 2;
    let cfg = ClientConfig {
        tenant: name.to_string(),
        window: 8,
        deadline: Some(Duration::from_secs(5)),
        max_reconnects: 8,
        resume_on_start: false,
    };
    let mut backoff = Backoff::new(1, 50, 7);
    let mut clock = SystemClock;
    let report = run_plan(&addr, &cfg, &plan[..half], &mut backoff, &mut clock);
    assert!(
        report.completed,
        "phase 1 must apply its prefix: {:?}",
        report.errors
    );

    first.kill().expect("SIGKILL daemon");
    first.wait().expect("reap daemon");

    // Stage the mid-compaction wreckage: a torn checkpoint line at the
    // scratch path, exactly as a crash inside `compact()` leaves it.
    let path = journal_path(&journal_dir.0, name);
    assert!(path.exists(), "phase-1 journal survives the kill");
    let tmp = compact_tmp_path(&path);
    std::fs::write(
        &tmp,
        b"{\"op\":\"checkpoint\",\"tenant\":\"compactor\",\"tr",
    )
    .expect("stage torn scratch");

    // Phase 2: restart with the same flags; the resume must recover from
    // the latest durable checkpoint and finish the session exactly.
    let (mut second, addr2) = spawn_daemon_args(&journal_dir.0, &flags);
    let cfg2 = ClientConfig {
        resume_on_start: true,
        ..cfg
    };
    let mut backoff2 = Backoff::new(1, 50, 8);
    let report2 = run_plan(&addr2, &cfg2, &plan, &mut backoff2, &mut clock);
    assert!(
        report2.completed,
        "phase 2 must finish the session: {:?}",
        report2.errors
    );
    assert!(report2.resumes >= 1, "phase 2 resumed from the journal");
    let drained = report2.captured_for(drain_seq).expect("drained captured");
    assert_exact_accounting(drained, name, expected.flow, expected.cost);

    second.wait().expect("daemon exits when idle");

    // The daemon logged the bounded recovery: the tail it replayed after
    // the checkpoint never exceeds the checkpoint cadence.
    let mut rest = String::new();
    use std::io::Read;
    second
        .stdout
        .as_mut()
        .expect("daemon stdout")
        .read_to_string(&mut rest)
        .expect("drain daemon log");
    let recovered = rest
        .lines()
        .filter_map(|l| Json::parse(l.trim()).ok())
        .find(|v| v.get("type").and_then(Json::as_str) == Some("recovered"))
        .expect("daemon logs the recovery");
    assert_eq!(
        recovered.get("tenant").and_then(Json::as_str),
        Some(name),
        "recovery names the tenant"
    );
    assert_eq!(
        recovered.get("from_checkpoint"),
        Some(&Json::Bool(true)),
        "recovery started from a checkpoint: {recovered:?}"
    );
    let tail = recovered
        .get("tail_replayed")
        .and_then(Json::as_u64)
        .expect("tail_replayed reported");
    assert!(
        tail <= CADENCE,
        "tail {tail} exceeds the checkpoint cadence {CADENCE}"
    );

    // Clean finalize removed the journal *and* the staged scratch file.
    let leftover: Vec<_> = std::fs::read_dir(&journal_dir.0)
        .expect("journal dir")
        .filter_map(|e| e.ok())
        .collect();
    assert!(
        leftover.is_empty(),
        "journal and scratch deleted after clean finalize: {leftover:?}"
    );
}

/// The tentpole fairness drill: two tenants with admission weights 4:1
/// drive ticks at 10x the sustainable token rate over one connection, so
/// every admission decision is a pure function of the request stream (the
/// admission clock ticks once per parsed line — no wall clock, no thread
/// races). The admitted counts are therefore *exactly* reproducible, and
/// they converge to the weight proportion precisely.
///
/// Derivation of the expected counts (rate_per_k=20, burst=8, 501 rounds
/// of one tick per tenant per round, gold registered at virtual ms 1 and
/// iron at ms 2):
///   - gold (weight 4) starts with 8*4 = 32 tokens and refills 20*4 = 80
///     millitokens per virtual ms; each of its attempts sees 2 elapsed ms
///     (two lines per round), i.e. +160 milli per round. Its first refill
///     caps at the full bucket (losing exactly 160 milli), so total
///     supply over 501 rounds is 32000 - 160 + 160*501 = 112000 milli =
///     112 whole tokens, drained to exactly 0.
///   - iron (weight 1): 8000 - 40 + 40*501 = 28000 milli = 28 tokens.
///
/// 112 = 4 * 28: admitted throughput is weight-proportional to the last
/// integer, while 10x of the offered load is rejected with typed
/// `rate-limited` errors carrying the exact refill time.
#[test]
fn ten_x_overload_admits_in_exact_weight_proportion() {
    use calib_serve::AdmitConfig;
    let (addr, server) = spawn_server(ServerConfig {
        admit: AdmitConfig {
            rate_per_k: Some(20),
            ..AdmitConfig::default()
        },
        ..Default::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for (tenant, weight) in [("gold", 4), ("iron", 1)] {
        send_line(
            &mut stream,
            &format!(
                r#"{{"type":"hello","tenant":"{tenant}","machines":1,"cal_len":2,"cal_cost":1,"algorithm":"immediate","weight":{weight}}}"#
            ),
        );
        assert_eq!(
            read_reply(&mut reader).get("type").and_then(Json::as_str),
            Some("ok"),
            "{tenant} registers"
        );
    }

    const ROUNDS: u64 = 501;
    let mut admitted = [0u64; 2];
    let mut rejected = [0u64; 2];
    for now in 1..=ROUNDS {
        for (i, tenant) in ["gold", "iron"].iter().enumerate() {
            send_line(
                &mut stream,
                &format!(r#"{{"type":"tick","tenant":"{tenant}","now":{now}}}"#),
            );
            let reply = read_reply(&mut reader);
            match reply.get("type").and_then(Json::as_str) {
                Some("decisions") => admitted[i] += 1,
                Some("error") => {
                    assert_eq!(
                        reply.get("code").and_then(Json::as_str),
                        Some("rate-limited"),
                        "the only rejection under pure rate pressure: {reply:?}"
                    );
                    let after = reply
                        .get("retry_after_ms")
                        .and_then(Json::as_u64)
                        .expect("every rejection carries retry_after_ms");
                    assert!(after >= 1, "retry-after is a real delay");
                    rejected[i] += 1;
                }
                other => panic!("unexpected reply type {other:?}: {reply:?}"),
            }
        }
    }
    assert_eq!(admitted, [112, 28], "exact seeded admission counts");
    assert_eq!(
        admitted[0],
        4 * admitted[1],
        "admitted throughput matches the 4:1 weights exactly"
    );
    assert_eq!(rejected, [ROUNDS - 112, ROUNDS - 28]);

    // The daemon-side counters agree with the wire-observed decisions,
    // per tenant and in the global sum (the calib-top --check invariant).
    send_line(&mut stream, r#"{"type":"metrics","seq":1}"#);
    let snap = read_reply(&mut reader);
    let g = snap.get("global").expect("global counters");
    let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(field(g, "admitted"), admitted[0] + admitted[1]);
    assert_eq!(field(g, "rate_limited"), rejected[0] + rejected[1]);
    assert_eq!(field(g, "sheds"), 0, "no in-flight budget configured");
    assert_eq!(field(g, "shed_disconnects"), 0);
    let rows = snap.get("per_tenant").and_then(Json::as_arr).expect("rows");
    for (i, tenant) in ["gold", "iron"].iter().enumerate() {
        let row = rows
            .iter()
            .find(|r| r.get("tenant").and_then(Json::as_str) == Some(tenant))
            .expect("tenant row");
        assert_eq!(field(row, "admitted"), admitted[i], "{tenant} admitted");
        assert_eq!(field(row, "rate_limited"), rejected[i], "{tenant} limited");
    }

    // Sessions stay fully functional behind the limiter: drains (gated,
    // so they too may need to wait out the bucket) and byes still land.
    for tenant in ["gold", "iron"] {
        let mut drained = false;
        for _ in 0..200 {
            send_line(
                &mut stream,
                &format!(r#"{{"type":"drain","tenant":"{tenant}"}}"#),
            );
            let reply = read_reply(&mut reader);
            match reply.get("type").and_then(Json::as_str) {
                Some("drained") => {
                    assert_eq!(reply.get("checker_ok"), Some(&Json::Bool(true)));
                    drained = true;
                    break;
                }
                _ => {
                    assert_eq!(
                        reply.get("code").and_then(Json::as_str),
                        Some("rate-limited")
                    );
                }
            }
        }
        assert!(drained, "{tenant}: drain admitted once the bucket refilled");
        send_line(
            &mut stream,
            &format!(r#"{{"type":"bye","tenant":"{tenant}"}}"#),
        );
        assert_eq!(
            read_reply(&mut reader).get("type").and_then(Json::as_str),
            Some("goodbye")
        );
    }
    drop(stream);
    drop(reader);
    let report = server.join().expect("server");
    assert!(report.all_ok());
    assert_eq!(report.sheds, 0);
    assert_eq!(report.shed_disconnects, 0);
}

/// The shed half of the drill: a one-slot in-flight budget under two
/// concurrent pipelining clients forces `shed` disconnects, and the
/// resilience stack absorbs them — clients honor the server-supplied
/// retry-after, resume the journaled session, and the drained accounting
/// still equals the local batch engine to the last integer.
#[test]
fn shedding_under_inflight_budget_recovers_exactly() {
    use calib_serve::AdmitConfig;
    let journal_dir = TempDir::new("shed-journal");
    let (server_addr, server) = spawn_server(ServerConfig {
        workers: 2,
        journal_dir: Some(journal_dir.0.clone()),
        admit: AdmitConfig {
            max_inflight: Some(1),
            ..AdmitConfig::default()
        },
        ..Default::default()
    });

    let outcomes: Vec<(String, u64, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2usize)
            .map(|i| {
                scope.spawn(move || {
                    let (algorithm, params) = tenant_family(i);
                    let seed = 1209u64.wrapping_add(i as u64);
                    let case = gen_case_sized(seed, &params, 60);
                    let expected = run_online(
                        &case.instance,
                        case.cal_cost,
                        algorithm.scheduler().as_mut(),
                    );
                    let name = format!("shed-{i}");
                    let (plan, drain_seq) =
                        build_plan(&name, algorithm, case.cal_cost, &case.instance);
                    let cfg = ClientConfig {
                        tenant: name.clone(),
                        window: 8,
                        deadline: Some(Duration::from_secs(5)),
                        max_reconnects: 500,
                        resume_on_start: false,
                    };
                    let mut backoff = Backoff::new(1, 20, seed);
                    let mut clock = SystemClock;
                    let report = run_plan(
                        &server_addr.to_string(),
                        &cfg,
                        &plan,
                        &mut backoff,
                        &mut clock,
                    );
                    let mut errors = report.errors.clone();
                    if !report.completed {
                        errors.push(format!("{name}: plan did not complete"));
                    } else if let Some(reply) = report.captured_for(drain_seq) {
                        assert_exact_accounting(reply, &name, expected.flow, expected.cost);
                    } else {
                        errors.push(format!("{name}: drain reply never captured"));
                    }
                    (name, report.reconnects, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect()
    });

    for (name, _, errors) in &outcomes {
        assert!(errors.is_empty(), "{name}: {errors:?}");
    }
    let report = server.join().expect("server thread");
    assert_eq!(report.accountings.len(), 2, "every tenant accounted for");
    assert!(report.all_ok(), "accountings: {:?}", report.accountings);
    // The drill must actually have shed, or it proves nothing: with one
    // in-flight slot and two 8-deep pipelines, overlap is unavoidable.
    assert!(report.sheds > 0, "the budget never shed: {report:?}");
    assert_eq!(
        report.sheds, report.shed_disconnects,
        "journaled sheds drop the connection (sessions detach, not die)"
    );
    // Client-side: every shed disconnect forced a reconnect the client
    // rode through. (The *typed* shed path — sleeping exactly the
    // server-supplied retry_after_ms — is proven deterministically in the
    // retry.rs unit tests; under deep pipelining the inline shed error can
    // overtake in-flight worker replies, so it is not asserted here.)
    let client_reconnects: u64 = outcomes.iter().map(|(_, r, _)| r).sum();
    assert!(
        client_reconnects > 0,
        "clients reconnected through the shed disconnects"
    );
}

/// `ping` answers inline with health counters even before any hello, and
/// is exempt from every tenant's seq chain.
#[test]
fn ping_pong_reports_health_counters() {
    let (addr, server) = spawn_server(ServerConfig::default());
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    send_line(&mut stream, r#"{"type":"ping","seq":41}"#);
    let pong = read_reply(&mut reader);
    assert_eq!(pong.get("type").and_then(Json::as_str), Some("pong"));
    assert_eq!(pong.get("seq").and_then(Json::as_u64), Some(41));
    assert_eq!(
        pong.get("active_connections").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(pong.get("tenants").and_then(Json::as_u64), Some(0));
    assert!(pong.get("requests").and_then(Json::as_u64).is_some());
    drop(stream);
    drop(reader);
    server.join().expect("server");
}

/// `--max-tenants` caps registrations with a typed `tenant-limit` error;
/// the slot frees when a tenant finalizes.
#[test]
fn tenant_limit_is_typed_and_slot_frees_on_bye() {
    let (addr, server) = spawn_server(ServerConfig {
        max_tenants: 1,
        ..Default::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    send_line(
        &mut stream,
        r#"{"type":"hello","tenant":"one","machines":1,"cal_len":2,"cal_cost":1,"algorithm":"immediate"}"#,
    );
    assert_eq!(
        read_reply(&mut reader).get("type").and_then(Json::as_str),
        Some("ok")
    );
    send_line(
        &mut stream,
        r#"{"type":"hello","tenant":"two","machines":1,"cal_len":2,"cal_cost":1,"algorithm":"immediate"}"#,
    );
    let r = read_reply(&mut reader);
    assert_eq!(r.get("code").and_then(Json::as_str), Some("tenant-limit"));
    send_line(&mut stream, r#"{"type":"bye","tenant":"one"}"#);
    assert_eq!(
        read_reply(&mut reader).get("type").and_then(Json::as_str),
        Some("goodbye")
    );
    send_line(
        &mut stream,
        r#"{"type":"hello","tenant":"two","machines":1,"cal_len":2,"cal_cost":1,"algorithm":"immediate"}"#,
    );
    assert_eq!(
        read_reply(&mut reader).get("type").and_then(Json::as_str),
        Some("ok"),
        "slot freed by the finalized tenant"
    );
    send_line(&mut stream, r#"{"type":"bye","tenant":"two"}"#);
    read_reply(&mut reader);
    drop(stream);
    drop(reader);
    server.join().expect("server");
}

/// The server-side seq protocol: duplicates are answered benignly without
/// re-execution, gaps get a typed `seq-gap`, and the chain survives both.
#[test]
fn seq_duplicates_are_suppressed_and_gaps_are_typed() {
    let (addr, server) = spawn_server(ServerConfig::default());
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    send_line(
        &mut stream,
        r#"{"type":"hello","tenant":"s","machines":1,"cal_len":2,"cal_cost":1,"algorithm":"immediate","seq":0}"#,
    );
    assert_eq!(
        read_reply(&mut reader).get("type").and_then(Json::as_str),
        Some("ok")
    );
    let arrive =
        r#"{"type":"arrive","tenant":"s","jobs":[{"id":1,"release":3,"weight":1}],"seq":1}"#;
    send_line(&mut stream, arrive);
    assert_eq!(
        read_reply(&mut reader).get("type").and_then(Json::as_str),
        Some("ok")
    );
    // The identical line again: were it re-executed, the engine would
    // reject a duplicate job id. The seq chain must suppress it first.
    send_line(&mut stream, arrive);
    let dup = read_reply(&mut reader);
    assert_eq!(
        dup.get("type").and_then(Json::as_str),
        Some("ok"),
        "duplicate request answered benignly: {dup:?}"
    );
    assert_eq!(dup.get("seq").and_then(Json::as_u64), Some(1));
    // Skipping seq 2 entirely is a typed gap, not a hang or a silent hole.
    send_line(
        &mut stream,
        r#"{"type":"tick","tenant":"s","now":5,"seq":3}"#,
    );
    let gap = read_reply(&mut reader);
    assert_eq!(gap.get("code").and_then(Json::as_str), Some("seq-gap"));
    // The chain is intact: the *correct* next seq still works.
    send_line(
        &mut stream,
        r#"{"type":"tick","tenant":"s","now":5,"seq":2}"#,
    );
    assert_eq!(
        read_reply(&mut reader).get("type").and_then(Json::as_str),
        Some("decisions")
    );
    send_line(&mut stream, r#"{"type":"bye","tenant":"s","seq":3}"#);
    read_reply(&mut reader);
    drop(stream);
    drop(reader);
    server.join().expect("server");
}

/// An idle socket trips `--read-timeout-ms`: the server sends a typed
/// `read-timeout` error and hangs up instead of pinning the reader.
#[test]
fn idle_socket_gets_typed_read_timeout() {
    let (addr, server) = spawn_server(ServerConfig {
        read_timeout: Some(Duration::from_millis(100)),
        ..Default::default()
    });
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("client timeout");
    let mut reader = BufReader::new(stream);
    // Send nothing; the server must speak first.
    let reply = read_reply(&mut reader);
    assert_eq!(
        reply.get("code").and_then(Json::as_str),
        Some("read-timeout")
    );
    let mut rest = String::new();
    let n = reader.read_line(&mut rest).expect("read EOF");
    assert_eq!(n, 0, "server disconnects after the timeout notice");
    server.join().expect("server");
}

/// Backoff sleeps route through the injected clock — a fake clock sees
/// the whole schedule instantly, proving no wall-clock dependence in the
/// retry decision path.
#[test]
fn retry_sleeps_are_injectable_and_deterministic() {
    struct CountingClock {
        slept: Vec<Duration>,
    }
    impl RetryClock for CountingClock {
        fn sleep(&mut self, d: Duration) {
            self.slept.push(d);
        }
    }
    // No server at this address: every attempt fails, every sleep counts.
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let a = l.local_addr().expect("addr");
        drop(l);
        a
    };
    let (plan, _) = build_plan(
        "ghost",
        Algorithm::Alg1,
        1,
        &gen_case_sized(
            1,
            &GenParams {
                max_p: 1,
                max_weight: 1,
                ..GenParams::default()
            },
            5,
        )
        .instance,
    );
    let cfg = ClientConfig {
        tenant: "ghost".to_string(),
        max_reconnects: 6,
        ..Default::default()
    };
    let run = |seed: u64| -> Vec<Duration> {
        let mut backoff = Backoff::new(2, 64, seed);
        let mut clock = CountingClock { slept: Vec::new() };
        let report = run_plan(&dead.to_string(), &cfg, &plan, &mut backoff, &mut clock);
        assert!(!report.completed, "no server, no completion");
        assert!(!report.errors.is_empty(), "budget exhaustion is reported");
        clock.slept
    };
    let a = run(9);
    let b = run(9);
    assert_eq!(a, b, "same seed, same backoff schedule");
    assert_eq!(a.len(), 6, "one sleep per allowed retry");
    let c = run(10);
    assert_ne!(a, c, "different seed, different jitter");
}

/// A destructive `bye` must never ride the pipeline window. The scripted
/// daemon below applies every request it reads but loses all replies from
/// the drain onward on the first connection. A client that pipelined its
/// bye onto that doomed connection would finalize the session server-side
/// (journal deleted) with the drain's accounting never delivered — the
/// follow-up `resume` then truthfully answers `unknown-tenant` while
/// non-bye steps are still unacked, which is indistinguishable from real
/// session loss. Holding the bye until the window drains keeps the session
/// alive across the fault: the resume lands on the open session and the
/// duplicate-suppressed drain re-serves its payload.
#[test]
fn bye_is_not_pipelined_past_unacked_replies() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted daemon");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let mut last_seq: Option<u64> = None;
        let mut finalized = false;
        for conn in 0u32.. {
            let Ok((stream, _)) = listener.accept() else {
                return finalized;
            };
            let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
            let mut writer = stream;
            let mut dropping = false;
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let v = Json::parse(line.trim()).expect("client sends valid JSON");
                let ty = v.get("type").and_then(Json::as_str).unwrap_or("");
                if ty == "resume" {
                    let reply = if finalized {
                        r#"{"type":"error","code":"unknown-tenant"}"#.to_string()
                    } else {
                        match last_seq {
                            Some(s) => format!(r#"{{"type":"resumed","last_seq":{s}}}"#),
                            None => r#"{"type":"resumed"}"#.to_string(),
                        }
                    };
                    writer
                        .write_all(reply.as_bytes())
                        .and_then(|()| writer.write_all(b"\n"))
                        .expect("resume reply");
                    continue;
                }
                let seq = v
                    .get("seq")
                    .and_then(Json::as_u64)
                    .expect("sequenced request");
                // Apply before replying, like the real write-ahead daemon.
                if Some(seq) > last_seq {
                    last_seq = Some(seq);
                }
                if ty == "bye" {
                    finalized = true;
                }
                // The first connection loses every reply from the drain on.
                if conn == 0 && ty == "drain" {
                    dropping = true;
                }
                if dropping {
                    if ty == "bye" {
                        break;
                    }
                    continue;
                }
                writer
                    .write_all(format!("{{\"type\":\"ok\",\"seq\":{seq}}}\n").as_bytes())
                    .expect("reply");
                if ty == "bye" {
                    return finalized;
                }
            }
        }
        finalized
    });

    let case = gen_case_sized(
        5,
        &GenParams {
            max_p: 1,
            max_weight: 3,
            ..GenParams::default()
        },
        8,
    );
    let (plan, _) = build_plan("held-bye", Algorithm::Alg1, case.cal_cost, &case.instance);
    let cfg = ClientConfig {
        tenant: "held-bye".to_string(),
        deadline: Some(Duration::from_millis(200)),
        max_reconnects: 8,
        ..Default::default()
    };
    let mut backoff = Backoff::new(1, 4, 11);
    let report = run_plan(
        &addr.to_string(),
        &cfg,
        &plan,
        &mut backoff,
        &mut SystemClock,
    );
    assert!(
        report.completed,
        "plan completes across the lost-reply window: {:?}",
        report.errors
    );
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    // The drain's payload was re-served and captured on the retry.
    assert_eq!(report.captured.len(), 1, "one captured drain");
    let finalized = server.join().expect("scripted daemon thread");
    assert!(finalized, "the held-back bye eventually landed");
}
