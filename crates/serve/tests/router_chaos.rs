//! Router e2e: sharded serving and live migration against real daemons.
//!
//! The router runs in-process (its report and panics stay visible); the
//! shards are real `calib-serve` processes sharing one journal directory,
//! so a `kill -9` exercises the genuine crash-fallback path. The
//! acceptance bar matches `tests/chaos.rs`: drained accounting through
//! the router must equal the local batch engine's `u128` flow/cost to
//! the last integer — and, for migration, byte-identical to a straight
//! single-daemon run of the same plan.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use calib_core::json::{Json, ToJson};
use calib_core::{Instance, Job, Time};
use calib_difftest::{gen_case_sized, GenParams};
use calib_online::run_online;
use calib_router::{run_router, Ring, RouterConfig};
use calib_serve::{run_plan, Algorithm, Backoff, ClientConfig, PlanStep, SystemClock};

mod support;
use support::{spawn_daemon, spawn_daemon_args, TempDir};

/// Starts an in-process router fronting `shards`. `--run-forever`
/// semantics: the test's phased clients would otherwise trip idle exit
/// between phases, so the thread is left to die with the process.
fn spawn_router(shards: Vec<String>, connect_attempts: u32) -> (String, RouterConfig) {
    let config = RouterConfig {
        shards,
        exit_when_idle: false,
        control_timeout: Duration::from_secs(5),
        connect_attempts,
        backoff_base_ms: 1,
        backoff_cap_ms: 20,
        ..Default::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let addr = listener.local_addr().expect("router addr").to_string();
    let thread_config = config.clone();
    std::thread::spawn(move || run_router(listener, thread_config).expect("router"));
    (addr, config)
}

/// Compiles a session plan (mirrors `tests/chaos.rs`): hello, arrive/tick
/// per release group, drain (captured), bye.
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

fn client_config(tenant: &str) -> ClientConfig {
    ClientConfig {
        tenant: tenant.to_string(),
        window: 8,
        deadline: Some(Duration::from_secs(10)),
        max_reconnects: 64,
        resume_on_start: false,
    }
}

/// One admin round-trip on a fresh router connection.
fn admin_roundtrip(router_addr: &str, line: &str) -> Json {
    let mut stream = TcpStream::connect(router_addr).expect("connect router");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("admin timeout");
    stream.write_all(line.as_bytes()).expect("admin write");
    stream.write_all(b"\n").expect("admin newline");
    stream.flush().expect("admin flush");
    let mut reader = BufReader::new(&stream);
    let mut buf = String::new();
    reader.read_line(&mut buf).expect("admin reply");
    assert!(!buf.is_empty(), "router closed on admin request");
    Json::parse(buf.trim()).expect("admin reply json")
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

/// The headline migration theorem: a tenant is moved between live shards
/// mid-session by checkpoint handoff, the session finishes through the
/// router, and the drained accounting is byte-identical to a straight
/// single-daemon run of the same plan. The evicted source shard ends the
/// test empty — it exits on its own.
#[test]
fn live_migration_mid_session_is_byte_exact() {
    let journal_dir = TempDir::new("live-mig");
    let (mut daemon_a, addr_a) = spawn_daemon(&journal_dir.0);
    let (mut daemon_b, addr_b) = spawn_daemon(&journal_dir.0);
    let (router_addr, config) = spawn_router(vec![addr_a, addr_b], 8);

    let name = "mover";
    // The same ring the router built — so the test knows the owner
    // without scraping placement logs.
    let from = Ring::new(config.shards.len(), config.vnodes, config.seed).owner(name);
    let to = 1 - from;

    let (algorithm, params) = (
        Algorithm::Alg2,
        GenParams {
            max_n: 1,
            max_t: 8,
            max_g: 60,
            max_p: 1,
            max_weight: 9,
        },
    );
    let case = gen_case_sized(2026, &params, 160);
    let expected = run_online(
        &case.instance,
        case.cal_cost,
        algorithm.scheduler().as_mut(),
    );
    let (plan, drain_seq) = build_plan(name, algorithm, case.cal_cost, &case.instance);

    // Phase 1: roughly half the session lands on the ring owner.
    let half = plan.len() / 2;
    let cfg = client_config(name);
    let mut clock = SystemClock;
    let report = run_plan(
        &router_addr,
        &cfg,
        &plan[..half],
        &mut Backoff::new(1, 50, 3),
        &mut clock,
    );
    assert!(
        report.completed,
        "phase 1 must apply its prefix: {:?}",
        report.errors
    );

    // The handoff: evict on the source, adopt on the destination — the
    // live path, not the journal fallback.
    let migrated = admin_roundtrip(
        &router_addr,
        &format!(r#"{{"type":"migrate","tenant":"{name}","to":{to},"seq":9}}"#),
    );
    assert_eq!(
        migrated.get("type").and_then(Json::as_str),
        Some("migrated"),
        "migration succeeded: {migrated:?}"
    );
    assert_eq!(
        migrated.get("from").and_then(Json::as_u64),
        Some(from as u64)
    );
    assert_eq!(migrated.get("to").and_then(Json::as_u64), Some(to as u64));
    assert_eq!(migrated.get("seq").and_then(Json::as_u64), Some(9));
    assert_eq!(
        migrated.get("fallback"),
        Some(&Json::Bool(false)),
        "both shards alive: the checkpoint handoff path, not the fallback"
    );
    assert!(
        migrated.get("micros").and_then(Json::as_u64).is_some(),
        "migration latency reported: {migrated:?}"
    );

    // A second migrate for the same tenant to its current home is a
    // no-op, answered without touching either shard.
    let noop = admin_roundtrip(
        &router_addr,
        &format!(r#"{{"type":"migrate","tenant":"{name}","to":{to}}}"#),
    );
    assert_eq!(noop.get("type").and_then(Json::as_str), Some("migrated"));
    assert_eq!(noop.get("from").and_then(Json::as_u64), Some(to as u64));

    // Phase 2: the client resumes through the router; every request now
    // lands on the adopted session on the destination shard.
    let cfg2 = ClientConfig {
        resume_on_start: true,
        ..cfg
    };
    let report2 = run_plan(
        &router_addr,
        &cfg2,
        &plan,
        &mut Backoff::new(1, 50, 4),
        &mut clock,
    );
    assert!(
        report2.completed,
        "phase 2 must finish the session: {:?}",
        report2.errors
    );
    let drained = report2.captured_for(drain_seq).expect("drained captured");
    assert_exact_accounting(drained, name, expected.flow, expected.cost);

    // Byte-identity: the same plan against a lone daemon, no router, no
    // migration. The drained reply must match to the byte.
    let control_dir = TempDir::new("live-mig-control");
    let (mut lone, lone_addr) = spawn_daemon(&control_dir.0);
    let control = run_plan(
        &lone_addr,
        &client_config(name),
        &plan,
        &mut Backoff::new(1, 50, 5),
        &mut clock,
    );
    assert!(control.completed, "control run: {:?}", control.errors);
    let control_drained = control.captured_for(drain_seq).expect("control drained");
    assert_eq!(
        drained.to_string_compact(),
        control_drained.to_string_compact(),
        "migrated session diverged from the straight run"
    );
    lone.wait().expect("control daemon exits when idle");

    // The eviction emptied the source shard; with its control connection
    // closed and no tenants left, it exits on its own. The destination
    // finalized the tenant on `bye` and exits too.
    daemon_a.wait().expect("shard A exits");
    daemon_b.wait().expect("shard B exits");
    let leftover: Vec<_> = std::fs::read_dir(&journal_dir.0)
        .expect("journal dir")
        .filter_map(|e| e.ok())
        .collect();
    assert!(
        leftover.is_empty(),
        "journal deleted after the clean finalize: {leftover:?}"
    );
}

/// The crash drill: the source shard is `kill -9`'d before the handoff,
/// so evict can never answer — the router falls back to recovering the
/// tenant on the destination from the shared journal directory, and the
/// session still drains to exact accounting.
#[test]
fn kill_dash_nine_source_falls_back_to_journal_handoff() {
    let journal_dir = TempDir::new("kill9-mig");
    let (mut daemon_a, addr_a) = spawn_daemon(&journal_dir.0);
    let (mut daemon_b, addr_b) = spawn_daemon(&journal_dir.0);
    // Two connect attempts with millisecond backoff: the dead shard must
    // fail fast, not burn the control timeout.
    let (router_addr, config) = spawn_router(vec![addr_a, addr_b], 2);

    let name = "phoenix-shard";
    let from = Ring::new(config.shards.len(), config.vnodes, config.seed).owner(name);
    let to = 1 - from;

    let (algorithm, params) = (
        Algorithm::Alg3,
        GenParams {
            max_n: 1,
            max_t: 8,
            max_g: 60,
            max_p: 3,
            max_weight: 1,
        },
    );
    let case = gen_case_sized(777, &params, 160);
    let expected = run_online(
        &case.instance,
        case.cal_cost,
        algorithm.scheduler().as_mut(),
    );
    let (plan, drain_seq) = build_plan(name, algorithm, case.cal_cost, &case.instance);

    // Phase 1 through the router, onto the doomed owner.
    let half = plan.len() / 2;
    let cfg = client_config(name);
    let mut clock = SystemClock;
    let report = run_plan(
        &router_addr,
        &cfg,
        &plan[..half],
        &mut Backoff::new(1, 50, 6),
        &mut clock,
    );
    assert!(
        report.completed,
        "phase 1 must apply its prefix: {:?}",
        report.errors
    );

    // The `kill -9`: the owner vanishes with only the journal surviving.
    let doomed = if from == 0 {
        &mut daemon_a
    } else {
        &mut daemon_b
    };
    doomed.kill().expect("SIGKILL source shard");
    doomed.wait().expect("reap source shard");

    // The migrate cannot evict a corpse; it must take the journal path.
    let migrated = admin_roundtrip(
        &router_addr,
        &format!(r#"{{"type":"migrate","tenant":"{name}","to":{to}}}"#),
    );
    assert_eq!(
        migrated.get("type").and_then(Json::as_str),
        Some("migrated"),
        "fallback migration succeeded: {migrated:?}"
    );
    assert_eq!(
        migrated.get("fallback"),
        Some(&Json::Bool(true)),
        "dead source: the journal-tail fallback, not the live handoff"
    );

    // Phase 2: resume through the router onto the recovered session.
    let cfg2 = ClientConfig {
        resume_on_start: true,
        ..cfg
    };
    let report2 = run_plan(
        &router_addr,
        &cfg2,
        &plan,
        &mut Backoff::new(1, 50, 8),
        &mut clock,
    );
    assert!(
        report2.completed,
        "phase 2 must finish the session: {:?}",
        report2.errors
    );
    assert!(report2.resumes >= 1, "phase 2 resumed the session");
    let drained = report2.captured_for(drain_seq).expect("drained captured");
    assert_exact_accounting(drained, name, expected.flow, expected.cost);

    // The survivor finalized the tenant on `bye` and exits when idle; the
    // clean finalize also deleted the shared journal.
    let survivor = if from == 0 {
        &mut daemon_b
    } else {
        &mut daemon_a
    };
    survivor.wait().expect("destination shard exits");
    let leftover: Vec<_> = std::fs::read_dir(&journal_dir.0)
        .expect("journal dir")
        .filter_map(|e| e.ok())
        .collect();
    assert!(
        leftover.is_empty(),
        "journal deleted after the clean finalize: {leftover:?}"
    );
}

/// Plain sharded serving, no migration: three tenants spread across two
/// shards by the ring, each drains to exact accounting through the
/// router, and the merged `metrics` reply adds up.
#[test]
fn sharded_serving_is_exact_and_metrics_merge() {
    let journal_dir = TempDir::new("sharded");
    // `--run-forever`: the mid-fleet `metrics` poll below opens control
    // connections to *both* shards while one may still be tenant-less,
    // which would otherwise trip its idle exit before work arrives.
    let (mut daemon_a, addr_a) = spawn_daemon_args(&journal_dir.0, &["--run-forever"]);
    let (mut daemon_b, addr_b) = spawn_daemon_args(&journal_dir.0, &["--run-forever"]);
    let (router_addr, _config) = spawn_router(vec![addr_a, addr_b], 8);

    let families = [
        (
            Algorithm::Alg1,
            GenParams {
                max_n: 1,
                max_t: 8,
                max_g: 60,
                max_p: 1,
                max_weight: 1,
            },
        ),
        (
            Algorithm::Alg2,
            GenParams {
                max_n: 1,
                max_t: 8,
                max_g: 60,
                max_p: 1,
                max_weight: 9,
            },
        ),
        (
            Algorithm::Alg3,
            GenParams {
                max_n: 1,
                max_t: 8,
                max_g: 60,
                max_p: 3,
                max_weight: 1,
            },
        ),
    ];
    let mut clock = SystemClock;
    let mut plans = Vec::new();
    for (i, (algorithm, params)) in families.iter().enumerate() {
        let name = format!("shard-tenant-{i}");
        let case = gen_case_sized(100 + i as u64, params, 80);
        let expected = run_online(
            &case.instance,
            case.cal_cost,
            algorithm.scheduler().as_mut(),
        );
        let (plan, drain_seq) = build_plan(&name, *algorithm, case.cal_cost, &case.instance);
        plans.push((name, plan, drain_seq, expected));
    }

    // `metrics` mid-fleet merges both shards while sessions are open.
    // Driven sequentially so the poll happens at a known point.
    let (name0, plan0, drain0, expected0) = &plans[0];
    let r0 = run_plan(
        &router_addr,
        &client_config(name0),
        &plan0[..plan0.len() - 1], // hold the bye: keep the tenant open
        &mut Backoff::new(1, 50, 20),
        &mut clock,
    );
    assert!(r0.completed, "{name0}: {:?}", r0.errors);
    let drained0 = r0.captured_for(*drain0).expect("drained captured");
    assert_exact_accounting(drained0, name0, expected0.flow, expected0.cost);

    let metrics = admin_roundtrip(&router_addr, r#"{"type":"metrics","seq":5}"#);
    assert_eq!(metrics.get("type").and_then(Json::as_str), Some("metrics"));
    assert_eq!(metrics.get("seq").and_then(Json::as_u64), Some(5));
    let per_shard = metrics
        .get("per_shard")
        .and_then(Json::as_arr)
        .expect("per_shard array");
    assert_eq!(per_shard.len(), 2, "one row per shard");
    for row in per_shard {
        assert!(row.get("error").is_none(), "both shards reachable: {row:?}");
    }
    let router_obj = metrics.get("router").expect("router counters");
    assert!(
        router_obj
            .get("forwarded_requests")
            .and_then(Json::as_u64)
            .is_some_and(|n| n > 0),
        "router counted its forwards: {router_obj:?}"
    );
    // The tenant with an open session appears in the merged per-tenant
    // rows exactly once.
    let tenants = metrics
        .get("per_tenant")
        .and_then(Json::as_arr)
        .expect("per_tenant array");
    let hits = tenants
        .iter()
        .filter(|t| t.get("tenant").and_then(Json::as_str) == Some(name0))
        .count();
    assert_eq!(hits, 1, "open tenant listed once in the merge: {tenants:?}");

    // Finish tenant 0 (the held-back bye), then the rest end to end.
    let rbye = run_plan(
        &router_addr,
        &ClientConfig {
            resume_on_start: true,
            ..client_config(name0)
        },
        plan0,
        &mut Backoff::new(1, 50, 21),
        &mut clock,
    );
    assert!(rbye.completed, "{name0} bye: {:?}", rbye.errors);
    for (name, plan, drain_seq, expected) in &plans[1..] {
        let r = run_plan(
            &router_addr,
            &client_config(name),
            plan,
            &mut Backoff::new(1, 50, 22),
            &mut clock,
        );
        assert!(r.completed, "{name}: {:?}", r.errors);
        let drained = r.captured_for(*drain_seq).expect("drained captured");
        assert_exact_accounting(drained, name, expected.flow, expected.cost);
    }

    // `--run-forever` daemons never idle-exit; reap them explicitly.
    daemon_a.kill().expect("stop shard A");
    daemon_a.wait().expect("reap shard A");
    daemon_b.kill().expect("stop shard B");
    daemon_b.wait().expect("reap shard B");
}

/// A line nested 500k deep gets the typed `bad-json` error from the router
/// itself, and the same connection keeps being served. The router parses
/// on a spawned thread's stack, so without the parser's depth cap this
/// line aborts the whole process. No shard is contacted for either line.
#[test]
fn deep_nesting_is_bad_json_through_the_router() {
    let (router_addr, _config) = spawn_router(vec!["127.0.0.1:1".to_string()], 1);
    let mut stream = TcpStream::connect(&router_addr).expect("connect router");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let deep = "[".repeat(500_000);
    stream
        .write_all(format!("{deep}\n{{\"type\":\"ping\",\"seq\":1}}\n").as_bytes())
        .expect("send lines");
    let mut reader = BufReader::new(&stream);
    let mut reply = |expect_type: &str| {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        let v = Json::parse(line.trim()).expect("reply json");
        assert_eq!(
            v.get("type").and_then(Json::as_str),
            Some(expect_type),
            "{line}"
        );
        v
    };
    let err = reply("error");
    assert_eq!(err.get("code").and_then(Json::as_str), Some("bad-json"));
    reply("pong");
}

/// A number with 500k digits gets one short `bad-json` error from the
/// router: the parser quotes only a clipped prefix of the number back.
/// The same connection keeps being served.
#[test]
fn huge_number_is_a_short_bad_json_through_the_router() {
    let (router_addr, _config) = spawn_router(vec!["127.0.0.1:1".to_string()], 1);
    let mut stream = TcpStream::connect(&router_addr).expect("connect router");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let digits = "9".repeat(500_000);
    stream
        .write_all(
            format!("{{\"type\":\"ping\",\"seq\":{digits}}}\n{{\"type\":\"ping\",\"seq\":1}}\n")
                .as_bytes(),
        )
        .expect("send lines");
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("error reply");
    assert!(line.len() < 256, "{}-byte reply", line.len());
    let err = Json::parse(line.trim()).expect("reply json");
    assert_eq!(err.get("code").and_then(Json::as_str), Some("bad-json"));
    line.clear();
    reader.read_line(&mut line).expect("pong");
    let pong = Json::parse(line.trim()).expect("pong json");
    assert_eq!(pong.get("type").and_then(Json::as_str), Some("pong"));
}

/// A line over the byte bound gets `line-too-long` from the router, which
/// skips the rest of the line and keeps serving the same connection. No
/// shard is contacted for either line.
#[test]
fn oversized_line_is_line_too_long_through_the_router() {
    let (router_addr, _config) = spawn_router(vec!["127.0.0.1:1".to_string()], 1);
    let mut stream = TcpStream::connect(&router_addr).expect("connect router");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let huge = "x".repeat(calib_serve::MAX_LINE_BYTES + 10);
    stream
        .write_all(format!("{huge}\n{{\"type\":\"ping\",\"seq\":1}}\n").as_bytes())
        .expect("send lines");
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("error reply");
    let err = Json::parse(line.trim()).expect("reply json");
    assert_eq!(
        err.get("code").and_then(Json::as_str),
        Some("line-too-long"),
        "{line}"
    );
    line.clear();
    reader.read_line(&mut line).expect("pong");
    let pong = Json::parse(line.trim()).expect("pong json");
    assert_eq!(pong.get("type").and_then(Json::as_str), Some("pong"));
}

/// Arrivals and a `migrate` sent in one client write: the router writes
/// the arrivals to the source shard before it acts on the `migrate`, so
/// the evict cuts the session after every one of them. No arrival meets
/// the tombstone (`tenant-moved`), and the session, resumed on the
/// destination, drains to the batch engine's exact accounting.
#[test]
fn arrivals_batched_with_a_migrate_reach_the_source_first() {
    let journal_dir = TempDir::new("batched-mig");
    let (mut daemon_a, addr_a) = spawn_daemon(&journal_dir.0);
    let (mut daemon_b, addr_b) = spawn_daemon(&journal_dir.0);
    let (router_addr, config) = spawn_router(vec![addr_a, addr_b], 8);

    let name = "batched";
    let to = 1 - Ring::new(config.shards.len(), config.vnodes, config.seed).owner(name);
    let algorithm = Algorithm::Alg1;
    let params = GenParams {
        max_n: 1,
        max_t: 8,
        max_g: 60,
        max_p: 1,
        max_weight: 1,
    };
    let case = gen_case_sized(4242, &params, 60);
    let expected = run_online(
        &case.instance,
        case.cal_cost,
        algorithm.scheduler().as_mut(),
    );

    let stream = TcpStream::connect(&router_addr).expect("connect router");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let send = |line: String| (&stream).write_all(line.as_bytes()).expect("send");
    let mut reply = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        Json::parse(line.trim()).expect("reply json")
    };
    let ty = |v: &Json| {
        v.get("type")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    // One request line carrying the tenant's next `seq`.
    let line = |mut fields: Vec<(&'static str, Json)>, seq: &mut u64| {
        fields.push(("seq", seq.to_json()));
        *seq += 1;
        format!("{}\n", Json::obj(fields).to_string_compact())
    };
    let mut seq = 0u64;

    send(line(
        vec![
            ("type", "hello".to_json()),
            ("tenant", name.to_json()),
            ("machines", case.instance.machines().to_json()),
            ("cal_len", case.instance.cal_len().to_json()),
            ("cal_cost", case.cal_cost.to_json()),
            ("algorithm", algorithm.name().to_json()),
        ],
        &mut seq,
    ));
    assert_eq!(ty(&reply()), "ok");

    // Every release group's arrival, then the migrate, in one write.
    let mut jobs: Vec<Job> = case.instance.jobs().to_vec();
    jobs.sort_by_key(|j| (j.release, j.id));
    let mut burst = String::new();
    let mut arrivals = 0;
    for group in jobs.chunk_by(|a, b| a.release == b.release) {
        burst.push_str(&line(
            vec![
                ("type", "arrive".to_json()),
                ("tenant", name.to_json()),
                ("jobs", group.to_vec().to_json()),
            ],
            &mut seq,
        ));
        arrivals += 1;
    }
    burst.push_str(&format!(
        "{{\"type\":\"migrate\",\"tenant\":\"{name}\",\"to\":{to}}}\n"
    ));
    send(burst);
    let replies: Vec<Json> = (0..=arrivals).map(|_| reply()).collect();
    let oks = replies.iter().filter(|r| ty(r) == "ok").count();
    assert_eq!(oks, arrivals, "every arrival applied: {replies:?}");
    let migrated = replies
        .iter()
        .find(|r| ty(r) == "migrated")
        .expect("migrated reply");
    assert_eq!(migrated.get("fallback"), Some(&Json::Bool(false)));

    // Resume on the destination and drain there.
    send(format!("{{\"type\":\"resume\",\"tenant\":\"{name}\"}}\n"));
    assert_eq!(ty(&reply()), "resumed");
    send(line(
        vec![("type", "drain".to_json()), ("tenant", name.to_json())],
        &mut seq,
    ));
    assert_exact_accounting(&reply(), name, expected.flow, expected.cost);
    send(line(
        vec![("type", "bye".to_json()), ("tenant", name.to_json())],
        &mut seq,
    ));
    assert_eq!(ty(&reply()), "goodbye");

    // Disconnecting closes the router's backend connections, so both
    // shards, tenant-less, exit on their own.
    drop((reader, stream));
    daemon_a.wait().expect("shard A exits");
    daemon_b.wait().expect("shard B exits");
}
