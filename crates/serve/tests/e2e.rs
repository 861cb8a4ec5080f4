//! End-to-end tests for the daemon: byte-identical determinism against the
//! batch engine, and TCP-level fault tolerance.
//!
//! The determinism contract is the serve layer's reason to exist: the same
//! `EngineSession` drives `calib-sim`'s batch runs and the daemon, so the
//! schedule a tenant streams out of the wire protocol must be *the same
//! schedule* — same JSON bytes — as `run_online` on the identical instance,
//! for every algorithm.

use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};

use calib_core::json::{FromJson, Json, ToJson};
use calib_core::{check_schedule, Assignment, Calibration, Instance, Schedule};
use calib_difftest::{gen_case_sized, GenParams};
use calib_online::run_online;
use calib_serve::{serve, serve_stream, Algorithm, ServeReport, ServerConfig};

mod support;
use support::{read_reply, send_line};

/// Drives `serve_stream` with scripted request lines; returns parsed
/// replies plus the final report.
fn run_script(lines: &[String], workers: usize) -> (Vec<Json>, ServeReport) {
    let input = lines.join("\n") + "\n";
    let out = Arc::new(Mutex::new(Vec::<u8>::new()));
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let report = serve_stream(
        input.as_bytes(),
        Box::new(SharedBuf(Arc::clone(&out))),
        ServerConfig {
            workers,
            // Scripted input arrives all at once (no pipelining window), so
            // backpressure must not kick in.
            queue_cap: 100_000,
            ..Default::default()
        },
    );
    let bytes = out.lock().unwrap().clone();
    let replies = String::from_utf8(bytes)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect();
    (replies, report)
}

fn decision_arrays(reply: &Json) -> (Vec<Calibration>, Vec<Assignment>) {
    // `decisions` replies carry the arrays at top level; `drained` nests
    // them under `decisions` (the accounting owns the top-level keys).
    let reply = reply.get("decisions").unwrap_or(reply);
    let cals = reply
        .get("calibrations")
        .map(|j| Vec::<Calibration>::from_json(j).unwrap())
        .unwrap_or_default();
    let starts = reply
        .get("starts")
        .map(|j| Vec::<Assignment>::from_json(j).unwrap())
        .unwrap_or_default();
    (cals, starts)
}

/// Replays `instance` through the daemon tick by tick and returns the
/// schedule reconstructed from the streamed decision deltas.
fn daemon_schedule(instance: &Instance, cal_cost: u128, algorithm: Algorithm) -> Schedule {
    let mut jobs = instance.jobs().to_vec();
    jobs.sort_by_key(|j| (j.release, j.id));

    let mut lines = vec![Json::obj([
        ("type", "hello".to_json()),
        ("tenant", "t".to_json()),
        ("machines", instance.machines().to_json()),
        ("cal_len", instance.cal_len().to_json()),
        ("cal_cost", cal_cost.to_json()),
        ("algorithm", algorithm.name().to_json()),
    ])
    .to_string_compact()];
    // One arrive+tick pair per distinct release: the finest-grained replay
    // the protocol allows, so any incremental-vs-batch divergence shows.
    let mut i = 0;
    while i < jobs.len() {
        let release = jobs[i].release;
        let mut batch = Vec::new();
        while i < jobs.len() && jobs[i].release == release {
            batch.push(jobs[i]);
            i += 1;
        }
        lines.push(
            Json::obj([
                ("type", "arrive".to_json()),
                ("tenant", "t".to_json()),
                ("jobs", batch.to_json()),
            ])
            .to_string_compact(),
        );
        lines.push(
            Json::obj([
                ("type", "tick".to_json()),
                ("tenant", "t".to_json()),
                ("now", release.to_json()),
            ])
            .to_string_compact(),
        );
    }
    lines.push(r#"{"type":"drain","tenant":"t"}"#.to_string());
    lines.push(r#"{"type":"bye","tenant":"t"}"#.to_string());

    let (replies, report) = run_script(&lines, 1);
    assert!(report.all_ok(), "accountings: {:?}", report.accountings);

    let mut calibrations = Vec::new();
    let mut assignments = Vec::new();
    for reply in &replies {
        let kind = reply.get("type").and_then(Json::as_str).unwrap_or("");
        assert_ne!(kind, "error", "unexpected error reply: {reply:?}");
        if kind == "decisions" || kind == "drained" {
            let (c, s) = decision_arrays(reply);
            calibrations.extend(c);
            assignments.extend(s);
        }
    }
    Schedule::new(calibrations, assignments)
}

/// Satellite 1: for every algorithm the daemon's streamed schedule is
/// byte-identical (as canonical JSON) to the batch engine's, and passes
/// the feasibility checker.
#[test]
fn daemon_schedule_is_byte_identical_to_batch() {
    for (algorithm, params) in [
        (
            Algorithm::Alg1,
            GenParams {
                max_p: 1,
                max_weight: 1,
                ..GenParams::default()
            },
        ),
        (
            Algorithm::Alg2,
            GenParams {
                max_p: 1,
                ..GenParams::default()
            },
        ),
        (
            Algorithm::Alg3,
            GenParams {
                max_weight: 1,
                ..GenParams::default()
            },
        ),
    ] {
        for seed in [3u64, 17, 2017] {
            let case = gen_case_sized(seed, &params, 60);
            let batch = run_online(
                &case.instance,
                case.cal_cost,
                algorithm.scheduler().as_mut(),
            );
            let streamed = daemon_schedule(&case.instance, case.cal_cost, algorithm);

            check_schedule(&case.instance, &streamed).unwrap_or_else(|e| {
                panic!(
                    "{} seed {seed}: infeasible daemon schedule: {e}",
                    algorithm.name()
                )
            });
            assert_eq!(
                streamed.to_json().to_string_compact(),
                batch.schedule.to_json().to_string_compact(),
                "{} seed {seed} ({}): daemon and batch schedules diverge",
                algorithm.name(),
                case.name,
            );
        }
    }
}

/// Satellite 2, TCP flavor: a client that sends malformed JSON, duplicate
/// job ids, past arrivals, and finally disconnects without `bye` gets
/// typed error replies and does not poison a healthy tenant on a second
/// connection — whose final objective still matches the batch engine.
#[test]
fn tcp_faulty_client_does_not_poison_healthy_tenant() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        serve(
            listener,
            ServerConfig {
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap()
    });

    // Healthy tenant: a tiny alg1 instance replayed and drained.
    let params = GenParams {
        max_p: 1,
        max_weight: 1,
        ..GenParams::default()
    };
    let case = gen_case_sized(5, &params, 20);
    let expected = run_online(
        &case.instance,
        case.cal_cost,
        Algorithm::Alg1.scheduler().as_mut(),
    );

    let mut faulty = TcpStream::connect(addr).unwrap();
    let mut faulty_rd = BufReader::new(faulty.try_clone().unwrap());
    send_line(
        &mut faulty,
        r#"{"type":"hello","tenant":"faulty","machines":1,"cal_len":3,"cal_cost":5,"algorithm":"alg1"}"#,
    );
    assert_eq!(
        read_reply(&mut faulty_rd)
            .get("type")
            .and_then(Json::as_str),
        Some("ok")
    );

    let mut healthy = TcpStream::connect(addr).unwrap();
    let mut healthy_rd = BufReader::new(healthy.try_clone().unwrap());
    let mut jobs = case.instance.jobs().to_vec();
    jobs.sort_by_key(|j| (j.release, j.id));
    send_line(
        &mut healthy,
        &Json::obj([
            ("type", "hello".to_json()),
            ("tenant", "healthy".to_json()),
            ("machines", case.instance.machines().to_json()),
            ("cal_len", case.instance.cal_len().to_json()),
            ("cal_cost", case.cal_cost.to_json()),
            ("algorithm", "alg1".to_json()),
        ])
        .to_string_compact(),
    );
    assert_eq!(
        read_reply(&mut healthy_rd)
            .get("type")
            .and_then(Json::as_str),
        Some("ok")
    );

    // Interleave the faults with the healthy tenant's real session.
    send_line(&mut faulty, "this is not json {{{");
    let r = read_reply(&mut faulty_rd);
    assert_eq!(r.get("code").and_then(Json::as_str), Some("bad-json"));

    send_line(
        &mut faulty,
        r#"{"type":"arrive","tenant":"faulty","jobs":[{"id":1,"release":4,"weight":1},{"id":1,"release":5,"weight":1}]}"#,
    );
    let r = read_reply(&mut faulty_rd);
    assert_eq!(r.get("code").and_then(Json::as_str), Some("duplicate-job"));

    send_line(
        &mut healthy,
        &Json::obj([
            ("type", "arrive".to_json()),
            ("tenant", "healthy".to_json()),
            ("jobs", jobs.to_json()),
        ])
        .to_string_compact(),
    );
    assert_eq!(
        read_reply(&mut healthy_rd)
            .get("type")
            .and_then(Json::as_str),
        Some("ok")
    );

    // Advance the faulty engine, then arrive behind its clock.
    send_line(&mut faulty, r#"{"type":"tick","tenant":"faulty","now":10}"#);
    assert_eq!(
        read_reply(&mut faulty_rd)
            .get("type")
            .and_then(Json::as_str),
        Some("decisions")
    );
    send_line(
        &mut faulty,
        r#"{"type":"arrive","tenant":"faulty","jobs":[{"id":9,"release":2,"weight":1}]}"#,
    );
    let r = read_reply(&mut faulty_rd);
    assert_eq!(
        r.get("code").and_then(Json::as_str),
        Some("arrival-in-past")
    );
    send_line(&mut faulty, r#"{"type":"tick","tenant":"faulty","now":4}"#);
    let r = read_reply(&mut faulty_rd);
    assert_eq!(
        r.get("code").and_then(Json::as_str),
        Some("time-regression")
    );

    // Disconnect without bye: the server must finalize the tenant itself.
    drop(faulty);
    drop(faulty_rd);

    send_line(&mut healthy, r#"{"type":"drain","tenant":"healthy"}"#);
    let drained = read_reply(&mut healthy_rd);
    assert_eq!(drained.get("type").and_then(Json::as_str), Some("drained"));
    assert_eq!(drained.get("checker_ok"), Some(&Json::Bool(true)));
    assert_eq!(
        drained.get("flow").and_then(Json::as_u128),
        Some(expected.flow),
        "healthy tenant's flow must match the batch engine"
    );
    assert_eq!(
        drained.get("cost").and_then(Json::as_u128),
        Some(expected.cost)
    );
    send_line(&mut healthy, r#"{"type":"bye","tenant":"healthy"}"#);
    let bye = read_reply(&mut healthy_rd);
    assert_eq!(bye.get("type").and_then(Json::as_str), Some("goodbye"));
    drop(healthy);
    drop(healthy_rd);

    let report = server.join().unwrap();
    assert_eq!(report.connections, 2);
    assert_eq!(report.accountings.len(), 2, "both tenants accounted for");
    for acc in &report.accountings {
        assert!(
            acc.checker_ok,
            "{}: partial schedules must still be feasible: {:?}",
            acc.tenant, acc.violations
        );
    }
}

/// A connection that sends a single oversized line (satellite 2's
/// flood-resistance case at the TCP layer) gets `line-too-long` and the
/// stream keeps working afterwards.
#[test]
fn tcp_oversized_line_recovers() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || serve(listener, ServerConfig::default()).unwrap());

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let huge = "x".repeat(calib_serve::MAX_LINE_BYTES + 100);
    send_line(&mut stream, &huge);
    let r = read_reply(&mut reader);
    assert_eq!(r.get("code").and_then(Json::as_str), Some("line-too-long"));

    send_line(
        &mut stream,
        r#"{"type":"hello","tenant":"after","machines":1,"cal_len":2,"cal_cost":1,"algorithm":"immediate"}"#,
    );
    assert_eq!(
        read_reply(&mut reader).get("type").and_then(Json::as_str),
        Some("ok"),
        "stream must recover after an oversized line"
    );
    send_line(&mut stream, r#"{"type":"bye","tenant":"after"}"#);
    assert_eq!(
        read_reply(&mut reader).get("type").and_then(Json::as_str),
        Some("goodbye")
    );
    // Half-close our side and wait for EOF so `serve` sees the idle state.
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();

    let report = server.join().unwrap();
    assert_eq!(report.accountings.len(), 1);
    assert!(report.all_ok());
}
