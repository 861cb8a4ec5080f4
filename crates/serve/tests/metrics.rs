//! End-to-end tests for the daemon metrics registry: the tenant-less
//! `metrics` wire request, exact agreement between the registry and the
//! protocol's own accounting, and the periodic snapshot stream.
//!
//! The registry's contract is *exact* observability: `decisions` is
//! counted at the same points the wire replies hand decision deltas to the
//! client, so the daemon-wide counter, the per-tenant counters, and a
//! client's own tally of reply array lengths must all agree — and the
//! per-tenant `flow`/`cost` totals are the u128 values from the drained
//! accounting, not approximations.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use calib_core::json::{Json, ToJson};
use calib_difftest::{gen_case_sized, GenParams};
use calib_serve::{serve, serve_stream, MetricsSink, ServerConfig};

fn send_line(stream: &mut TcpStream, line: &str) {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        !line.is_empty(),
        "server closed the connection unexpectedly"
    );
    Json::parse(line.trim()).unwrap()
}

fn decision_count(reply: &Json) -> u64 {
    let reply = reply.get("decisions").unwrap_or(reply);
    let len = |key: &str| {
        reply
            .get(key)
            .and_then(Json::as_arr)
            .map_or(0, |a| a.len() as u64)
    };
    len("calibrations") + len("starts")
}

fn tenant_row<'a>(snapshot: &'a Json, name: &str) -> &'a Json {
    snapshot
        .get("per_tenant")
        .and_then(Json::as_arr)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get("tenant").and_then(Json::as_str) == Some(name))
        })
        .unwrap_or_else(|| panic!("no per-tenant row for `{name}`: {snapshot:?}"))
}

fn u64_field(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing u64 `{key}` in {v:?}"))
}

/// Drives two tenants to completion over TCP, tallying decisions from the
/// replies, then asserts the `metrics` request reports exactly those
/// totals — globally, per tenant, and for the drained flow/cost u128s.
#[test]
fn metrics_request_matches_exact_accounting() {
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

    let params = GenParams {
        max_p: 1,
        max_weight: 3,
        ..GenParams::default()
    };

    let mut expected_decisions = Vec::new();
    let mut expected_totals = Vec::new();
    // `t0` says bye (closed but retained); `t1` stays open.
    for (i, name) in ["t0", "t1"].iter().enumerate() {
        let case = gen_case_sized(7 + i as u64, &params, 30);
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        send_line(
            &mut stream,
            &Json::obj([
                ("type", "hello".to_json()),
                ("tenant", (*name).to_json()),
                ("machines", case.instance.machines().to_json()),
                ("cal_len", case.instance.cal_len().to_json()),
                ("cal_cost", case.cal_cost.to_json()),
                ("algorithm", "alg1".to_json()),
            ])
            .to_string_compact(),
        );
        assert_eq!(
            read_reply(&mut reader).get("type").and_then(Json::as_str),
            Some("ok")
        );
        let mut jobs = case.instance.jobs().to_vec();
        jobs.sort_by_key(|j| (j.release, j.id));
        let mut decisions = 0u64;
        let mut j = 0;
        while j < jobs.len() {
            let release = jobs[j].release;
            let mut batch = Vec::new();
            while j < jobs.len() && jobs[j].release == release {
                batch.push(jobs[j]);
                j += 1;
            }
            send_line(
                &mut stream,
                &Json::obj([
                    ("type", "arrive".to_json()),
                    ("tenant", (*name).to_json()),
                    ("jobs", batch.to_json()),
                ])
                .to_string_compact(),
            );
            assert_eq!(
                read_reply(&mut reader).get("type").and_then(Json::as_str),
                Some("ok")
            );
            send_line(
                &mut stream,
                &Json::obj([
                    ("type", "tick".to_json()),
                    ("tenant", (*name).to_json()),
                    ("now", release.to_json()),
                ])
                .to_string_compact(),
            );
            decisions += decision_count(&read_reply(&mut reader));
        }
        send_line(
            &mut stream,
            &format!(r#"{{"type":"drain","tenant":"{name}"}}"#),
        );
        let drained = read_reply(&mut reader);
        assert_eq!(drained.get("type").and_then(Json::as_str), Some("drained"));
        decisions += decision_count(&drained);
        let flow = drained.get("flow").and_then(Json::as_u128).unwrap();
        let cost = drained.get("cost").and_then(Json::as_u128).unwrap();
        expected_decisions.push(decisions);
        expected_totals.push((flow, cost));
        if i == 0 {
            send_line(
                &mut stream,
                &format!(r#"{{"type":"bye","tenant":"{name}"}}"#),
            );
            assert_eq!(
                read_reply(&mut reader).get("type").and_then(Json::as_str),
                Some("goodbye")
            );
        }

        // The snapshot is answered inline on any connection; poll it from
        // this tenant's connection while it is still open (t1) or right
        // after bye (t0).
        send_line(&mut stream, r#"{"type":"metrics","seq":42}"#);
        let snapshot = read_reply(&mut reader);
        assert_eq!(snapshot.get("type").and_then(Json::as_str), Some("metrics"));
        assert_eq!(snapshot.get("seq").and_then(Json::as_u64), Some(42));

        let row = tenant_row(&snapshot, name);
        assert_eq!(
            u64_field(row, "decisions"),
            decisions,
            "tenant `{name}` decisions must equal the reply-array tally"
        );
        assert_eq!(row.get("flow").and_then(Json::as_u128), Some(flow));
        assert_eq!(row.get("cost").and_then(Json::as_u128), Some(cost));
        assert_eq!(
            row.get("open"),
            Some(&Json::Bool(i != 0)),
            "t0 closed on bye, t1 still open"
        );

        if i == 1 {
            // Final frame: both tenants are in the registry (t0 retained
            // after bye), and the global counter equals the sum.
            let global = snapshot.get("global").unwrap();
            let sum: u64 = snapshot
                .get("per_tenant")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|r| u64_field(r, "decisions"))
                .sum();
            assert_eq!(u64_field(global, "decisions"), sum);
            assert_eq!(
                sum,
                expected_decisions.iter().sum::<u64>(),
                "registry total must equal both clients' own tallies"
            );
            let t0 = tenant_row(&snapshot, "t0");
            assert_eq!(
                t0.get("flow").and_then(Json::as_u128),
                Some(expected_totals[0].0)
            );
            assert_eq!(
                t0.get("cost").and_then(Json::as_u128),
                Some(expected_totals[0].1)
            );
            // Histograms are present and consistent: fsync never recorded
            // (no journal), requests always.
            assert!(u64_field(snapshot.get("request_micros").unwrap(), "count") > 0);
            assert_eq!(u64_field(snapshot.get("fsync_micros").unwrap(), "count"), 0);
            // These clients wait for every reply before the next request,
            // so each reply written so far went out in a flush of its own.
            let replies = u64_field(global, "replies");
            assert!(replies > 0);
            assert_eq!(u64_field(global, "reply_flushes"), replies);

            send_line(
                &mut stream,
                &format!(r#"{{"type":"bye","tenant":"{name}"}}"#),
            );
            assert_eq!(
                read_reply(&mut reader).get("type").and_then(Json::as_str),
                Some("goodbye")
            );
        }
    }

    let report = server.join().unwrap();
    assert!(report.all_ok());
}

/// The `--metrics-interval-ms` stream: snapshots arrive as parseable JSON
/// lines while the daemon runs, a final snapshot is flushed at shutdown,
/// and `seq` increases monotonically across the stream.
#[test]
fn metrics_snapshot_stream_is_periodic_and_monotonic() {
    let lines = [
        r#"{"type":"hello","tenant":"s","machines":1,"cal_len":2,"cal_cost":3,"algorithm":"alg1"}"#,
        r#"{"type":"arrive","tenant":"s","jobs":[{"id":0,"release":0,"weight":2}]}"#,
        r#"{"type":"tick","tenant":"s","now":10}"#,
        r#"{"type":"drain","tenant":"s"}"#,
        r#"{"type":"bye","tenant":"s"}"#,
    ];
    let input = lines.join("\n") + "\n";

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

    let replies = Arc::new(Mutex::new(Vec::<u8>::new()));
    let snapshots = Arc::new(Mutex::new(Vec::<u8>::new()));
    let report = serve_stream(
        input.as_bytes(),
        Box::new(SharedBuf(Arc::clone(&replies))),
        ServerConfig {
            workers: 1,
            metrics_interval: Some(Duration::from_millis(5)),
            metrics_sink: Some(MetricsSink::new(Box::new(SharedBuf(Arc::clone(
                &snapshots,
            ))))),
            ..Default::default()
        },
    );
    assert!(report.all_ok());

    let raw = String::from_utf8(snapshots.lock().unwrap().clone()).unwrap();
    let frames: Vec<Json> = raw.lines().map(|l| Json::parse(l).unwrap()).collect();
    // At least the shutdown flush; usually interval frames too.
    assert!(!frames.is_empty(), "no snapshot lines were emitted");
    let mut last_seq = None;
    for frame in &frames {
        assert_eq!(frame.get("type").and_then(Json::as_str), Some("metrics"));
        let seq = frame.get("seq").and_then(Json::as_u64).unwrap();
        if let Some(prev) = last_seq {
            assert!(seq > prev, "snapshot seq must be strictly increasing");
        }
        last_seq = Some(seq);
    }
    // The final frame has the completed session: decisions counted, flow
    // recorded, tenant closed but retained.
    let last = frames.last().unwrap();
    let row = tenant_row(last, "s");
    assert!(u64_field(row, "decisions") > 0);
    assert_eq!(row.get("open"), Some(&Json::Bool(false)));
    assert_eq!(
        u64_field(last.get("global").unwrap(), "decisions"),
        u64_field(row, "decisions")
    );
}
