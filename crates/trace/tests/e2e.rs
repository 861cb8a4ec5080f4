//! The tentpole acceptance test: a fixed-seed three-tenant, 1000-job-each
//! run through the real daemon (`serve_stream` with tracing and a tick-
//! fsync journal), converted by [`calib_trace::convert`], must decode as a
//! structurally valid Perfetto trace — per-tenant track groups with
//! calibration, job, and fsync slices plus `queued`/`flow` counter tracks,
//! every slice balanced, and byte-identical across conversions.

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use calib_core::json::{Json, ToJson};
use calib_difftest::{gen_case_sized, GenParams};
use calib_serve::{serve_stream, ServerConfig};
use calib_trace::{convert, summarize};

/// A self-cleaning temp dir (mirrors the serve test-suite idiom).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("calib-trace-e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One generator family per tenant, spanning all three algorithms (alg1
/// and alg2 are single-machine; alg3 exercises multi-machine lanes).
fn tenant_family(i: usize) -> (&'static str, GenParams) {
    let base = GenParams {
        max_p: 1,
        max_weight: 1,
        ..GenParams::default()
    };
    match i % 3 {
        0 => ("alg1", base),
        1 => (
            "alg2",
            GenParams {
                max_weight: 9,
                ..base
            },
        ),
        _ => ("alg3", GenParams { max_p: 3, ..base }),
    }
}

/// Script one tenant: hello, all 1000 arrivals up front, a few mid-run
/// ticks (each a journal sync point under `--fsync tick`), drain, bye.
fn tenant_script(name: &str, seed: u64, algorithm: &str, params: &GenParams) -> Vec<String> {
    let case = gen_case_sized(seed, params, 1000);
    let mut jobs = case.instance.jobs().to_vec();
    jobs.sort_by_key(|j| (j.release, j.id));

    let mut lines = vec![Json::obj([
        ("type", "hello".to_json()),
        ("tenant", name.to_json()),
        ("machines", case.instance.machines().to_json()),
        ("cal_len", case.instance.cal_len().to_json()),
        ("cal_cost", case.cal_cost.to_json()),
        ("algorithm", algorithm.to_json()),
    ])
    .to_string_compact()];
    // All jobs arrive at virtual time zero (every release is >= 0), then a
    // handful of ticks walk the clock forward; `drain` finishes the rest.
    // This keeps real fsync counts bounded while still producing fsync
    // slices and a full schedule's worth of calibrate/job slices.
    lines.push(
        Json::obj([
            ("type", "arrive".to_json()),
            ("tenant", name.to_json()),
            ("jobs", jobs.to_json()),
        ])
        .to_string_compact(),
    );
    let mut releases: Vec<_> = jobs.iter().map(|j| j.release).collect();
    releases.sort_unstable();
    releases.dedup();
    for now in releases.iter().step_by(releases.len().div_ceil(4).max(1)) {
        lines.push(
            Json::obj([
                ("type", "tick".to_json()),
                ("tenant", name.to_json()),
                ("now", now.to_json()),
            ])
            .to_string_compact(),
        );
    }
    lines.push(format!(r#"{{"type":"drain","tenant":"{name}"}}"#));
    lines.push(format!(r#"{{"type":"bye","tenant":"{name}"}}"#));
    lines
}

#[test]
fn three_tenant_thousand_job_run_converts_to_a_valid_perfetto_trace() {
    let dir = TempDir::new("run");
    let trace_dir = dir.0.join("traces");
    let journal_dir = dir.0.join("journal");

    let mut lines = Vec::new();
    for (i, name) in ["alpha", "beta", "gamma"].iter().enumerate() {
        let (algorithm, params) = tenant_family(i);
        let seed = 1000 + u64::try_from(i).unwrap();
        lines.extend(tenant_script(name, seed, algorithm, &params));
    }
    let input = lines.join("\n") + "\n";

    struct NullOut;
    impl Write for NullOut {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let report = serve_stream(
        input.as_bytes(),
        Box::new(NullOut),
        ServerConfig {
            workers: 3,
            queue_cap: 100_000,
            trace_dir: Some(trace_dir.clone()),
            journal_dir: Some(journal_dir),
            fsync: calib_serve::FsyncPolicy::Tick,
            ..Default::default()
        },
    );
    assert!(report.all_ok(), "accountings: {:?}", report.accountings);
    assert_eq!(report.accountings.len(), 3);

    // Convert exactly as `calib-trace tdir/*.jsonl` would.
    let mut inputs = Vec::new();
    for name in ["alpha", "beta", "gamma"] {
        let text = std::fs::read_to_string(trace_dir.join(format!("{name}.jsonl"))).unwrap();
        inputs.push((name.to_string(), text));
    }
    let out = convert(&inputs, None, 1).unwrap();
    assert_eq!(out.tenants, vec!["alpha", "beta", "gamma"]);
    assert_eq!(out.skipped_lines, 0, "every trace line must parse");

    let summary = summarize(&out.bytes).unwrap();
    assert_eq!(summary.packets, out.packets);
    assert_eq!(
        summary.process_tracks.len(),
        1,
        "one process track for the daemon"
    );
    assert_eq!(
        summary.slice_begins.len(),
        summary.slice_ends.len(),
        "every slice must be balanced"
    );

    for (i, name) in ["alpha", "beta", "gamma"].iter().enumerate() {
        let base = (u64::try_from(i).unwrap() + 1) * 1000;
        let group = summary.track_named(name).unwrap();
        assert_eq!(group, base, "tenant groups are laid out in name order");

        // Each tenant scheduled 1000 jobs on some machine lane, calibrating
        // at least once to do it.
        let mut jobs = 0;
        let mut calibrations = 0;
        let machines: Vec<u64> = summary
            .named_tracks
            .iter()
            .filter(|(_, parent, n)| *parent == base && n.starts_with("machine "))
            .map(|(uuid, _, _)| *uuid)
            .collect();
        assert!(!machines.is_empty(), "tenant `{name}` has machine lanes");
        for lane in machines {
            for slice in summary.slices_on(lane) {
                if slice.starts_with("job ") {
                    jobs += 1;
                } else if slice == "calibrate" {
                    calibrations += 1;
                }
            }
        }
        assert_eq!(jobs, 1000, "tenant `{name}` must show all job slices");
        assert!(calibrations > 0, "tenant `{name}` must show calibrations");

        // The tick-policy journal produced fsync slices on the journal lane.
        let journal = base + 800;
        let fsyncs = summary
            .slices_on(journal)
            .iter()
            .filter(|s| **s == "fsync")
            .count();
        assert!(fsyncs > 0, "tenant `{name}` must show fsync slices");

        // Counter tracks exist and carry samples.
        for (offset, counter) in [(900, "queued"), (901, "flow")] {
            let track = base + offset;
            assert!(
                summary
                    .counter_tracks
                    .iter()
                    .any(|(uuid, parent, n)| *uuid == track && *parent == base && n == counter),
                "tenant `{name}` must declare a `{counter}` counter track"
            );
            assert!(
                summary.counter_samples.iter().any(|(t, _)| *t == track),
                "tenant `{name}` `{counter}` counter must have samples"
            );
        }
    }

    // Conversion is deterministic: a second pass over the same inputs is
    // byte-identical (the trace files contain no wall-clock data).
    let again = convert(&inputs, None, 1).unwrap();
    assert_eq!(out.bytes, again.bytes);
}

/// Regression guard for the snapshot-stream integration: feeding the
/// converter a `--metrics` JSON-lines file alongside the tenant traces
/// yields daemon counter tracks without disturbing the tenant layout.
#[test]
fn converter_accepts_a_metrics_stream_alongside_traces() {
    let dir = TempDir::new("metrics");
    let trace_dir = dir.0.join("traces");

    let lines = [
        r#"{"type":"hello","tenant":"m","machines":1,"cal_len":2,"cal_cost":3,"algorithm":"alg1"}"#,
        r#"{"type":"arrive","tenant":"m","jobs":[{"id":0,"release":0,"weight":1}]}"#,
        r#"{"type":"tick","tenant":"m","now":10}"#,
        r#"{"type":"drain","tenant":"m"}"#,
        r#"{"type":"bye","tenant":"m"}"#,
    ];
    let input = lines.join("\n") + "\n";

    let snapshots = Arc::new(Mutex::new(Vec::<u8>::new()));
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
    struct NullOut;
    impl Write for NullOut {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let report = serve_stream(
        input.as_bytes(),
        Box::new(NullOut),
        ServerConfig {
            workers: 1,
            trace_dir: Some(trace_dir.clone()),
            metrics_interval: Some(std::time::Duration::from_millis(5)),
            metrics_sink: Some(Arc::new(calib_serve::LineSink::new(Box::new(SharedBuf(
                Arc::clone(&snapshots),
            ))))),
            ..Default::default()
        },
    );
    assert!(report.all_ok());

    let trace = std::fs::read_to_string(trace_dir.join("m.jsonl")).unwrap();
    let metrics = String::from_utf8(snapshots.lock().unwrap().clone()).unwrap();
    assert!(!metrics.is_empty(), "the sink must capture snapshots");

    let out = convert(&[("m".to_string(), trace)], Some(&metrics), 1).unwrap();
    let summary = summarize(&out.bytes).unwrap();
    assert_eq!(out.tenants, vec!["m"]);
    let group = summary.track_named("daemon metrics").unwrap();
    let counters: Vec<&str> = summary
        .counter_tracks
        .iter()
        .filter(|(_, parent, _)| *parent == group)
        .map(|(_, _, n)| n.as_str())
        .collect();
    assert!(
        counters.contains(&"decisions"),
        "daemon counter tracks: {counters:?}"
    );
    assert!(summary.track_named("m").is_some());
}
