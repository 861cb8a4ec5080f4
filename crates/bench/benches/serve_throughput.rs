//! Serve-layer throughput: what the daemon costs over the bare engine.
//!
//! Three layers, measured separately so a regression is attributable:
//!
//! * `batch_run` / `session_ticked` — the engine itself, batch vs the
//!   re-entrant `EngineSession` stepped once per distinct release (the
//!   daemon's access pattern). These must stay close: the session IS the
//!   batch loop, just re-entrant.
//! * `protocol_parse` / `protocol_serialize` — wire-format costs per
//!   message, on a representative `arrive` line.
//! * `json_parse_tick` / `json_parse_decisions_reply` — `Json::parse`
//!   alone on the two lines a chatty tenant exchanges per step: a ~75 B
//!   `tick` request and the ~170 B `decisions` reply it gets back.
//! * `serve_stream_session` — a full in-process daemon pass (hello →
//!   arrive/tick per release → drain → bye) through `serve_stream`, the
//!   same code path TCP connections use minus the socket.
//! * `serve_stream_journaled` — the same pass with the write-ahead
//!   journal on (`fsync off`, so the number is the serialization and
//!   buffered-write overhead, not the disk's sync latency).
//! * `serve_stream_checkpointed` — the journaled pass plus cadence
//!   checkpoints and idle compaction; the gate bounds its ratio over
//!   `serve_stream_journaled` so recovery-bounding stays cheap.
//! * `serve_stream_admitted` — the journaled pass with admission control
//!   armed but never firing (huge budget and refill, so every request
//!   admits); the gate bounds its ratio over `serve_stream_journaled` so
//!   the per-request admission gate stays in the noise.
//! * `metrics_overhead` — the same pass as `serve_stream_session` but with
//!   the periodic metrics snapshot stream enabled. The bench gate holds
//!   the `metrics_overhead / serve_stream_session` ratio under a tight
//!   bound: always-on counters plus the snapshot thread must stay in the
//!   noise of the serve path.

use calib_bench::harness::Bench;
use calib_core::json::{Json, ToJson};
use calib_core::{Assignment, Calibration, Instance, Job, JobId, MachineId};
use calib_difftest::{gen_case_sized, GenParams};
use calib_online::{run_online, Alg2, EngineConfig, EngineSession};
use calib_serve::{
    serve_stream, AdmitConfig, Algorithm, FsyncPolicy, LineSink, Reply, Request, ServerConfig,
};

/// The daemon's arrival pattern: jobs grouped by release, ascending.
fn release_groups(instance: &Instance) -> Vec<(i64, Vec<Job>)> {
    let mut jobs = instance.jobs().to_vec();
    jobs.sort_by_key(|j| (j.release, j.id));
    let mut groups: Vec<(i64, Vec<Job>)> = Vec::new();
    for job in jobs {
        match groups.last_mut() {
            Some((r, batch)) if *r == job.release => batch.push(job),
            _ => groups.push((job.release, vec![job])),
        }
    }
    groups
}

fn transcript(instance: &Instance, cal_cost: u128, groups: &[(i64, Vec<Job>)]) -> String {
    let mut lines = vec![Json::obj([
        ("type", "hello".to_json()),
        ("tenant", "bench".to_json()),
        ("machines", instance.machines().to_json()),
        ("cal_len", instance.cal_len().to_json()),
        ("cal_cost", cal_cost.to_json()),
        ("algorithm", Algorithm::Alg2.name().to_json()),
    ])
    .to_string_compact()];
    for (release, batch) in groups {
        lines.push(
            Json::obj([
                ("type", "arrive".to_json()),
                ("tenant", "bench".to_json()),
                ("jobs", batch.to_json()),
            ])
            .to_string_compact(),
        );
        lines.push(
            Json::obj([
                ("type", "tick".to_json()),
                ("tenant", "bench".to_json()),
                ("now", release.to_json()),
            ])
            .to_string_compact(),
        );
    }
    lines.push(r#"{"type":"drain","tenant":"bench"}"#.to_string());
    lines.push(r#"{"type":"bye","tenant":"bench"}"#.to_string());
    lines.join("\n") + "\n"
}

fn main() {
    let mut b = Bench::new("serve");

    let params = GenParams {
        max_p: 1,
        max_t: 8,
        max_g: 60,
        max_n: 1,
        max_weight: 9,
    };
    let case = gen_case_sized(2017, &params, 1500);
    let instance = &case.instance;
    let groups = release_groups(instance);

    b.bench("batch_run", || {
        run_online(instance, case.cal_cost, &mut Alg2::new()).cost
    });

    b.bench("session_ticked", || {
        let mut session = EngineSession::new(
            instance.machines(),
            instance.cal_len(),
            case.cal_cost,
            EngineConfig::default(),
        )
        .expect("machines >= 1");
        let mut scheduler = Alg2::new();
        let mut decisions = 0usize;
        for (release, batch) in &groups {
            decisions += session
                .step(*release, batch, &mut scheduler)
                .expect("bench instance is well-formed")
                .len();
        }
        decisions += session
            .drain(&mut scheduler)
            .expect("drain cannot fail on a well-formed instance")
            .len();
        let (outcome, _) = session.finish();
        assert!(decisions >= instance.n());
        outcome.cost
    });

    let mut sample_jobs: Vec<Job> = groups.iter().flat_map(|(_, b)| b.clone()).collect();
    sample_jobs.truncate(32);
    let arrive_line = Json::obj([
        ("type", "arrive".to_json()),
        ("tenant", "bench".to_json()),
        ("jobs", sample_jobs.to_json()),
        ("seq", 7u64.to_json()),
    ])
    .to_string_compact();

    b.bench("protocol_parse", || {
        let json = Json::parse(&arrive_line).expect("line is valid");
        let req = Request::from_json(&json).expect("line is a valid request");
        match req {
            Request::Arrive { jobs, .. } => jobs.len(),
            _ => unreachable!("line is an arrive"),
        }
    });

    let parsed = Json::parse(&arrive_line).expect("line is valid");
    b.bench("protocol_serialize", || parsed.to_string_compact().len());

    let tick_line = Json::obj([
        ("type", "tick".to_json()),
        ("tenant", "chatty-journaled-t5".to_json()),
        ("now", 1_048_576i64.to_json()),
        ("seq", 40_961u64.to_json()),
    ])
    .to_string_compact();
    b.bench("json_parse_tick", || {
        Json::parse(&tick_line)
            .expect("line is valid")
            .get("now")
            .is_some()
    });
    let decisions_reply = Reply::Decisions {
        tenant: "chatty-journaled-t5".to_string(),
        now: Some(1_048_576),
        calibrations: vec![Calibration::new(0, 1_048_571)],
        starts: vec![Assignment::new(JobId(4_097), 1_048_576, MachineId(0))],
        idle: false,
        seq: Some(40_961),
    }
    .to_line();
    b.bench("json_parse_decisions_reply", || {
        Json::parse(decisions_reply.trim_end())
            .expect("line is valid")
            .get("starts")
            .is_some()
    });

    let script = transcript(instance, case.cal_cost, &groups);
    b.bench("serve_stream_session", || {
        let report = serve_stream(
            script.as_bytes(),
            Box::new(std::io::sink()),
            ServerConfig {
                workers: 1,
                queue_cap: 1_000_000,
                ..Default::default()
            },
        );
        assert!(report.all_ok());
        report.accountings.len()
    });

    // Same stream with the snapshot thread running and a live sink. The
    // interval is shorter than a pass, so snapshot serialization is *in*
    // the measurement, not just the registry's atomics.
    b.bench("metrics_overhead", || {
        let report = serve_stream(
            script.as_bytes(),
            Box::new(std::io::sink()),
            ServerConfig {
                workers: 1,
                queue_cap: 1_000_000,
                metrics_interval: Some(std::time::Duration::from_millis(2)),
                metrics_sink: Some(std::sync::Arc::new(LineSink::new(
                    Box::new(std::io::sink()),
                ))),
                ..Default::default()
            },
        );
        assert!(report.all_ok());
        report.accountings.len()
    });

    // Same stream with journaling on. The clean `bye` deletes the journal
    // each pass, so the directory never accumulates.
    let journal_dir =
        std::env::temp_dir().join(format!("calib-bench-journal-{}", std::process::id()));
    std::fs::create_dir_all(&journal_dir).expect("create journal dir");
    b.bench("serve_stream_journaled", || {
        let report = serve_stream(
            script.as_bytes(),
            Box::new(std::io::sink()),
            ServerConfig {
                workers: 1,
                queue_cap: 1_000_000,
                journal_dir: Some(journal_dir.clone()),
                fsync: FsyncPolicy::Off,
                ..Default::default()
            },
        );
        assert!(report.all_ok());
        report.accountings.len()
    });

    // The journaled stream plus cadence checkpoints and idle compaction —
    // the recovery-bounding machinery. The bench gate holds the
    // `serve_stream_checkpointed / serve_stream_journaled` ratio under
    // 1.05×: a full-state snapshot every 1024 records (a few per pass
    // here) must stay near the noise of the journaled path.
    b.bench("serve_stream_checkpointed", || {
        let report = serve_stream(
            script.as_bytes(),
            Box::new(std::io::sink()),
            ServerConfig {
                workers: 1,
                queue_cap: 1_000_000,
                journal_dir: Some(journal_dir.clone()),
                fsync: FsyncPolicy::Off,
                checkpoint_every: Some(1024),
                compact_on_idle: true,
                ..Default::default()
            },
        );
        assert!(report.all_ok());
        report.accountings.len()
    });

    // The journaled stream with the admission gate armed but sized so no
    // request is ever shed or rate-limited: the measurement is the pure
    // bookkeeping cost of the gate (one leaf-mutex admit per work-bearing
    // request plus a complete per processed request). The bench gate
    // holds `serve_stream_admitted / serve_stream_journaled` under 1.03×.
    b.bench("serve_stream_admitted", || {
        let report = serve_stream(
            script.as_bytes(),
            Box::new(std::io::sink()),
            ServerConfig {
                workers: 1,
                queue_cap: 1_000_000,
                journal_dir: Some(journal_dir.clone()),
                fsync: FsyncPolicy::Off,
                admit: AdmitConfig {
                    max_inflight: Some(1_000_000),
                    rate_per_k: Some(1_000_000),
                    burst: 1_000_000,
                },
                ..Default::default()
            },
        );
        assert!(report.all_ok());
        report.accountings.len()
    });
    std::fs::remove_dir_all(&journal_dir).ok();

    b.finish();
}
