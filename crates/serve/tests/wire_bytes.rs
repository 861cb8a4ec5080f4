//! Pinned bytes for every reply, journal record and checkpoint.
//!
//! Each `Reply` and `JournalRecord` variant is serialized and compared
//! with a string literal. The corpus covers the awkward inputs: tenant
//! names that need escaping or are not ASCII, integer extremes, optional
//! fields both absent and present, metrics snapshots with their own
//! `seq`, and alg1/alg2/alg3 checkpoints taken mid-run and after drain.
//!
//! Two further checks make the literals a reference rather than a
//! snapshot: every line survives `Json::parse` followed by
//! `to_string_compact` byte for byte, and every journal line parses back
//! into the record it came from.

use calib_core::json::Json;
use calib_core::obs::CounterSnapshot;
use calib_core::{Assignment, Calibration, Job, JobId, MachineId};
use calib_serve::{
    Accounting, Algorithm, CheckpointState, JournalRecord, Reply, TenantConfig, TenantSession,
};

/// A name that needs every kind of escape, plus non-ASCII text.
const WEIRD: &str = "q\"b\\s\nc\u{1}é—✓";

fn counters() -> CounterSnapshot {
    CounterSnapshot::from_json(
        &Json::parse(r#"{"events":18446744073709551615,"arrivals":3,"calibrations":1}"#)
            .expect("counter object"),
    )
}

fn accounting(checker_ok: bool) -> Accounting {
    Accounting {
        tenant: WEIRD.to_string(),
        jobs: 4,
        scheduled: if checker_ok { 4 } else { 3 },
        calibrations: 2,
        flow: u128::MAX,
        cost: 0,
        checker_ok,
        violations: if checker_ok {
            Vec::new()
        } else {
            vec!["job-unscheduled".to_string(), "odd\"code".to_string()]
        },
    }
}

fn calibrations() -> Vec<Calibration> {
    vec![Calibration::new(0, i64::MIN), Calibration::new(3, i64::MAX)]
}

fn starts() -> Vec<Assignment> {
    vec![
        Assignment::new(JobId(u32::MAX), i64::MAX, MachineId(2)),
        Assignment::new(JobId(0), -1, MachineId(0)),
    ]
}

fn metrics_snapshot() -> Json {
    Json::obj([
        ("type", Json::Str("metrics".to_string())),
        ("seq", Json::UInt(5)),
        (
            "global",
            Json::obj([
                ("seq", Json::UInt(9)),
                ("big", Json::Float(1e300)),
                ("zero", Json::Float(0.0)),
                ("neg", Json::Int(i128::from(i64::MIN))),
            ]),
        ),
        (
            "tenants",
            Json::Arr(vec![Json::obj([("tenant", Json::Str(WEIRD.to_string()))])]),
        ),
    ])
}

fn config(machines: usize, algorithm: Algorithm) -> TenantConfig {
    TenantConfig {
        machines,
        cal_len: 3,
        cal_cost: 4,
        algorithm,
    }
}

/// Checkpoints of small alg1/alg2/alg3 runs: one mid-run and one after
/// drain per algorithm, plus a fresh session (no `now`, no `last_seq`).
fn checkpoints() -> Vec<CheckpointState> {
    let mut out = Vec::new();
    let fresh = TenantSession::new(WEIRD, config(1, Algorithm::Alg1), None).expect("session");
    out.push(fresh.checkpoint_state());
    for (machines, algorithm) in [
        (1, Algorithm::Alg1),
        (1, Algorithm::Alg2),
        (2, Algorithm::Alg3),
    ] {
        let mut s = TenantSession::new(algorithm.name(), config(machines, algorithm), None)
            .expect("session");
        s.arrive(
            &[
                Job::new(0, 0, 1),
                Job::new(1, 1, 3),
                Job::new(2, 1, 2),
                Job::new(3, 6, 1),
            ],
            Some(1),
        )
        .expect("arrive");
        s.note_seq(1);
        s.tick(2, Some(2)).expect("tick");
        s.note_seq(2);
        out.push(s.checkpoint_state());
        s.drain(Some(3)).expect("drain");
        s.note_seq(3);
        out.push(s.checkpoint_state());
    }
    // Integer extremes, reservations with and without an interval, an
    // escaped trace label and no cursor. Only parsed, never restored.
    let mut extreme = out[1].clone();
    extreme.last_seq = Some(u64::MAX);
    extreme.now = Some(i64::MIN);
    extreme.flow = u128::MAX;
    extreme.cost = u128::MAX;
    extreme.engine.machines[0]
        .coverage
        .push((i64::MIN, i64::MAX));
    extreme.engine.machines[0].reservations = vec![
        (i64::MIN, JobId(u32::MAX), None),
        (7, JobId(1), Some(usize::MAX)),
    ];
    extreme.engine.trace.push((i64::MAX, WEIRD.to_string()));
    extreme.engine.cursor = None;
    out.push(extreme);
    out
}

fn replies() -> Vec<Reply> {
    let state = Box::new(checkpoints().swap_remove(1));
    vec![
        Reply::Ok {
            tenant: WEIRD.to_string(),
            seq: None,
        },
        Reply::Ok {
            tenant: "a".to_string(),
            seq: Some(u64::MAX),
        },
        Reply::Decisions {
            tenant: "a".to_string(),
            now: None,
            calibrations: Vec::new(),
            starts: Vec::new(),
            idle: true,
            seq: None,
        },
        Reply::Decisions {
            tenant: WEIRD.to_string(),
            now: Some(i64::MIN),
            calibrations: calibrations(),
            starts: starts(),
            idle: false,
            seq: Some(7),
        },
        Reply::Stats {
            tenant: WEIRD.to_string(),
            counters: counters(),
            queue_depth: 0,
            queue_high_water: 12,
            busy_drops: u64::MAX,
            seq: Some(0),
        },
        Reply::Stats {
            tenant: "a".to_string(),
            counters: CounterSnapshot::default(),
            queue_depth: 1,
            queue_high_water: 1,
            busy_drops: 0,
            seq: None,
        },
        Reply::Drained {
            accounting: accounting(false),
            calibrations: calibrations(),
            starts: starts(),
            seq: Some(9),
        },
        Reply::Drained {
            accounting: accounting(true),
            calibrations: Vec::new(),
            starts: Vec::new(),
            seq: None,
        },
        Reply::Goodbye {
            accounting: accounting(true),
            seq: Some(10),
        },
        Reply::Goodbye {
            accounting: accounting(false),
            seq: None,
        },
        Reply::Resumed {
            tenant: "a".to_string(),
            last_seq: None,
            now: None,
            idle: true,
            seq: None,
        },
        Reply::Resumed {
            tenant: WEIRD.to_string(),
            last_seq: Some(u64::MAX),
            now: Some(i64::MAX),
            idle: false,
            seq: Some(1),
        },
        Reply::Pong {
            connections: u64::MAX,
            active_connections: 0,
            tenants: 2,
            requests: 99,
            busy_drops: 1,
            seq: None,
        },
        Reply::Pong {
            connections: 1,
            active_connections: 1,
            tenants: 0,
            requests: 0,
            busy_drops: 0,
            seq: Some(u64::MAX),
        },
        Reply::Metrics {
            snapshot: metrics_snapshot(),
            seq: Some(3),
        },
        Reply::Metrics {
            snapshot: metrics_snapshot(),
            seq: None,
        },
        Reply::Metrics {
            snapshot: Json::Arr(vec![Json::UInt(1), Json::Null, Json::Bool(false)]),
            seq: Some(2),
        },
        Reply::Metrics {
            snapshot: Json::Str(WEIRD.to_string()),
            seq: None,
        },
        Reply::Adopted {
            tenant: "a".to_string(),
            last_seq: None,
            seq: None,
        },
        Reply::Adopted {
            tenant: WEIRD.to_string(),
            last_seq: Some(5),
            seq: Some(6),
        },
        Reply::Evicted {
            state: state.clone(),
            seq: Some(8),
        },
        Reply::Evicted { state, seq: None },
        Reply::error("bad-json", WEIRD, None, None),
        Reply::error_retry_after("shed", "over budget", Some(WEIRD), u64::MAX, Some(4)),
        Reply::error("busy", "queue full", Some("a"), Some(0)),
    ]
}

fn records() -> Vec<JournalRecord> {
    let mut out = vec![
        JournalRecord::Hello {
            tenant: WEIRD.to_string(),
            machines: 1,
            cal_len: i64::MIN,
            cal_cost: u128::MAX,
            algorithm: Algorithm::Alg1,
            seq: None,
        },
        JournalRecord::Hello {
            tenant: "a".to_string(),
            machines: 3,
            cal_len: i64::MAX,
            cal_cost: 0,
            algorithm: Algorithm::Alg3,
            seq: Some(0),
        },
        JournalRecord::hello("b", &config(1, Algorithm::Alg2), Some(u64::MAX)),
        JournalRecord::Arrive {
            jobs: vec![
                Job::new(u32::MAX, i64::MIN, u64::MAX),
                Job::new(0, i64::MAX, 1),
            ],
            seq: Some(u64::MAX),
        },
        JournalRecord::Arrive {
            jobs: Vec::new(),
            seq: None,
        },
        JournalRecord::Tick {
            now: i64::MIN,
            seq: None,
        },
        JournalRecord::Tick {
            now: i64::MAX,
            seq: Some(3),
        },
        JournalRecord::Drain { seq: None },
        JournalRecord::Drain { seq: Some(0) },
    ];
    out.extend(
        checkpoints()
            .into_iter()
            .map(|s| JournalRecord::Checkpoint(Box::new(s))),
    );
    out
}

/// Every line must be its own compact rendering: parsing it and writing
/// the tree back gives the same bytes.
fn assert_canonical(line: &str) {
    let body = line.strip_suffix('\n').expect("line ends in a newline");
    assert!(!body.contains('\n'), "one line per message: {body:?}");
    let tree = Json::parse(body).unwrap_or_else(|e| panic!("unparseable {body:?}: {e}"));
    assert_eq!(tree.to_string_compact(), body);
}

#[test]
fn replies_have_the_pinned_bytes() {
    let got: Vec<String> = replies().iter().map(Reply::to_line).collect();
    assert_eq!(got.len(), REPLY_LINES.len());
    for (i, (line, want)) in got.iter().zip(REPLY_LINES).enumerate() {
        assert_eq!(line.strip_suffix('\n'), Some(want), "reply #{i}");
        assert_canonical(line);
    }
}

#[test]
fn journal_records_have_the_pinned_bytes_and_round_trip() {
    let records = records();
    assert_eq!(records.len(), RECORD_LINES.len());
    for (i, (record, want)) in records.iter().zip(RECORD_LINES).enumerate() {
        let line = record.to_line();
        assert_eq!(line.strip_suffix('\n'), Some(want), "record #{i}");
        assert_canonical(&line);
        let tree = Json::parse(want).expect("pinned line parses");
        let back = JournalRecord::from_json(&tree).unwrap_or_else(|e| panic!("record #{i}: {e}"));
        assert_eq!(&back, record, "record #{i} round trip");
    }
}

const REPLY_LINES: [&str; 25] = [
    "{\"type\":\"ok\",\"tenant\":\"q\\\"b\\\\s\\nc\\u0001é—✓\"}",
    "{\"type\":\"ok\",\"tenant\":\"a\",\"seq\":18446744073709551615}",
    "{\"type\":\"decisions\",\"tenant\":\"a\",\"calibrations\":[],\"starts\":[],\"idle\":true}",
    "{\"type\":\"decisions\",\"tenant\":\"q\\\"b\\\\s\\nc\\u0001é—✓\",\"now\":-9223372036854775808,\"calibrations\":[{\"machine\":0,\"start\":-9223372036854775808},{\"machine\":3,\"start\":9223372036854775807}],\"starts\":[{\"job\":4294967295,\"start\":9223372036854775807,\"machine\":2},{\"job\":0,\"start\":-1,\"machine\":0}],\"idle\":false,\"seq\":7}",
    "{\"type\":\"stats\",\"tenant\":\"q\\\"b\\\\s\\nc\\u0001é—✓\",\"counters\":{\"events\":18446744073709551615,\"arrivals\":3,\"time_skips\":0,\"calibrations\":1,\"dispatches\":0,\"reservations\":0,\"wakes\":0,\"journal_syncs\":0,\"dp_states_expanded\":0,\"dp_states_pruned\":0,\"assigner_slots_scanned\":0,\"lp_pivots\":0},\"queue_depth\":0,\"queue_high_water\":12,\"busy_drops\":18446744073709551615,\"seq\":0}",
    "{\"type\":\"stats\",\"tenant\":\"a\",\"counters\":{\"events\":0,\"arrivals\":0,\"time_skips\":0,\"calibrations\":0,\"dispatches\":0,\"reservations\":0,\"wakes\":0,\"journal_syncs\":0,\"dp_states_expanded\":0,\"dp_states_pruned\":0,\"assigner_slots_scanned\":0,\"lp_pivots\":0},\"queue_depth\":1,\"queue_high_water\":1,\"busy_drops\":0}",
    "{\"type\":\"drained\",\"tenant\":\"q\\\"b\\\\s\\nc\\u0001é—✓\",\"jobs\":4,\"scheduled\":3,\"calibrations\":2,\"flow\":340282366920938463463374607431768211455,\"cost\":0,\"checker_ok\":false,\"violations\":[\"job-unscheduled\",\"odd\\\"code\"],\"decisions\":{\"calibrations\":[{\"machine\":0,\"start\":-9223372036854775808},{\"machine\":3,\"start\":9223372036854775807}],\"starts\":[{\"job\":4294967295,\"start\":9223372036854775807,\"machine\":2},{\"job\":0,\"start\":-1,\"machine\":0}]},\"seq\":9}",
    "{\"type\":\"drained\",\"tenant\":\"q\\\"b\\\\s\\nc\\u0001é—✓\",\"jobs\":4,\"scheduled\":4,\"calibrations\":2,\"flow\":340282366920938463463374607431768211455,\"cost\":0,\"checker_ok\":true,\"violations\":[],\"decisions\":{\"calibrations\":[],\"starts\":[]}}",
    "{\"type\":\"goodbye\",\"tenant\":\"q\\\"b\\\\s\\nc\\u0001é—✓\",\"jobs\":4,\"scheduled\":4,\"calibrations\":2,\"flow\":340282366920938463463374607431768211455,\"cost\":0,\"checker_ok\":true,\"violations\":[],\"seq\":10}",
    "{\"type\":\"goodbye\",\"tenant\":\"q\\\"b\\\\s\\nc\\u0001é—✓\",\"jobs\":4,\"scheduled\":3,\"calibrations\":2,\"flow\":340282366920938463463374607431768211455,\"cost\":0,\"checker_ok\":false,\"violations\":[\"job-unscheduled\",\"odd\\\"code\"]}",
    "{\"type\":\"resumed\",\"tenant\":\"a\",\"idle\":true}",
    "{\"type\":\"resumed\",\"tenant\":\"q\\\"b\\\\s\\nc\\u0001é—✓\",\"last_seq\":18446744073709551615,\"now\":9223372036854775807,\"idle\":false,\"seq\":1}",
    "{\"type\":\"pong\",\"connections\":18446744073709551615,\"active_connections\":0,\"tenants\":2,\"requests\":99,\"busy_drops\":1}",
    "{\"type\":\"pong\",\"connections\":1,\"active_connections\":1,\"tenants\":0,\"requests\":0,\"busy_drops\":0,\"seq\":18446744073709551615}",
    "{\"type\":\"metrics\",\"global\":{\"seq\":9,\"big\":1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0,\"zero\":0.0,\"neg\":-9223372036854775808},\"tenants\":[{\"tenant\":\"q\\\"b\\\\s\\nc\\u0001é—✓\"}],\"seq\":3}",
    "{\"type\":\"metrics\",\"global\":{\"seq\":9,\"big\":1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0,\"zero\":0.0,\"neg\":-9223372036854775808},\"tenants\":[{\"tenant\":\"q\\\"b\\\\s\\nc\\u0001é—✓\"}]}",
    "{\"snapshot\":[1,null,false],\"seq\":2}",
    "{\"snapshot\":\"q\\\"b\\\\s\\nc\\u0001é—✓\"}",
    "{\"type\":\"adopted\",\"tenant\":\"a\"}",
    "{\"type\":\"adopted\",\"tenant\":\"q\\\"b\\\\s\\nc\\u0001é—✓\",\"last_seq\":5,\"seq\":6}",
    "{\"type\":\"evicted\",\"tenant\":\"alg1\",\"state\":{\"tenant\":\"alg1\",\"machines\":1,\"cal_len\":3,\"cal_cost\":4,\"algorithm\":\"alg1\",\"flow\":0,\"total_cost\":0,\"counters\":{\"events\":9,\"arrivals\":3,\"time_skips\":0,\"calibrations\":1,\"dispatches\":2,\"reservations\":0,\"wakes\":3,\"journal_syncs\":0,\"dp_states_expanded\":0,\"dp_states_pruned\":0,\"assigner_slots_scanned\":0,\"lp_pivots\":0},\"engine\":{\"cal_len\":3,\"cal_cost\":4,\"config\":{\"max_steps\":50000000,\"max_decides_per_step\":4096,\"time_skip\":true},\"known\":[{\"id\":0,\"release\":0,\"weight\":1},{\"id\":1,\"release\":1,\"weight\":3},{\"id\":2,\"release\":1,\"weight\":2},{\"id\":3,\"release\":6,\"weight\":1}],\"pending\":[3],\"waiting\":[2],\"machines\":[{\"coverage\":[[1,4]],\"used_until\":3,\"reservations\":[]}],\"intervals\":[{\"machine\":0,\"start\":1,\"jobs\":[[0,1],[1,2]]}],\"rr_next\":1,\"calibrations\":[{\"machine\":0,\"start\":1}],\"assignments\":[{\"job\":0,\"start\":1,\"machine\":0},{\"job\":1,\"start\":2,\"machine\":0}],\"trace\":[[1,\"alg1:queue>=G/T\"]],\"fuel\":49999997,\"clock\":2,\"started\":true,\"cal_mark\":1,\"asg_mark\":2,\"cursor\":3},\"last_seq\":2,\"now\":2},\"seq\":8}",
    "{\"type\":\"evicted\",\"tenant\":\"alg1\",\"state\":{\"tenant\":\"alg1\",\"machines\":1,\"cal_len\":3,\"cal_cost\":4,\"algorithm\":\"alg1\",\"flow\":0,\"total_cost\":0,\"counters\":{\"events\":9,\"arrivals\":3,\"time_skips\":0,\"calibrations\":1,\"dispatches\":2,\"reservations\":0,\"wakes\":3,\"journal_syncs\":0,\"dp_states_expanded\":0,\"dp_states_pruned\":0,\"assigner_slots_scanned\":0,\"lp_pivots\":0},\"engine\":{\"cal_len\":3,\"cal_cost\":4,\"config\":{\"max_steps\":50000000,\"max_decides_per_step\":4096,\"time_skip\":true},\"known\":[{\"id\":0,\"release\":0,\"weight\":1},{\"id\":1,\"release\":1,\"weight\":3},{\"id\":2,\"release\":1,\"weight\":2},{\"id\":3,\"release\":6,\"weight\":1}],\"pending\":[3],\"waiting\":[2],\"machines\":[{\"coverage\":[[1,4]],\"used_until\":3,\"reservations\":[]}],\"intervals\":[{\"machine\":0,\"start\":1,\"jobs\":[[0,1],[1,2]]}],\"rr_next\":1,\"calibrations\":[{\"machine\":0,\"start\":1}],\"assignments\":[{\"job\":0,\"start\":1,\"machine\":0},{\"job\":1,\"start\":2,\"machine\":0}],\"trace\":[[1,\"alg1:queue>=G/T\"]],\"fuel\":49999997,\"clock\":2,\"started\":true,\"cal_mark\":1,\"asg_mark\":2,\"cursor\":3},\"last_seq\":2,\"now\":2}}",
    "{\"type\":\"error\",\"code\":\"bad-json\",\"message\":\"q\\\"b\\\\s\\nc\\u0001é—✓\"}",
    "{\"type\":\"error\",\"code\":\"shed\",\"message\":\"over budget\",\"tenant\":\"q\\\"b\\\\s\\nc\\u0001é—✓\",\"retry_after_ms\":18446744073709551615,\"seq\":4}",
    "{\"type\":\"error\",\"code\":\"busy\",\"message\":\"queue full\",\"tenant\":\"a\",\"seq\":0}",
];

const RECORD_LINES: [&str; 17] = [
    "{\"op\":\"hello\",\"tenant\":\"q\\\"b\\\\s\\nc\\u0001é—✓\",\"machines\":1,\"cal_len\":-9223372036854775808,\"cal_cost\":340282366920938463463374607431768211455,\"algorithm\":\"alg1\"}",
    "{\"op\":\"hello\",\"tenant\":\"a\",\"machines\":3,\"cal_len\":9223372036854775807,\"cal_cost\":0,\"algorithm\":\"alg3\",\"seq\":0}",
    "{\"op\":\"hello\",\"tenant\":\"b\",\"machines\":1,\"cal_len\":3,\"cal_cost\":4,\"algorithm\":\"alg2\",\"seq\":18446744073709551615}",
    "{\"op\":\"arrive\",\"jobs\":[{\"id\":4294967295,\"release\":-9223372036854775808,\"weight\":18446744073709551615},{\"id\":0,\"release\":9223372036854775807,\"weight\":1}],\"seq\":18446744073709551615}",
    "{\"op\":\"arrive\",\"jobs\":[]}",
    "{\"op\":\"tick\",\"now\":-9223372036854775808}",
    "{\"op\":\"tick\",\"now\":9223372036854775807,\"seq\":3}",
    "{\"op\":\"drain\"}",
    "{\"op\":\"drain\",\"seq\":0}",
    "{\"op\":\"checkpoint\",\"tenant\":\"q\\\"b\\\\s\\nc\\u0001é—✓\",\"machines\":1,\"cal_len\":3,\"cal_cost\":4,\"algorithm\":\"alg1\",\"flow\":0,\"total_cost\":0,\"counters\":{\"events\":0,\"arrivals\":0,\"time_skips\":0,\"calibrations\":0,\"dispatches\":0,\"reservations\":0,\"wakes\":0,\"journal_syncs\":0,\"dp_states_expanded\":0,\"dp_states_pruned\":0,\"assigner_slots_scanned\":0,\"lp_pivots\":0},\"engine\":{\"cal_len\":3,\"cal_cost\":4,\"config\":{\"max_steps\":50000000,\"max_decides_per_step\":4096,\"time_skip\":true},\"known\":[],\"pending\":[],\"waiting\":[],\"machines\":[{\"coverage\":[],\"used_until\":-9223372036854775808,\"reservations\":[]}],\"intervals\":[],\"rr_next\":0,\"calibrations\":[],\"assignments\":[],\"trace\":[],\"fuel\":50000000,\"clock\":0,\"started\":false,\"cal_mark\":0,\"asg_mark\":0}}",
    "{\"op\":\"checkpoint\",\"tenant\":\"alg1\",\"machines\":1,\"cal_len\":3,\"cal_cost\":4,\"algorithm\":\"alg1\",\"flow\":0,\"total_cost\":0,\"counters\":{\"events\":9,\"arrivals\":3,\"time_skips\":0,\"calibrations\":1,\"dispatches\":2,\"reservations\":0,\"wakes\":3,\"journal_syncs\":0,\"dp_states_expanded\":0,\"dp_states_pruned\":0,\"assigner_slots_scanned\":0,\"lp_pivots\":0},\"engine\":{\"cal_len\":3,\"cal_cost\":4,\"config\":{\"max_steps\":50000000,\"max_decides_per_step\":4096,\"time_skip\":true},\"known\":[{\"id\":0,\"release\":0,\"weight\":1},{\"id\":1,\"release\":1,\"weight\":3},{\"id\":2,\"release\":1,\"weight\":2},{\"id\":3,\"release\":6,\"weight\":1}],\"pending\":[3],\"waiting\":[2],\"machines\":[{\"coverage\":[[1,4]],\"used_until\":3,\"reservations\":[]}],\"intervals\":[{\"machine\":0,\"start\":1,\"jobs\":[[0,1],[1,2]]}],\"rr_next\":1,\"calibrations\":[{\"machine\":0,\"start\":1}],\"assignments\":[{\"job\":0,\"start\":1,\"machine\":0},{\"job\":1,\"start\":2,\"machine\":0}],\"trace\":[[1,\"alg1:queue>=G/T\"]],\"fuel\":49999997,\"clock\":2,\"started\":true,\"cal_mark\":1,\"asg_mark\":2,\"cursor\":3},\"last_seq\":2,\"now\":2}",
    "{\"op\":\"checkpoint\",\"tenant\":\"alg1\",\"machines\":1,\"cal_len\":3,\"cal_cost\":4,\"algorithm\":\"alg1\",\"flow\":0,\"total_cost\":0,\"counters\":{\"events\":17,\"arrivals\":4,\"time_skips\":2,\"calibrations\":2,\"dispatches\":4,\"reservations\":0,\"wakes\":5,\"journal_syncs\":0,\"dp_states_expanded\":0,\"dp_states_pruned\":0,\"assigner_slots_scanned\":0,\"lp_pivots\":0},\"engine\":{\"cal_len\":3,\"cal_cost\":4,\"config\":{\"max_steps\":50000000,\"max_decides_per_step\":4096,\"time_skip\":true},\"known\":[{\"id\":0,\"release\":0,\"weight\":1},{\"id\":1,\"release\":1,\"weight\":3},{\"id\":2,\"release\":1,\"weight\":2},{\"id\":3,\"release\":6,\"weight\":1}],\"pending\":[],\"waiting\":[],\"machines\":[{\"coverage\":[[1,4],[8,11]],\"used_until\":9,\"reservations\":[]}],\"intervals\":[{\"machine\":0,\"start\":1,\"jobs\":[[0,1],[1,2],[2,3]]},{\"machine\":0,\"start\":8,\"jobs\":[[3,8]]}],\"rr_next\":2,\"calibrations\":[{\"machine\":0,\"start\":1},{\"machine\":0,\"start\":8}],\"assignments\":[{\"job\":0,\"start\":1,\"machine\":0},{\"job\":1,\"start\":2,\"machine\":0},{\"job\":2,\"start\":3,\"machine\":0},{\"job\":3,\"start\":8,\"machine\":0}],\"trace\":[[1,\"alg1:queue>=G/T\"],[8,\"alg1:flow>=G\"]],\"fuel\":49999994,\"clock\":8,\"started\":true,\"cal_mark\":2,\"asg_mark\":4},\"last_seq\":3,\"now\":2}",
    "{\"op\":\"checkpoint\",\"tenant\":\"alg2\",\"machines\":1,\"cal_len\":3,\"cal_cost\":4,\"algorithm\":\"alg2\",\"flow\":0,\"total_cost\":0,\"counters\":{\"events\":9,\"arrivals\":3,\"time_skips\":0,\"calibrations\":1,\"dispatches\":2,\"reservations\":0,\"wakes\":3,\"journal_syncs\":0,\"dp_states_expanded\":0,\"dp_states_pruned\":0,\"assigner_slots_scanned\":0,\"lp_pivots\":0},\"engine\":{\"cal_len\":3,\"cal_cost\":4,\"config\":{\"max_steps\":50000000,\"max_decides_per_step\":4096,\"time_skip\":true},\"known\":[{\"id\":0,\"release\":0,\"weight\":1},{\"id\":1,\"release\":1,\"weight\":3},{\"id\":2,\"release\":1,\"weight\":2},{\"id\":3,\"release\":6,\"weight\":1}],\"pending\":[3],\"waiting\":[0],\"machines\":[{\"coverage\":[[1,4]],\"used_until\":3,\"reservations\":[]}],\"intervals\":[{\"machine\":0,\"start\":1,\"jobs\":[[1,1],[2,2]]}],\"rr_next\":1,\"calibrations\":[{\"machine\":0,\"start\":1}],\"assignments\":[{\"job\":1,\"start\":1,\"machine\":0},{\"job\":2,\"start\":2,\"machine\":0}],\"trace\":[[1,\"alg2:weight>=G/T\"]],\"fuel\":49999997,\"clock\":2,\"started\":true,\"cal_mark\":1,\"asg_mark\":2,\"cursor\":3},\"last_seq\":2,\"now\":2}",
    "{\"op\":\"checkpoint\",\"tenant\":\"alg2\",\"machines\":1,\"cal_len\":3,\"cal_cost\":4,\"algorithm\":\"alg2\",\"flow\":0,\"total_cost\":0,\"counters\":{\"events\":17,\"arrivals\":4,\"time_skips\":2,\"calibrations\":2,\"dispatches\":4,\"reservations\":0,\"wakes\":5,\"journal_syncs\":0,\"dp_states_expanded\":0,\"dp_states_pruned\":0,\"assigner_slots_scanned\":0,\"lp_pivots\":0},\"engine\":{\"cal_len\":3,\"cal_cost\":4,\"config\":{\"max_steps\":50000000,\"max_decides_per_step\":4096,\"time_skip\":true},\"known\":[{\"id\":0,\"release\":0,\"weight\":1},{\"id\":1,\"release\":1,\"weight\":3},{\"id\":2,\"release\":1,\"weight\":2},{\"id\":3,\"release\":6,\"weight\":1}],\"pending\":[],\"waiting\":[],\"machines\":[{\"coverage\":[[1,4],[8,11]],\"used_until\":9,\"reservations\":[]}],\"intervals\":[{\"machine\":0,\"start\":1,\"jobs\":[[1,1],[2,2],[0,3]]},{\"machine\":0,\"start\":8,\"jobs\":[[3,8]]}],\"rr_next\":2,\"calibrations\":[{\"machine\":0,\"start\":1},{\"machine\":0,\"start\":8}],\"assignments\":[{\"job\":1,\"start\":1,\"machine\":0},{\"job\":2,\"start\":2,\"machine\":0},{\"job\":0,\"start\":3,\"machine\":0},{\"job\":3,\"start\":8,\"machine\":0}],\"trace\":[[1,\"alg2:weight>=G/T\"],[8,\"alg2:flow>=G\"]],\"fuel\":49999994,\"clock\":8,\"started\":true,\"cal_mark\":2,\"asg_mark\":4},\"last_seq\":3,\"now\":2}",
    "{\"op\":\"checkpoint\",\"tenant\":\"alg3\",\"machines\":2,\"cal_len\":3,\"cal_cost\":4,\"algorithm\":\"alg3\",\"flow\":0,\"total_cost\":0,\"counters\":{\"events\":16,\"arrivals\":3,\"time_skips\":1,\"calibrations\":3,\"dispatches\":3,\"reservations\":3,\"wakes\":3,\"journal_syncs\":0,\"dp_states_expanded\":0,\"dp_states_pruned\":0,\"assigner_slots_scanned\":0,\"lp_pivots\":0},\"engine\":{\"cal_len\":3,\"cal_cost\":4,\"config\":{\"max_steps\":50000000,\"max_decides_per_step\":4096,\"time_skip\":true},\"known\":[{\"id\":0,\"release\":0,\"weight\":1},{\"id\":1,\"release\":1,\"weight\":3},{\"id\":2,\"release\":1,\"weight\":2},{\"id\":3,\"release\":6,\"weight\":1}],\"pending\":[3],\"waiting\":[],\"machines\":[{\"coverage\":[[1,4]],\"used_until\":3,\"reservations\":[]},{\"coverage\":[[1,4]],\"used_until\":2,\"reservations\":[]}],\"intervals\":[{\"machine\":0,\"start\":1,\"jobs\":[[0,1]]},{\"machine\":1,\"start\":1,\"jobs\":[[1,1]]},{\"machine\":0,\"start\":1,\"jobs\":[[2,2]]}],\"rr_next\":3,\"calibrations\":[{\"machine\":0,\"start\":1},{\"machine\":1,\"start\":1},{\"machine\":0,\"start\":1}],\"assignments\":[{\"job\":0,\"start\":1,\"machine\":0},{\"job\":1,\"start\":1,\"machine\":1},{\"job\":2,\"start\":2,\"machine\":0}],\"trace\":[[1,\"alg3:queue>=G/T\"],[1,\"alg3:queue>=G/T\"],[1,\"alg3:flow>=G\"]],\"fuel\":49999997,\"clock\":2,\"started\":true,\"cal_mark\":3,\"asg_mark\":3,\"cursor\":6},\"last_seq\":2,\"now\":2}",
    "{\"op\":\"checkpoint\",\"tenant\":\"alg3\",\"machines\":2,\"cal_len\":3,\"cal_cost\":4,\"algorithm\":\"alg3\",\"flow\":0,\"total_cost\":0,\"counters\":{\"events\":22,\"arrivals\":4,\"time_skips\":2,\"calibrations\":4,\"dispatches\":4,\"reservations\":4,\"wakes\":4,\"journal_syncs\":0,\"dp_states_expanded\":0,\"dp_states_pruned\":0,\"assigner_slots_scanned\":0,\"lp_pivots\":0},\"engine\":{\"cal_len\":3,\"cal_cost\":4,\"config\":{\"max_steps\":50000000,\"max_decides_per_step\":4096,\"time_skip\":true},\"known\":[{\"id\":0,\"release\":0,\"weight\":1},{\"id\":1,\"release\":1,\"weight\":3},{\"id\":2,\"release\":1,\"weight\":2},{\"id\":3,\"release\":6,\"weight\":1}],\"pending\":[],\"waiting\":[],\"machines\":[{\"coverage\":[[1,4]],\"used_until\":3,\"reservations\":[]},{\"coverage\":[[1,4],[8,11]],\"used_until\":9,\"reservations\":[]}],\"intervals\":[{\"machine\":0,\"start\":1,\"jobs\":[[0,1]]},{\"machine\":1,\"start\":1,\"jobs\":[[1,1]]},{\"machine\":0,\"start\":1,\"jobs\":[[2,2]]},{\"machine\":1,\"start\":8,\"jobs\":[[3,8]]}],\"rr_next\":4,\"calibrations\":[{\"machine\":0,\"start\":1},{\"machine\":1,\"start\":1},{\"machine\":0,\"start\":1},{\"machine\":1,\"start\":8}],\"assignments\":[{\"job\":0,\"start\":1,\"machine\":0},{\"job\":1,\"start\":1,\"machine\":1},{\"job\":2,\"start\":2,\"machine\":0},{\"job\":3,\"start\":8,\"machine\":1}],\"trace\":[[1,\"alg3:queue>=G/T\"],[1,\"alg3:queue>=G/T\"],[1,\"alg3:flow>=G\"],[8,\"alg3:flow>=G\"]],\"fuel\":49999995,\"clock\":8,\"started\":true,\"cal_mark\":4,\"asg_mark\":4},\"last_seq\":3,\"now\":2}",
    "{\"op\":\"checkpoint\",\"tenant\":\"alg1\",\"machines\":1,\"cal_len\":3,\"cal_cost\":4,\"algorithm\":\"alg1\",\"flow\":340282366920938463463374607431768211455,\"total_cost\":340282366920938463463374607431768211455,\"counters\":{\"events\":9,\"arrivals\":3,\"time_skips\":0,\"calibrations\":1,\"dispatches\":2,\"reservations\":0,\"wakes\":3,\"journal_syncs\":0,\"dp_states_expanded\":0,\"dp_states_pruned\":0,\"assigner_slots_scanned\":0,\"lp_pivots\":0},\"engine\":{\"cal_len\":3,\"cal_cost\":4,\"config\":{\"max_steps\":50000000,\"max_decides_per_step\":4096,\"time_skip\":true},\"known\":[{\"id\":0,\"release\":0,\"weight\":1},{\"id\":1,\"release\":1,\"weight\":3},{\"id\":2,\"release\":1,\"weight\":2},{\"id\":3,\"release\":6,\"weight\":1}],\"pending\":[3],\"waiting\":[2],\"machines\":[{\"coverage\":[[1,4],[-9223372036854775808,9223372036854775807]],\"used_until\":3,\"reservations\":[[-9223372036854775808,4294967295,null],[7,1,18446744073709551615]]}],\"intervals\":[{\"machine\":0,\"start\":1,\"jobs\":[[0,1],[1,2]]}],\"rr_next\":1,\"calibrations\":[{\"machine\":0,\"start\":1}],\"assignments\":[{\"job\":0,\"start\":1,\"machine\":0},{\"job\":1,\"start\":2,\"machine\":0}],\"trace\":[[1,\"alg1:queue>=G/T\"],[9223372036854775807,\"q\\\"b\\\\s\\nc\\u0001é—✓\"]],\"fuel\":49999997,\"clock\":2,\"started\":true,\"cal_mark\":1,\"asg_mark\":2},\"last_seq\":18446744073709551615,\"now\":-9223372036854775808}",
];
