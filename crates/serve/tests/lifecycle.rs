//! The tenant registry's replies, pinned byte for byte.
//!
//! `hello`, `adopt`, `resume` (with journal recovery), `evict` and the
//! tenant cap all install or remove a tenant in the daemon's registry.
//! These tests drive [`serve_stream`] over a journal directory and compare
//! every reply line with the exact bytes the protocol promises, covering
//! each success and each registry error: resent and colliding `hello`,
//! fresh, re-delivered, stale and corrupt `adopt`, `tenant-limit` on all
//! three install paths, `tenant-moved` after `evict`, and recovery from a
//! previous stream's journals.
//!
//! The input is fed in lock step: each request line is released only once
//! every earlier request has been answered, so the expected transcript is
//! a single total order.

use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use calib_core::json::ObjWriter;
use calib_core::Job;
use calib_serve::{
    serve_stream, Algorithm, CheckpointState, FsyncPolicy, JournalWriter, LineSink, Reply,
    ServerConfig, TenantConfig, TenantSession,
};

mod support;
use support::TempDir;

/// A writer whose bytes stay readable after the server consumed it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("utf-8 output")
    }

    fn line_count(&self) -> usize {
        self.0
            .lock()
            .unwrap()
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Request input that hands out line `i` only after `i` reply lines have
/// reached `replies`; every request in these scripts gets one reply.
struct LockStep {
    lines: Vec<String>,
    next: usize,
    pending: Vec<u8>,
    replies: SharedBuf,
}

impl Read for LockStep {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pending.is_empty() {
            if self.next == self.lines.len() {
                return Ok(0);
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.replies.line_count() < self.next {
                assert!(
                    Instant::now() < deadline,
                    "no reply to request {} within 10 s; output so far:\n{}",
                    self.next,
                    self.replies.text()
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            self.pending = format!("{}\n", self.lines[self.next]).into_bytes();
            self.next += 1;
        }
        let n = buf.len().min(self.pending.len());
        buf[..n].copy_from_slice(&self.pending[..n]);
        self.pending.drain(..n);
        Ok(n)
    }
}

/// Runs `requests` through one `serve_stream` connection in lock step and
/// returns its reply lines and its recovery-log lines.
fn run(requests: &[String], config: ServerConfig) -> (Vec<String>, Vec<String>) {
    let replies = SharedBuf::default();
    let recovery = SharedBuf::default();
    let input = LockStep {
        lines: requests.to_vec(),
        next: 0,
        pending: Vec::new(),
        replies: replies.clone(),
    };
    let config = ServerConfig {
        workers: 2,
        recovery_log: Some(Arc::new(LineSink::new(Box::new(recovery.clone())))),
        ..config
    };
    serve_stream(input, Box::new(replies.clone()), config);
    let lines = |b: &SharedBuf| b.text().lines().map(str::to_string).collect();
    (lines(&replies), lines(&recovery))
}

fn journaled(dir: &Path, max_tenants: usize) -> ServerConfig {
    ServerConfig {
        journal_dir: Some(dir.to_path_buf()),
        fsync: FsyncPolicy::Off,
        max_tenants,
        ..Default::default()
    }
}

fn config() -> TenantConfig {
    TenantConfig {
        machines: 1,
        cal_len: 4,
        cal_cost: 6,
        algorithm: Algorithm::Alg1,
    }
}

fn hello(tenant: &str, seq: Option<u64>) -> String {
    let seq = seq.map_or(String::new(), |s| format!(r#","seq":{s}"#));
    format!(
        r#"{{"type":"hello","tenant":"{tenant}","machines":1,"cal_len":4,"cal_cost":6,"algorithm":"alg1"{seq}}}"#
    )
}

fn jobs() -> Vec<Job> {
    vec![Job::unweighted(0, 0), Job::unweighted(1, 2)]
}

const ARRIVE_JOBS: &str = r#"[{"id":0,"release":0,"weight":1},{"id":1,"release":2,"weight":1}]"#;

/// The session a client builds with `hello` at seq 0 and `arrive` of
/// [`jobs`] at seq 1, replayed locally; journaled into `journal` if given,
/// as the daemon journals it.
fn hello_and_arrive(tenant: &str, journal: Option<&Path>) -> TenantSession {
    let mut s = TenantSession::new(tenant, config(), None).expect("session");
    s.note_seq(0);
    if let Some(dir) = journal {
        let w = JournalWriter::create(dir, tenant, FsyncPolicy::Off).expect("journal");
        s.start_journal(w).expect("hello record");
    }
    s.arrive(&jobs(), Some(1)).expect("arrive");
    s.note_seq(1);
    s
}

fn tick(s: &mut TenantSession, now: i64, seq: u64) {
    s.tick(now, Some(seq)).expect("tick");
    s.note_seq(seq);
}

fn adopt(state: &CheckpointState, seq: Option<u64>) -> String {
    let mut payload = String::new();
    let mut w = ObjWriter::new(&mut payload);
    state.write_json(&mut w);
    w.finish();
    let seq = seq.map_or(String::new(), |s| format!(r#","seq":{s}"#));
    format!(
        r#"{{"type":"adopt","tenant":"{}","state":{payload}{seq}}}"#,
        state.tenant
    )
}

fn assert_lines(got: &[String], want: &[String]) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, w, "reply line {i} differs");
    }
    assert_eq!(got.len(), want.len(), "reply count; got {got:#?}");
}

#[test]
fn registry_replies_are_pinned_across_hello_adopt_evict_and_recovery() {
    let dir = TempDir::new("registry");

    // Checkpoints a router would hand over: `x` after two ticks, the same
    // session one tick further, and a `bad` one whose engine disagrees
    // with its configuration.
    let mut x = hello_and_arrive("x", None);
    tick(&mut x, 5, 2);
    let x_at_2 = x.checkpoint_state();
    tick(&mut x, 9, 3);
    let x_at_3 = x.checkpoint_state();
    let mut bad = hello_and_arrive("bad", None).checkpoint_state();
    bad.engine.cal_len += 1;
    let replica = TempDir::new("replica");
    let evicted_m = Reply::Evicted {
        state: Box::new(hello_and_arrive("m", Some(&replica.0)).checkpoint_state()),
        seq: None,
    }
    .to_line();

    let first = [
        hello("a", Some(0)),
        hello("a", Some(0)),
        hello("a", Some(7)),
        format!(r#"{{"type":"arrive","tenant":"a","jobs":{ARRIVE_JOBS},"seq":1}}"#),
        adopt(&x_at_2, Some(40)),
        adopt(&x_at_2, None),
        adopt(&x_at_3, Some(41)),
        adopt(&bad, None),
        hello("m", Some(0)),
        format!(r#"{{"type":"arrive","tenant":"m","jobs":{ARRIVE_JOBS},"seq":1}}"#),
        r#"{"type":"evict","tenant":"m"}"#.to_string(),
        r#"{"type":"tick","tenant":"m","now":3,"seq":2}"#.to_string(),
        r#"{"type":"resume","tenant":"m","seq":3}"#.to_string(),
    ];
    let (replies, recovered) = run(&first, journaled(&dir.0, 1024));
    let moved = |seq: u64| {
        format!(
            r#"{{"type":"error","code":"tenant-moved","message":"tenant `m` was migrated to another shard","tenant":"m","seq":{seq}}}"#
        )
    };
    assert_lines(
        &replies,
        &[
            r#"{"type":"ok","tenant":"a","seq":0}"#.to_string(),
            r#"{"type":"ok","tenant":"a","seq":0}"#.to_string(),
            r#"{"type":"error","code":"duplicate-tenant","message":"tenant `a` already exists","tenant":"a","seq":7}"#.to_string(),
            r#"{"type":"ok","tenant":"a","seq":1}"#.to_string(),
            r#"{"type":"adopted","tenant":"x","last_seq":2,"seq":40}"#.to_string(),
            r#"{"type":"adopted","tenant":"x","last_seq":2}"#.to_string(),
            r#"{"type":"error","code":"duplicate-tenant","message":"tenant `x` already exists and is behind the checkpoint","tenant":"x","seq":41}"#.to_string(),
            r#"{"type":"error","code":"corrupt-snapshot","message":"checkpoint engine state disagrees with the tenant configuration","tenant":"bad"}"#.to_string(),
            r#"{"type":"ok","tenant":"m","seq":0}"#.to_string(),
            r#"{"type":"ok","tenant":"m","seq":1}"#.to_string(),
            evicted_m.trim_end().to_string(),
            moved(2),
            moved(3),
        ],
    );
    assert!(recovered.is_empty(), "nothing recovered: {recovered:?}");

    // A restarted daemon on the same directory, capped at one tenant:
    // `a` comes back from its journal, and every other install path meets
    // the cap.
    let second = [
        r#"{"type":"resume","tenant":"a","seq":2}"#.to_string(),
        hello("b", Some(0)),
        adopt(&hello_and_arrive("c", None).checkpoint_state(), None),
        r#"{"type":"resume","tenant":"x"}"#.to_string(),
        r#"{"type":"resume","tenant":"ghost","seq":5}"#.to_string(),
    ];
    let (replies, recovered) = run(&second, journaled(&dir.0, 1));
    let limit = |tenant: &str, seq: &str| {
        format!(
            r#"{{"type":"error","code":"tenant-limit","message":"server is at its tenant cap (1); retry after sessions close","tenant":"{tenant}"{seq}}}"#
        )
    };
    assert_lines(
        &replies,
        &[
            r#"{"type":"resumed","tenant":"a","last_seq":1,"idle":false,"seq":2}"#.to_string(),
            limit("b", r#","seq":0"#),
            limit("c", ""),
            limit("x", ""),
            r#"{"type":"error","code":"unknown-tenant","message":"no tenant named `ghost` in memory or on disk","tenant":"ghost","seq":5}"#.to_string(),
        ],
    );
    assert_lines(
        &recovered,
        &[
            r#"{"type":"recovered","tenant":"a","records":2,"tail_replayed":1,"from_checkpoint":false}"#
                .to_string(),
        ],
    );
}

#[test]
fn hello_at_the_tenant_cap_is_refused_without_a_journal() {
    let requests = [
        hello("a", Some(0)),
        hello("b", None),
        adopt(&hello_and_arrive("c", None).checkpoint_state(), Some(9)),
        r#"{"type":"bye","tenant":"a","seq":1}"#.to_string(),
        hello("b", Some(0)),
    ];
    let (replies, _) = run(
        &requests,
        ServerConfig {
            max_tenants: 1,
            ..Default::default()
        },
    );
    let limit = |tenant: &str, seq: &str| {
        format!(
            r#"{{"type":"error","code":"tenant-limit","message":"server is at its tenant cap (1); retry after sessions close","tenant":"{tenant}"{seq}}}"#
        )
    };
    assert_eq!(replies.len(), 5, "{replies:#?}");
    assert_lines(
        &replies[..3],
        &[
            r#"{"type":"ok","tenant":"a","seq":0}"#.to_string(),
            limit("b", ""),
            limit("c", r#","seq":9"#),
        ],
    );
    assert!(
        replies[3].starts_with(r#"{"type":"goodbye","tenant":"a","#),
        "{}",
        replies[3]
    );
    // `bye` frees the slot for the next tenant.
    assert_eq!(replies[4], r#"{"type":"ok","tenant":"b","seq":0}"#);
}
