//! The resident memory a parked session costs the daemon.
//!
//! A tenant that has drained but not said `bye` stays in the daemon's
//! table until it leaves or is migrated, so what the engine keeps per
//! session after `drain` is paid once per parked tenant. This test
//! spawns `calib-serve --stdin`, parks 64 drained 1,000-job sessions,
//! and bounds the daemon's VmRSS growth per session.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::process::{ChildStdin, ChildStdout, Command, Stdio};

mod support;

/// Sessions parked between the two VmRSS readings.
const PARKED: usize = 64;
/// Jobs per session.
const JOBS: usize = 1_000;
/// The bound on VmRSS growth per parked session.
const MAX_KIB_PER_SESSION: u64 = 24;

/// A `calib-serve --stdin` child, killed when dropped.
struct Daemon {
    child: support::Daemon,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn() -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_calib-serve"))
            .arg("--stdin")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn calib-serve");
        let stdin = child.stdin.take().expect("stdin");
        let stdout = BufReader::new(child.stdout.take().expect("stdout"));
        Daemon {
            child: support::Daemon(child),
            stdin,
            stdout,
        }
    }

    /// Sends one request line and returns its reply line.
    fn call(&mut self, line: &str) -> String {
        self.stdin.write_all(line.as_bytes()).expect("write");
        self.stdin.write_all(b"\n").expect("write");
        self.stdin.flush().expect("flush");
        let mut reply = String::new();
        self.stdout.read_line(&mut reply).expect("read reply");
        reply
    }

    fn vm_rss_kib(&self) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .expect("read /proc status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .expect("VmRSS line")
    }

    /// Opens `tenant`, submits `JOBS` jobs in one `arrive`, and drains.
    /// The tenant cycles through Alg1, Alg2 (weights 1–9) and Alg3 on two
    /// machines.
    fn park(&mut self, k: usize) {
        let tenant = format!("t{k}");
        let (algorithm, machines, max_weight) = match k % 3 {
            0 => ("alg1", 1, 1),
            1 => ("alg2", 1, 9),
            _ => ("alg3", 2, 1),
        };
        let hello = format!(
            r#"{{"type":"hello","tenant":"{tenant}","machines":{machines},"cal_len":6,"cal_cost":20,"algorithm":"{algorithm}","seq":0}}"#
        );
        assert!(self.call(&hello).contains(r#""type":"ok""#));
        let jobs: Vec<String> = (0..JOBS)
            .map(|i| {
                let release = i * 3 / 2;
                let weight = 1 + (i * 7 + k) % max_weight;
                format!(r#"{{"id":{i},"release":{release},"weight":{weight}}}"#)
            })
            .collect();
        let arrive = format!(
            r#"{{"type":"arrive","tenant":"{tenant}","jobs":[{}],"seq":1}}"#,
            jobs.join(",")
        );
        assert!(self.call(&arrive).contains(r#""type":"ok""#));
        let drain = format!(r#"{{"type":"drain","tenant":"{tenant}","seq":2}}"#);
        let drained = self.call(&drain);
        assert!(
            drained.contains(r#""type":"drained""#) && drained.contains(r#""checker_ok":true"#),
            "{}",
            &drained[..drained.len().min(200)]
        );
    }
}

#[test]
fn parked_sessions_stay_small() {
    let mut daemon = Daemon::spawn();
    // Warm-up: let the allocator and the daemon's tables reach steady
    // state before the baseline reading.
    for k in 0..4 {
        daemon.park(1_000 + k);
    }
    let before = daemon.vm_rss_kib();
    for k in 0..PARKED {
        daemon.park(k);
    }
    let after = daemon.vm_rss_kib();
    let per_session = after.saturating_sub(before) / PARKED as u64;
    eprintln!("parked-session footprint: {per_session} KiB ({before} -> {after} KiB VmRSS)");
    assert!(
        per_session <= MAX_KIB_PER_SESSION,
        "each parked {JOBS}-job session grew VmRSS by {per_session} KiB (bound {MAX_KIB_PER_SESSION} KiB)"
    );
}
