//! Helpers shared by the `calib-serve` integration tests: a self-cleaning
//! scratch directory, one request/reply exchange over TCP, and spawned
//! `calib-serve` daemons that are killed when dropped.
//!
//! Each test binary declares `mod support;` and uses the part it needs.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use calib_core::json::Json;

/// A unique, self-cleaning scratch directory.
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// A fresh directory named after this process and `tag`; a stale one
    /// from an earlier run with the same pid is removed first.
    pub fn new(tag: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("calib-serve-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Sends one request line in a single write.
pub fn send_line(stream: &mut TcpStream, line: &str) {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write");
    stream.flush().expect("flush");
}

/// Reads one reply line and parses it.
pub fn read_reply(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    assert!(
        !line.is_empty(),
        "server closed the connection unexpectedly"
    );
    Json::parse(line.trim()).expect("reply json")
}

/// A spawned `calib-serve` daemon, killed and reaped when dropped so a
/// failing test leaves no daemon running. Tests that expect an idle exit
/// still `wait()` on it first.
pub struct Daemon(pub Child);

impl std::ops::Deref for Daemon {
    type Target = Child;
    fn deref(&self) -> &Child {
        &self.0
    }
}

impl std::ops::DerefMut for Daemon {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

/// Reads the `{"type":"listening","addr":...}` banner a daemon prints.
pub fn daemon_addr(child: &mut Child) -> String {
    let stdout = child.stdout.as_mut().expect("daemon stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("banner");
    let v = Json::parse(line.trim()).expect("banner json");
    assert_eq!(v.get("type").and_then(Json::as_str), Some("listening"));
    v.get("addr")
        .and_then(Json::as_str)
        .expect("listening addr")
        .to_string()
}

/// Spawns a journaling daemon on an OS-picked loopback port (`--fsync
/// tick`, no read timeout, plus `extra` flags) and returns it with its
/// address.
pub fn spawn_daemon_args(journal_dir: &Path, extra: &[&str]) -> (Daemon, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_calib-serve"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--journal-dir",
            journal_dir.to_str().expect("utf8 dir"),
            "--fsync",
            "tick",
            "--read-timeout-ms",
            "0",
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn calib-serve");
    let addr = daemon_addr(&mut child);
    (Daemon(child), addr)
}

/// [`spawn_daemon_args`] with no extra flags.
pub fn spawn_daemon(journal_dir: &Path) -> (Daemon, String) {
    spawn_daemon_args(journal_dir, &[])
}
