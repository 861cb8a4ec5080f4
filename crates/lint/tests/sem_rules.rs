//! Fixture tests for the cross-file semantic rules L6–L9: synthetic
//! mini-workspaces (no disk) fed straight into `sem::check_files`, one
//! positive and one negative case per rule family. These pin down the
//! *detection shapes* — the patterns the rules promise to catch — so a
//! refactor of the lexer/index/ttree stack cannot silently blind them.

use calib_lint::rules::{FileKind, RuleId};
use calib_lint::sem::check_files;
use calib_lint::walk::WorkspaceFile;

fn lib(rel: &str, crate_name: &str, src: &str) -> WorkspaceFile {
    WorkspaceFile {
        rel: rel.to_string(),
        crate_name: crate_name.to_string(),
        kind: FileKind::Lib,
        src: src.to_string(),
    }
}

fn rules_of(findings: &[calib_lint::Finding], rule: RuleId) -> Vec<(String, u32)> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.file.clone(), f.line))
        .collect()
}

/// A lock-order table covering the fixture lock names.
fn design(names: &[&str]) -> String {
    let mut s = String::from("# D\n\n<!-- serve-lock-order:begin -->\n");
    for (i, n) in names.iter().enumerate() {
        s.push_str(&format!("{}. `{n}` — fixture.\n", i + 1));
    }
    s.push_str("<!-- serve-lock-order:end -->\n");
    s
}

// ---------------------------------------------------------------- L6

#[test]
fn l6_guard_across_write_all_is_flagged() {
    let src = r#"
pub struct Sink { w: std::sync::Mutex<Vec<u8>> }
impl Sink {
    pub fn send(&self, buf: &[u8]) -> std::io::Result<()> {
        let mut g = self.w.lock().unwrap();
        g.write_all(buf)
    }
}
"#;
    let files = [lib("crates/serve/src/server.rs", "serve", src)];
    let findings = check_files(&files, Some(design(&["server.w"])), None);
    let l6 = rules_of(&findings, RuleId::LockDiscipline);
    assert_eq!(l6, vec![("crates/serve/src/server.rs".to_string(), 5)]);
}

#[test]
fn l6_guard_dropped_before_io_is_clean() {
    let src = r#"
pub struct Sink { w: std::sync::Mutex<Vec<u8>> }
impl Sink {
    pub fn send(&self, out: &mut Vec<u8>) -> std::io::Result<()> {
        let line = {
            let g = self.w.lock().unwrap();
            g.clone()
        };
        out.write_all(&line)
    }
    pub fn send2(&self, out: &mut Vec<u8>) -> std::io::Result<()> {
        let g = self.w.lock().unwrap();
        let line = g.clone();
        drop(g);
        out.write_all(&line)
    }
}
"#;
    let files = [lib("crates/serve/src/server.rs", "serve", src)];
    let findings = check_files(&files, Some(design(&["server.w"])), None);
    assert!(rules_of(&findings, RuleId::LockDiscipline).is_empty());
}

#[test]
fn l6_transitive_blocking_through_helper_is_flagged() {
    let src = r#"
pub struct Sink { w: std::sync::Mutex<Vec<u8>> }
fn persist(out: &mut std::fs::File) {
    let _ = out.sync_all();
}
impl Sink {
    pub fn send(&self, out: &mut std::fs::File) {
        let _g = self.w.lock().unwrap();
        persist(out);
    }
}
"#;
    let files = [lib("crates/serve/src/server.rs", "serve", src)];
    let findings = check_files(&files, Some(design(&["server.w"])), None);
    let l6 = rules_of(&findings, RuleId::LockDiscipline);
    assert_eq!(l6, vec![("crates/serve/src/server.rs".to_string(), 8)]);
}

#[test]
fn l6_lock_order_inversion_is_flagged() {
    // DESIGN.md says `server.a` before `server.b`; the code nests b → a.
    let src = r#"
pub struct S { a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32> }
impl S {
    pub fn good(&self) {
        let _x = self.a.lock().unwrap();
        let _y = self.b.lock().unwrap();
    }
    pub fn bad(&self) {
        let _y = self.b.lock().unwrap();
        let _x = self.a.lock().unwrap();
    }
}
"#;
    let files = [lib("crates/serve/src/server.rs", "serve", src)];
    let findings = check_files(&files, Some(design(&["server.a", "server.b"])), None);
    let l6 = rules_of(&findings, RuleId::LockDiscipline);
    assert_eq!(l6.len(), 1, "only the inverted pair: {findings:?}");
    assert_eq!(l6[0].0, "crates/serve/src/server.rs");
}

#[test]
fn l6_missing_order_table_is_flagged_in_design_md() {
    let src = r#"
pub struct S { a: std::sync::Mutex<u32> }
impl S {
    pub fn touch(&self) {
        let _x = self.a.lock().unwrap();
    }
}
"#;
    let files = [lib("crates/serve/src/server.rs", "serve", src)];
    let findings = check_files(&files, Some("# no table here\n".to_string()), None);
    let l6 = rules_of(&findings, RuleId::LockDiscipline);
    assert_eq!(l6, vec![("DESIGN.md".to_string(), 1)]);
}

#[test]
fn l6_allow_marker_suppresses_the_hold() {
    let src = r#"
pub struct Sink { w: std::sync::Mutex<Vec<u8>> }
impl Sink {
    pub fn send(&self, buf: &[u8]) -> std::io::Result<()> {
        // lint:allow(lock-discipline): fixture justification
        let mut g = self.w.lock().unwrap();
        g.write_all(buf)
    }
}
"#;
    let files = [lib("crates/serve/src/server.rs", "serve", src)];
    let findings = check_files(&files, Some(design(&["server.w"])), None);
    assert!(rules_of(&findings, RuleId::LockDiscipline).is_empty());
}

// ---------------------------------------------------------------- L7

#[test]
fn l7_non_relaxed_ordering_is_flagged_and_relaxed_is_not() {
    let src = r#"
use std::sync::atomic::{AtomicU64, Ordering};
pub fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
    c.fetch_add(1, Ordering::AcqRel);
}
"#;
    let files = [lib("crates/serve/src/metrics.rs", "serve", src)];
    let findings = check_files(&files, None, None);
    let l7 = rules_of(&findings, RuleId::AtomicOrdering);
    assert_eq!(l7, vec![("crates/serve/src/metrics.rs".to_string(), 5)]);
}

#[test]
fn l7_rmw_split_load_then_store_is_flagged() {
    let src = r#"
use std::sync::atomic::{AtomicU64, Ordering};
pub fn racy_bump(c: &AtomicU64) {
    let v = c.load(Ordering::Relaxed);
    c.store(v + 1, Ordering::Relaxed);
}
pub fn fine(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}
"#;
    let files = [lib("crates/serve/src/metrics.rs", "serve", src)];
    let findings = check_files(&files, None, None);
    let l7 = rules_of(&findings, RuleId::AtomicOrdering);
    assert_eq!(l7.len(), 1, "{findings:?}");
    assert_eq!(l7[0].0, "crates/serve/src/metrics.rs");
}

// ---------------------------------------------------------------- L8

#[test]
fn l8_undocumented_code_is_flagged_documented_is_not() {
    let src = r#"
pub struct Reply;
impl Reply {
    pub fn error(code: &str, message: String) -> Reply {
        Reply
    }
}
pub fn reject() -> Reply {
    Reply::error("funky-code", String::new())
}
pub fn reject2() -> Reply {
    Reply::error("documented-code", String::new())
}
"#;
    let files = [lib("crates/serve/src/protocol.rs", "serve", src)];
    let serve_md = "Stable codes: `documented-code`.".to_string();
    let findings = check_files(&files, None, Some(serve_md));
    let l8 = rules_of(&findings, RuleId::WireRegistry);
    assert_eq!(l8.len(), 1, "{findings:?}");
    assert_eq!(l8[0].0, "crates/serve/src/protocol.rs");
}

#[test]
fn l8_missing_serve_md_is_one_finding() {
    let src = r#"
pub fn code() -> &'static str { "some-code" }
"#;
    let files = [lib("crates/serve/src/protocol.rs", "serve", src)];
    let findings = check_files(&files, None, None);
    let l8 = rules_of(&findings, RuleId::WireRegistry);
    assert_eq!(l8, vec![("crates/serve/src/protocol.rs".to_string(), 1)]);
}

#[test]
fn l8_retry_classifying_unknown_code_is_flagged() {
    let protocol = r#"
pub fn code() -> &'static str { "real-code" }
"#;
    let retry = r#"
pub fn transient(code: &str) -> bool {
    matches!(code, "real-code" | "ghost-code")
}
"#;
    let files = [
        lib("crates/serve/src/protocol.rs", "serve", protocol),
        lib("crates/serve/src/retry.rs", "serve", retry),
    ];
    let serve_md = "`real-code` and `ghost-code` are documented.".to_string();
    let findings = check_files(&files, None, Some(serve_md));
    let l8 = rules_of(&findings, RuleId::WireRegistry);
    assert_eq!(l8.len(), 1, "{findings:?}");
    assert_eq!(l8[0].0, "crates/serve/src/retry.rs");
}

// ---------------------------------------------------------------- L9

#[test]
fn l9_unmatched_journal_variant_is_flagged() {
    let src = r#"
pub enum JournalRecord {
    Arrive,
    Drain,
}
pub fn apply_record(r: JournalRecord) {
    match r {
        JournalRecord::Arrive => {}
        _ => {}
    }
}
"#;
    let files = [lib("crates/serve/src/journal.rs", "serve", src)];
    let findings = check_files(&files, None, None);
    let l9 = rules_of(&findings, RuleId::JournalExhaustiveness);
    assert_eq!(l9, vec![("crates/serve/src/journal.rs".to_string(), 4)]);
}

#[test]
fn l9_fully_matched_journal_is_clean() {
    let src = r#"
pub enum JournalRecord {
    Arrive,
    Drain,
}
pub fn apply_record(r: JournalRecord) {
    match r {
        JournalRecord::Arrive => {}
        JournalRecord::Drain => {}
    }
}
"#;
    let files = [lib("crates/serve/src/journal.rs", "serve", src)];
    let findings = check_files(&files, None, None);
    assert!(rules_of(&findings, RuleId::JournalExhaustiveness).is_empty());
}

#[test]
fn l9_checkpoint_field_missing_from_serializer_is_flagged() {
    let src = r#"
pub struct CheckpointState {
    pub now: i64,
    pub cost: u128,
}
impl CheckpointState {
    pub fn write_json(&self, out: &mut String) {
        out.push_str("\"now\":");
        out.push_str("\"total_cost\":");
    }
    pub fn from_json(s: &str) -> CheckpointState {
        let _ = s.contains("\"now\"");
        CheckpointState { now: 0, cost: 0 }
    }
}
"#;
    // `from_json` never mentions `total_cost` → exactly one finding, on
    // the `cost` field line.
    let files = [lib("crates/serve/src/protocol.rs", "serve", src)];
    let findings = check_files(&files, None, Some("`error`".to_string()));
    let l9 = rules_of(&findings, RuleId::JournalExhaustiveness);
    assert_eq!(l9, vec![("crates/serve/src/protocol.rs".to_string(), 4)]);
}

#[test]
fn l9_engine_field_missing_from_writer_is_flagged() {
    let engine = r#"
pub struct EngineSnapshot {
    pub clock: i64,
    pub fuel: u64,
}
"#;
    let protocol = r#"
fn write_engine(w: &mut ObjWriter<'_>, e: &EngineSnapshot) {
    w.int("clock", e.clock);
}
fn engine_from_json(v: &Json) -> EngineSnapshot {
    let _ = (v.get("clock"), v.get("fuel"));
    EngineSnapshot { clock: 0, fuel: 0 }
}
"#;
    // `write_engine` never writes `fuel` → exactly one finding, on the
    // `fuel` field line of the engine crate's struct.
    let files = [
        lib("crates/online/src/engine.rs", "online", engine),
        lib("crates/serve/src/protocol.rs", "serve", protocol),
    ];
    let findings = check_files(&files, None, Some("`error`".to_string()));
    let l9 = rules_of(&findings, RuleId::JournalExhaustiveness);
    assert_eq!(l9, vec![("crates/online/src/engine.rs".to_string(), 4)]);
}
