//! L9 `journal-exhaustiveness`: the crash-recovery path must keep up with
//! the data model. Three structural checks:
//!
//! * Every `JournalRecord` variant is matched (as `JournalRecord::V`) in
//!   the replay path — `apply_record` or `replay_with_report` — so a new
//!   record kind cannot be written but silently skipped (or crash) on
//!   recovery.
//! * Every `CheckpointState` field's wire key appears in both its writer
//!   (`write_json`, shared by `evicted` replies and journal checkpoints)
//!   and its parser (`from_json`).
//! * Every `EngineSnapshot` field (defined cross-crate in
//!   `online/src/engine.rs`) likewise appears in `write_engine` and
//!   `engine_from_json`.
//!
//! Field presence is a quoted-key containment check: the serializer must
//! contain a string literal equal to the wire key or containing
//! `"key"` (quotes included) — which matches both the tuple style
//! `("cal_len", …)` and escaped fragments like `"{\"cal_len\":"` after
//! the lexer's unquoting. A handful of fields serialize under different
//! wire keys (`config` flattens; `cost` writes `total_cost`); the mapping
//! below is the authoritative translation.

use crate::index::FileIndex;
use crate::lexer::TokenKind;
use crate::rules::{Finding, RuleId};

use super::SemContext;

/// Functions forming the journal replay path.
const REPLAY_FNS: [&str; 2] = ["apply_record", "replay_with_report"];

/// Wire keys a `CheckpointState` field serializes under. `config` is
/// flattened into the tenant-config scalars; `cost` is written as
/// `total_cost` (the wire name predates the field rename).
fn checkpoint_wire_keys(field: &str) -> Vec<&str> {
    match field {
        "config" => vec!["machines", "cal_len", "cal_cost", "algorithm"],
        "cost" => vec!["total_cost"],
        _ => vec![field],
    }
}

/// Does fn `name` (optionally `owner`-scoped) in `idx` contain a string
/// literal carrying the quoted wire key?
fn body_has_key(idx: &FileIndex<'_>, name: &str, owner: Option<&str>, key: &str) -> Option<bool> {
    let item = idx.fn_named(name, owner)?;
    let quoted = format!("\"{key}\"");
    for i in item.body.0..=item.body.1 {
        let t = &idx.tokens[i];
        if t.kind != TokenKind::Str {
            continue;
        }
        let value = crate::index::unquote(t.text);
        if value == key || value.contains(&quoted) {
            return Some(true);
        }
    }
    Some(false)
}

/// Checks one struct's fields against serializer/parser functions living
/// in `fns_in`, reporting findings anchored at the field definitions.
fn check_struct_round_trip(
    struct_idx: &FileIndex<'_>,
    struct_name: &str,
    fns_in: &FileIndex<'_>,
    fns: &[(&str, Option<&str>)],
    wire_keys: fn(&str) -> Vec<&str>,
    findings: &mut Vec<Finding>,
) {
    let Some(st) = struct_idx.structs.iter().find(|s| s.name == struct_name) else {
        return;
    };
    for (fn_name, owner) in fns {
        if fns_in.fn_named(fn_name, *owner).is_none() {
            findings.push(Finding {
                rule: RuleId::JournalExhaustiveness,
                file: fns_in.file.rel.clone(),
                line: 1,
                message: format!(
                    "`{struct_name}` serializer/parser `{fn_name}` not found — the \
                     exhaustiveness check has nothing to verify against"
                ),
            });
            return;
        }
    }
    for (field, line) in &st.fields {
        for key in wire_keys(field) {
            for (fn_name, owner) in fns {
                if body_has_key(fns_in, fn_name, *owner, key) == Some(false) {
                    findings.push(Finding {
                        rule: RuleId::JournalExhaustiveness,
                        file: struct_idx.file.rel.clone(),
                        line: *line,
                        message: format!(
                            "`{struct_name}.{field}` (wire key `{key}`) does not appear in \
                             `{fn_name}` — snapshot and restore have drifted"
                        ),
                    });
                }
            }
        }
    }
}

pub fn check(ctx: &SemContext<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();

    // JournalRecord variants vs the replay path.
    if let Some(journal) = ctx.index_of("crates/serve/src/journal.rs") {
        if let Some(en) = journal.enums.iter().find(|e| e.name == "JournalRecord") {
            let bodies: Vec<(usize, usize)> = journal
                .fns
                .iter()
                .filter(|f| REPLAY_FNS.contains(&f.name.as_str()))
                .map(|f| f.body)
                .collect();
            if bodies.is_empty() {
                findings.push(Finding {
                    rule: RuleId::JournalExhaustiveness,
                    file: journal.file.rel.clone(),
                    line: en.line,
                    message: format!(
                        "`JournalRecord` exists but no replay function ({}) was found",
                        REPLAY_FNS.join("/")
                    ),
                });
            }
            for (variant, line) in &en.variants {
                let matched = bodies.iter().any(|&body| {
                    let code: Vec<usize> = journal.code_in(body).collect();
                    code.windows(3).any(|w| {
                        journal.tokens[w[0]].text == "JournalRecord"
                            && journal.tokens[w[1]].text == "::"
                            && journal.tokens[w[2]].text == variant
                    })
                });
                if !bodies.is_empty() && !matched {
                    findings.push(Finding {
                        rule: RuleId::JournalExhaustiveness,
                        file: journal.file.rel.clone(),
                        line: *line,
                        message: format!(
                            "journal record variant `{variant}` is not matched in the replay \
                             path ({}) — recovery would drop or crash on it",
                            REPLAY_FNS.join("/")
                        ),
                    });
                }
            }
        }
    }

    // CheckpointState and EngineSnapshot round-trips through protocol.rs.
    if let Some(protocol) = ctx.index_of("crates/serve/src/protocol.rs") {
        check_struct_round_trip(
            protocol,
            "CheckpointState",
            protocol,
            &[
                ("write_json", Some("CheckpointState")),
                ("from_json", Some("CheckpointState")),
            ],
            checkpoint_wire_keys,
            &mut findings,
        );
        if let Some(engine) = ctx.index_of("crates/online/src/engine.rs") {
            check_struct_round_trip(
                engine,
                "EngineSnapshot",
                protocol,
                &[("write_engine", None), ("engine_from_json", None)],
                |f| vec![f],
                &mut findings,
            );
        }
    }
    findings
}
