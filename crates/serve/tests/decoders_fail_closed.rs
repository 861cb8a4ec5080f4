//! Every decoder that reads a wire, journal or checkpoint line fails
//! closed: on any mutation of a real line it returns a value or a typed
//! error, and never panics.
//!
//! The seeds are the pinned reply and journal lines of `wire_bytes.rs`
//! (read from its source, so the two never drift) plus one request line
//! of each kind. Each case applies up to three edits (delete, insert or
//! replace a byte, truncate, repeat a `,`-field so a key appears twice,
//! splice in a slice of the line) and sometimes nests the result around
//! `MAX_DEPTH`. The decoders are `Json::parse`, `Request::from_json`,
//! `JournalRecord::from_json` and `CheckpointState::from_json` (on the
//! line itself and on its `state` field, which `adopt` carries).

use std::panic::catch_unwind;

use calib_core::json::{Json, MAX_DEPTH};
use calib_serve::{CheckpointState, JournalRecord, Request};
use proptest::prelude::*;

/// The string literals of `wire_bytes.rs`'s `REPLY_LINES` and
/// `RECORD_LINES` arrays, one per source line, with Rust's escapes
/// decoded.
fn pinned_lines() -> Vec<String> {
    include_str!("wire_bytes.rs")
        .lines()
        .filter_map(|l| l.trim().strip_prefix("\"{")?.strip_suffix("\","))
        .map(|body| {
            let mut out = String::from("{");
            let mut chars = body.chars();
            while let Some(c) = chars.next() {
                out.push(match (c, c == '\\') {
                    (_, true) => match chars.next() {
                        Some('n') => '\n',
                        Some(e) => e,
                        None => '\\',
                    },
                    (c, false) => c,
                });
            }
            out
        })
        .collect()
}

/// One request of each shape the daemon reads most, plus an `adopt`
/// built from the pinned `evicted` reply, whose `state` is a checkpoint.
fn request_lines(pinned: &[String]) -> Vec<String> {
    let mut lines: Vec<String> = [
        r#"{"type":"hello","tenant":"a","machines":2,"cal_len":5,"cal_cost":10,"algorithm":"alg3","weight":4,"seq":0}"#,
        r#"{"type":"arrive","tenant":"a","jobs":[{"id":0,"release":3,"weight":2},{"id":1,"release":4,"weight":1}],"seq":1}"#,
        r#"{"type":"tick","tenant":"a","now":9,"seq":2}"#,
        r#"{"type":"decisions","tenant":"a","seq":3}"#,
        r#"{"type":"ping","seq":4}"#,
    ]
    .map(str::to_string)
    .to_vec();
    lines.extend(
        pinned
            .iter()
            .filter_map(|l| l.strip_prefix(r#"{"type":"evicted","#))
            .map(|rest| format!(r#"{{"type":"adopt",{rest}"#)),
    );
    lines
}

/// Bytes the edits insert: structure, number and literal letters,
/// escapes, a control byte and half of a two-byte UTF-8 sequence.
const ALPHABET: &[u8] = b"\"\\{}[]:,-+.0123456789eEuntrfals/ \t\x01\xc3";

/// Applies one edit `(kind, at, byte)` to `b`; `at` is scaled to the
/// line's length.
fn edit(b: &mut Vec<u8>, (kind, at, byte): (u8, u16, usize)) {
    let at = usize::from(at) * b.len() / usize::from(u16::MAX);
    let byte = ALPHABET[byte % ALPHABET.len()];
    match kind {
        0 if at < b.len() => {
            b.remove(at);
        }
        1 => b.insert(at, byte),
        2 if at < b.len() => b[at] = byte,
        3 => b.truncate(at),
        4 => {
            // Repeat the `,"key":value` field that starts after `at`.
            let Some(p) = b[at..].iter().position(|&x| x == b',') else {
                return;
            };
            let p = at + p;
            let q = b[p + 1..]
                .iter()
                .position(|&x| matches!(x, b',' | b'}' | b']'))
                .map_or(b.len(), |q| p + 1 + q);
            let field = b[p..q].to_vec();
            b.splice(q..q, field);
        }
        _ => {
            let end = b.len().min(at + 24);
            let slice = b[at..end].to_vec();
            let to = b.len() / 2;
            b.splice(to..to, slice);
        }
    }
}

/// Runs every decoder over `line`; `Err` names the decoder that broke
/// its contract.
fn decode_all(line: &str) -> Result<(), String> {
    let v = match Json::parse(line) {
        Ok(v) => v,
        Err(e) if e.offset <= line.len() && !e.message.is_empty() => return Ok(()),
        Err(e) => return Err(format!("Json::parse error out of bounds: {e}")),
    };
    if let Err((code, msg)) = Request::from_json(&v) {
        if !matches!(code, "bad-message" | "corrupt-snapshot") || msg.is_empty() {
            return Err(format!("Request::from_json: untyped error ({code}, {msg})"));
        }
    }
    if let Err(msg) = JournalRecord::from_json(&v) {
        if msg.is_empty() {
            return Err("JournalRecord::from_json: empty error".to_string());
        }
    }
    for state in [Some(&v), v.get("state")].into_iter().flatten() {
        if let Err(msg) = CheckpointState::from_json(state) {
            if msg.is_empty() {
                return Err("CheckpointState::from_json: empty error".to_string());
            }
        }
    }
    Ok(())
}

#[test]
fn the_seed_lines_decode() {
    let pinned = pinned_lines();
    assert_eq!(pinned.len(), 25 + 17, "wire_bytes.rs corpus changed shape");
    let requests = request_lines(&pinned);
    assert_eq!(requests.len(), 5 + 2);
    for line in &requests {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        Request::from_json(&v).unwrap_or_else(|e| panic!("{line}: {e:?}"));
    }
    for line in pinned.iter().filter(|l| l.starts_with(r#"{"op":"#)) {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        JournalRecord::from_json(&v).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn decoders_fail_closed_on_mutated_lines(
        pick in 0usize..1000,
        edits in prop::collection::vec((0u8..6, 0u16..=u16::MAX, 0usize..64), 1..=3),
        nest in 0usize..24,
    ) {
        let mut seeds = pinned_lines();
        seeds.extend(request_lines(&seeds));
        let mut b = seeds[pick % seeds.len()].as_bytes().to_vec();
        for e in edits {
            edit(&mut b, e);
        }
        if nest < 4 {
            // `MAX_DEPTH - 1` up to `MAX_DEPTH + 2` levels around the line.
            let depth = MAX_DEPTH + nest - 1;
            let mut nested = b"{\"k\":[".repeat(depth / 2);
            nested.extend_from_slice(&b);
            nested.extend(b"]}".repeat(depth / 2));
            b = nested;
        }
        let line = String::from_utf8_lossy(&b).into_owned();
        let verdict = catch_unwind(|| decode_all(&line))
            .unwrap_or_else(|_| Err("a decoder panicked".to_string()));
        prop_assert!(verdict.is_ok(), "{} on {line:?}", verdict.unwrap_err());
    }
}
