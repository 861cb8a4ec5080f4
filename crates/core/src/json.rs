//! A minimal, dependency-free JSON layer.
//!
//! The build environment is offline, so instead of `serde`/`serde_json` the
//! workspace carries this small module: a [`Json`] value tree, a compact and
//! a pretty writer, a strict parser, and [`ToJson`]/[`FromJson`] traits with
//! hand-written impls for the core model types.
//!
//! Numbers are kept **exact**: integers round-trip through dedicated
//! `i128`/`u128` variants (the workspace's `Cost` type is `u128`, far beyond
//! `f64`'s 53-bit exactness), and floats are only used when the text form
//! contains a fraction or exponent.

use std::collections::BTreeMap;
use std::fmt;

use crate::calibration::Calibration;
use crate::instance::Instance;
use crate::job::Job;
use crate::schedule::{Assignment, Schedule};
use crate::types::{JobId, MachineId};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (any number written without `.`/`e` and with `-`).
    Int(i128),
    /// An unsigned integer (any number written without `.`/`e` or `-`).
    UInt(u128),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved when writing.
    Obj(Vec<(String, Json)>),
}

/// Parse or conversion failure, with a byte offset for parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input (0 for conversion errors).
    pub offset: usize,
}

impl JsonError {
    fn conv(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: 0,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required object field, as a conversion error when missing.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::conv(format!("missing field `{key}`")))
    }

    /// The value as `i64`, accepting any integer variant that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(v) => i64::try_from(v).ok(),
            Json::UInt(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as `u64`, accepting any nonnegative integer that fits.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(v) => u64::try_from(v).ok(),
            Json::UInt(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as `u128`, accepting any nonnegative integer.
    pub fn as_u128(&self) -> Option<u128> {
        match *self {
            Json::Int(v) => u128::try_from(v).ok(),
            Json::UInt(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `f64` (floats and integers).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Float(v) => Some(v),
            Json::Int(v) => Some(v as f64),
            Json::UInt(v) => Some(v as f64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                if v.is_finite() {
                    // Guarantee a re-parseable float form (keep a `.`/`e`).
                    let s = format!("{v}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
    }

    /// Strict parse of one JSON document (trailing whitespace allowed).
    /// Arrays and objects nested deeper than [`MAX_DEPTH`] are an error,
    /// so no input can exhaust the parsing thread's stack.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string literal —
/// exactly the form [`Json::to_string_compact`] emits — so callers
/// serializing large documents by hand stay byte-compatible.
pub fn write_json_string(out: &mut String, s: &str) {
    write_escaped(out, s);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap one line of 500k `[` would
/// overflow the stack and abort the process. The documents this workspace
/// writes nest only a few levels; 128 keeps the recursion far inside even
/// a 2 MiB thread stack.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'[') {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        let mut seen: BTreeMap<String, ()> = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if seen.insert(key.clone(), ()).is_some() {
                return Err(self.err(format!("duplicate object key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by this
                            // module's writer; reject rather than mangle.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("non-scalar \\u escape"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Recover full UTF-8 sequences from the byte stream.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid UTF-8"))?;
                    let end = start + len;
                    let s = self
                        .bytes
                        .get(start..end)
                        .and_then(|bs| std::str::from_utf8(bs).ok())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err(format!("invalid number `{text}`")))
        } else if let Some(stripped) = text.strip_prefix('-') {
            if stripped.is_empty() {
                return Err(self.err("lone `-` is not a number"));
            }
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| self.err(format!("integer out of range `{text}`")))
        } else if text.is_empty() {
            Err(self.err("expected a number"))
        } else {
            text.parse::<u128>()
                .map(Json::UInt)
                .map_err(|_| self.err(format!("integer out of range `{text}`")))
        }
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// The JSON representation.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Reconstructs the value, failing on shape mismatches.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

macro_rules! impl_json_int {
    ($($t:ty => $as:ident => $var:ident as $conv:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::$var(*self as $conv)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                v.$as()
                    .and_then(|x| <$t>::try_from(x).ok())
                    .ok_or_else(|| JsonError::conv(concat!("expected ", stringify!($t))))
            }
        }
    )*};
}

impl_json_int! {
    i64 => as_i64 => Int as i128,
    u32 => as_u64 => UInt as u128,
    u64 => as_u64 => UInt as u128,
    usize => as_u64 => UInt as u128,
    u128 => as_u128 => UInt as u128
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}
impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::conv("expected number"))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}
impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            _ => Err(JsonError::conv("expected bool")),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}
impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::conv("expected string"))
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}
impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::conv("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) => x.to_json(),
            None => Json::Null,
        }
    }
}
impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

// ---- core model types (field names mirror the old serde derives) ----

impl ToJson for JobId {
    fn to_json(&self) -> Json {
        Json::UInt(self.0 as u128)
    }
}
impl FromJson for JobId {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        u32::from_json(v).map(JobId)
    }
}

impl ToJson for MachineId {
    fn to_json(&self) -> Json {
        Json::UInt(self.0 as u128)
    }
}
impl FromJson for MachineId {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        u32::from_json(v).map(MachineId)
    }
}

impl ToJson for Job {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", self.id.to_json()),
            ("release", self.release.to_json()),
            ("weight", self.weight.to_json()),
        ])
    }
}
impl FromJson for Job {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Job {
            id: JobId::from_json(v.field("id")?)?,
            release: i64::from_json(v.field("release")?)?,
            weight: u64::from_json(v.field("weight")?)?,
        })
    }
}

impl ToJson for Calibration {
    fn to_json(&self) -> Json {
        Json::obj([
            ("machine", self.machine.to_json()),
            ("start", self.start.to_json()),
        ])
    }
}
impl FromJson for Calibration {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Calibration {
            machine: MachineId::from_json(v.field("machine")?)?,
            start: i64::from_json(v.field("start")?)?,
        })
    }
}

impl ToJson for Assignment {
    fn to_json(&self) -> Json {
        Json::obj([
            ("job", self.job.to_json()),
            ("start", self.start.to_json()),
            ("machine", self.machine.to_json()),
        ])
    }
}
impl FromJson for Assignment {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Assignment {
            job: JobId::from_json(v.field("job")?)?,
            start: i64::from_json(v.field("start")?)?,
            machine: MachineId::from_json(v.field("machine")?)?,
        })
    }
}

impl ToJson for Schedule {
    fn to_json(&self) -> Json {
        Json::obj([
            ("calibrations", self.calibrations.to_json()),
            ("assignments", self.assignments.to_json()),
        ])
    }
}
impl FromJson for Schedule {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Schedule {
            calibrations: Vec::from_json(v.field("calibrations")?)?,
            assignments: Vec::from_json(v.field("assignments")?)?,
        })
    }
}

impl ToJson for Instance {
    fn to_json(&self) -> Json {
        Json::obj([
            ("jobs", self.jobs().to_vec().to_json()),
            ("machines", self.machines().to_json()),
            ("cal_len", self.cal_len().to_json()),
        ])
    }
}
impl FromJson for Instance {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let jobs = Vec::from_json(v.field("jobs")?)?;
        let machines = usize::from_json(v.field("machines")?)?;
        let cal_len = i64::from_json(v.field("cal_len")?)?;
        Instance::new(jobs, machines, cal_len)
            .map_err(|e| JsonError::conv(format!("invalid instance: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;

    #[test]
    fn scalar_round_trips() {
        for v in [Json::Null, Json::Bool(true), Json::Int(-42), Json::UInt(7)] {
            assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v);
        }
        let big = Json::UInt(u128::MAX);
        assert_eq!(Json::parse(&big.to_string_compact()).unwrap(), big);
        let f = Json::Float(2.5);
        assert_eq!(Json::parse("2.5").unwrap(), f);
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = Json::Str("a\"b\\c\nd\té \u{1}".into());
        assert_eq!(Json::parse(&s.to_string_compact()).unwrap(), s);
    }

    #[test]
    fn nested_structures_round_trip_pretty_and_compact() {
        let v = Json::obj([
            (
                "xs",
                Json::Arr(vec![Json::UInt(1), Json::Int(-2), Json::Null]),
            ),
            ("nested", Json::obj([("k", Json::Str("v".into()))])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v);
        assert_eq!(Json::parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "01x",
            "\"unterminated",
            "{\"a\":1,\"a\":2}",
            "1 2",
            "-",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays: fn(usize) -> String = |depth| "[".repeat(depth) + &"]".repeat(depth);
        let objects: fn(usize) -> String =
            |depth| "{\"k\":".repeat(depth - 1) + "{}" + &"}".repeat(depth - 1);
        for nested in [arrays, objects] {
            assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
            let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
        }
        // Far past the cap (and unterminated): an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(500_000)).is_err());
    }

    #[test]
    fn instance_round_trip() {
        let inst = InstanceBuilder::new(3)
            .machines(2)
            .job(0, 2)
            .job(5, 7)
            .build()
            .unwrap();
        let json = inst.to_json().to_string_pretty();
        let back = Instance::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, inst);
    }

    #[test]
    fn schedule_round_trip() {
        let sched = Schedule::new(
            vec![Calibration::new(0, 3), Calibration::new(1, -2)],
            vec![Assignment::new(JobId(4), 5, MachineId(1))],
        );
        let back = Schedule::from_json(&Json::parse(&sched.to_json().to_string_compact()).unwrap())
            .unwrap();
        assert_eq!(back, sched);
    }

    #[test]
    fn from_json_validates_instances() {
        // machines = 0 violates the Instance invariant.
        let bad = Json::parse(r#"{"jobs":[],"machines":0,"cal_len":2}"#).unwrap();
        assert!(Instance::from_json(&bad).is_err());
    }
}
