//! A minimal, dependency-free JSON layer.
//!
//! The build environment is offline, so instead of `serde`/`serde_json` the
//! workspace carries this small module: a [`Json`] value tree, a compact and
//! a pretty writer, a strict parser, and [`ToJson`]/[`FromJson`] traits with
//! hand-written impls for the core model types.
//!
//! Hot serializers skip the tree: [`ObjWriter`] streams one object's
//! fields straight into a `String`, byte-identical to the compact
//! rendering of the same [`Json::Obj`], and [`push_uint`]/[`push_int`]
//! are the integer formatter both paths share.
//!
//! Numbers are kept **exact**: integers round-trip through dedicated
//! `i128`/`u128` variants (the workspace's `Cost` type is `u128`, far beyond
//! `f64`'s 53-bit exactness), and floats are only used when the text form
//! contains a fraction or exponent.
//!
//! This is the wire, journal and checkpoint codec of `calib-serve` and
//! `calib-router`, so [`Json::parse`] reads bytes straight off a socket or
//! a disk and its cost is bounded by the line, whatever the line holds:
//!
//! * time is linear in the line's length, apart from the duplicate-key
//!   check: an object of `k` keys costs O(k) comparisons while it has at
//!   most 16 keys and O(k log k) beyond that (an ordered set);
//! * strings are copied one run of plain bytes at a time, and a string
//!   without escapes is one allocation of its exact length; every array
//!   and object is one allocation of its exact length;
//! * arrays and objects nest at most [`MAX_DEPTH`] (128) levels, so the
//!   recursion cannot exhaust the stack;
//! * error messages quote at most [`MAX_ECHO_BYTES`] of the input.
//!
//! The parser accepts a few inputs strict JSON does not: a `+` after
//! `\u` (`\u+041`), leading zeros (`01`) and raw control characters
//! inside strings.

use std::borrow::Cow;
use std::collections::BTreeSet;
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
            Json::Int(v) => push_int(out, *v),
            Json::UInt(v) => push_uint(out, *v),
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
            Json::Str(s) => write_json_string(out, s),
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
                    write_json_string(out, k);
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
        let mut p = Parser::new(input);
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
    out.push('"');
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        out.push('"');
        return;
    }
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

/// Appends `v` in decimal. At tens of thousands of integers per
/// checkpoint line, `write!`'s formatting machinery costs several times
/// the digits themselves; `u128` division is a library call, so digits
/// switch to `u64` arithmetic as soon as the rest fits.
#[inline]
pub fn push_uint(out: &mut String, v: u128) {
    let mut buf = [0u8; 39];
    let mut i = buf.len();
    let mut wide = v;
    let mut rest = loop {
        match u64::try_from(wide) {
            Ok(rest) => break rest,
            Err(_) => {
                i -= 1;
                buf[i] = b'0' + u8::try_from(wide % 10).unwrap_or(0);
                wide /= 10;
            }
        }
    };
    loop {
        i -= 1;
        buf[i] = b'0' + u8::try_from(rest % 10).unwrap_or(0);
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).unwrap_or(""));
}

/// Appends `v` in decimal; see [`push_uint`].
#[inline]
pub fn push_int(out: &mut String, v: i128) {
    if v < 0 {
        out.push('-');
    }
    push_uint(out, v.unsigned_abs());
}

/// Streams one JSON object into a `String`, field by field, producing
/// exactly the bytes [`Json::to_string_compact`] gives for the
/// equivalent [`Json::Obj`] without building the tree. Fields appear in
/// call order; [`ObjWriter::finish`] closes the object.
#[derive(Debug)]
pub struct ObjWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjWriter<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> ObjWriter<'a> {
        out.push('{');
        ObjWriter { out, empty: true }
    }

    /// Writes `key` and its colon and returns the buffer, which must
    /// receive exactly one JSON value next.
    pub fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_json_string(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A string field.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        write_json_string(self.key(key), v);
        self
    }

    /// A field of any unsigned integer type.
    pub fn uint(&mut self, key: &str, v: impl TryInto<u128>) -> &mut Self {
        push_uint(self.key(key), v.try_into().unwrap_or(u128::MAX));
        self
    }

    /// A field of any signed integer type.
    pub fn int(&mut self, key: &str, v: impl Into<i128>) -> &mut Self {
        push_int(self.key(key), v.into());
        self
    }

    /// An unsigned integer field, left out when `v` is `None`.
    pub fn opt_uint(&mut self, key: &str, v: Option<impl TryInto<u128>>) -> &mut Self {
        if let Some(v) = v {
            self.uint(key, v);
        }
        self
    }

    /// A signed integer field, left out when `v` is `None`.
    pub fn opt_int(&mut self, key: &str, v: Option<impl Into<i128>>) -> &mut Self {
        if let Some(v) = v {
            self.int(key, v);
        }
        self
    }

    /// A boolean field.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key).push_str(if v { "true" } else { "false" });
        self
    }

    /// A field holding an already-built [`Json`] value.
    pub fn value(&mut self, key: &str, v: &Json) -> &mut Self {
        v.write(self.key(key), None, 0);
        self
    }

    /// A nested object field; finish it before writing to `self` again.
    pub fn obj(&mut self, key: &str) -> ObjWriter<'_> {
        ObjWriter::new(self.key(key))
    }

    /// Closes the object.
    pub fn finish(self) {
        self.out.push('}');
    }
}

/// Longest prefix of client input an error message quotes back. The
/// input is bounded only by the line cap, and a reply that echoed a
/// 500k-digit number whole would be as long as the number.
pub const MAX_ECHO_BYTES: usize = 40;

/// `s` for quoting in an error message: at most [`MAX_ECHO_BYTES`]
/// bytes, cut at a char boundary, with `…` marking a cut.
pub fn clip_echo(s: &str) -> String {
    if s.len() <= MAX_ECHO_BYTES {
        return s.to_string();
    }
    let mut end = MAX_ECHO_BYTES;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", s.get(..end).unwrap_or(""))
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap one line of 500k `[` would
/// overflow the stack and abort the process. The documents this workspace
/// writes nest only a few levels; 128 keeps the recursion far inside even
/// a 2 MiB thread stack.
pub const MAX_DEPTH: usize = 128;

/// Objects up to this many keys find a duplicate by scanning the keys
/// already parsed. A larger object moves its keys into an ordered set, so
/// a line of `k` distinct keys costs O(k log k), not O(k²).
const LINEAR_KEYS: usize = 16;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// Elements of the arrays currently open, innermost last. A closed
    /// array moves its own tail into one exactly sized `Vec`.
    items: Vec<Json>,
    /// Fields of the objects currently open, innermost last; pre-sized to
    /// [`LINEAR_KEYS`], more than a wire request has.
    fields: Vec<(String, Json)>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
            items: Vec::new(),
            fields: Vec::with_capacity(LINEAR_KEYS),
        }
    }

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
            Err(self.err(format!("expected `{}`", char::from(b))))
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
            Some(b'"') => self.string().map(|s| Json::Str(s.into_owned())),
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
            Some(c) => Err(self.err(format!("unexpected character `{}`", char::from(c)))),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(Vec::new()));
        }
        let base = self.items.len();
        loop {
            self.skip_ws();
            let item = self.value()?;
            self.items.push(item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(self.items.drain(base..).collect()));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(Vec::new()));
        }
        let base = self.fields.len();
        let mut seen = None;
        loop {
            self.skip_ws();
            let key = self.string()?;
            if self.is_duplicate(base, &mut seen, &key) {
                return Err(self.err(format!("duplicate object key `{}`", clip_echo(&key))));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            self.fields.push((key.into_owned(), val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(self.fields.drain(base..).collect()));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    /// Is `key` among the keys of the open object whose fields start at
    /// `base`? `seen` is that object's key set once it outgrows
    /// [`LINEAR_KEYS`]; a key that is not a duplicate is added to it.
    /// `key` stays a `Cow` so the set can keep a borrowed key uncopied.
    #[allow(clippy::ptr_arg)]
    fn is_duplicate(
        &self,
        base: usize,
        seen: &mut Option<BTreeSet<Cow<'a, str>>>,
        key: &Cow<'a, str>,
    ) -> bool {
        if let Some(set) = seen {
            return !set.insert(key.clone());
        }
        let keys = &self.fields[base..];
        if keys.iter().any(|(k, _)| *k == **key) {
            return true;
        }
        if keys.len() == LINEAR_KEYS {
            let mut set: BTreeSet<Cow<'a, str>> =
                keys.iter().map(|(k, _)| Cow::Owned(k.clone())).collect();
            set.insert(key.clone());
            *seen = Some(set);
        }
        false
    }

    /// A string literal. Each run of bytes up to the next `"` or `\` is
    /// copied whole, and a string with no escape is borrowed from the
    /// input. Both stop bytes are ASCII, so every run ends on a char
    /// boundary.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut buf: Option<String> = None;
        loop {
            let start = self.pos;
            let Some(len) = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            let end = start + len;
            let run = self
                .src
                .get(start..end)
                .ok_or_else(|| self.err("invalid UTF-8"))?;
            self.pos = end + 1;
            if self.bytes[end] == b'"' {
                return Ok(match buf {
                    None => Cow::Borrowed(run),
                    Some(mut s) => {
                        s.push_str(run);
                        Cow::Owned(s)
                    }
                });
            }
            let out = buf.get_or_insert_with(|| String::with_capacity(run.len() + 8));
            out.push_str(run);
            self.escape(out)?;
        }
    }

    /// Decodes the escape after a `\` onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
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
                let code =
                    u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
                self.pos += 4;
                // Surrogate pairs are not produced by this module's
                // writer; reject rather than mangle.
                let c = char::from_u32(code).ok_or_else(|| self.err("non-scalar \\u escape"))?;
                out.push(c);
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits = self.pos;
        // Up to 19 digits always fit a `u64`; fold them while scanning.
        let mut folded: u64 = 0;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            folded = folded.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            self.pos += 1;
        }
        if (1..=19).contains(&(self.pos - digits))
            && !matches!(self.peek(), Some(b'.' | b'e' | b'E'))
        {
            return Ok(if negative {
                Json::Int(-i128::from(folded))
            } else {
                Json::UInt(u128::from(folded))
            });
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
        // Every byte scanned is ASCII, so the range is a char boundary.
        let text = self.src.get(start..self.pos).unwrap_or_default();
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err(format!("invalid number `{}`", clip_echo(text))))
        } else if negative {
            if self.pos == digits {
                return Err(self.err("lone `-` is not a number"));
            }
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| self.err(format!("integer out of range `{}`", clip_echo(text))))
        } else if text.is_empty() {
            Err(self.err("expected a number"))
        } else {
            text.parse::<u128>()
                .map(Json::UInt)
                .map_err(|_| self.err(format!("integer out of range `{}`", clip_echo(text))))
        }
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
    fn integer_formatter_matches_display() {
        for v in [
            0,
            9,
            10,
            u128::from(u64::MAX),
            u128::from(u64::MAX) + 1,
            u128::MAX,
        ] {
            let mut out = String::new();
            push_uint(&mut out, v);
            assert_eq!(out, v.to_string());
        }
        for v in [
            0,
            -1,
            i128::from(i64::MIN),
            i128::from(i64::MAX),
            i128::MIN,
            i128::MAX,
        ] {
            let mut out = String::new();
            push_int(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn obj_writer_matches_the_tree_renderer() {
        let mut out = String::new();
        let mut w = ObjWriter::new(&mut out);
        w.str("name", "plain")
            .str("k\"ey", "a\"b\\c\nd\u{1}é")
            .uint("big", u128::MAX)
            .uint("len", usize::MAX)
            .int("min", i64::MIN)
            .opt_uint("absent", None::<u64>)
            .opt_int("now", Some(-3i64))
            .bool("ok", false)
            .value("tree", &Json::Arr(vec![Json::Float(0.0), Json::Null]));
        let mut inner = w.obj("nested");
        inner.uint("seq", 1u64);
        inner.finish();
        w.obj("empty").finish();
        w.finish();
        let tree = Json::Obj(vec![
            ("name".into(), Json::Str("plain".into())),
            ("k\"ey".into(), Json::Str("a\"b\\c\nd\u{1}é".into())),
            ("big".into(), Json::UInt(u128::MAX)),
            ("len".into(), usize::MAX.to_json()),
            ("min".into(), i64::MIN.to_json()),
            ("now".into(), Json::Int(-3)),
            ("ok".into(), Json::Bool(false)),
            ("tree".into(), Json::Arr(vec![Json::Float(0.0), Json::Null])),
            ("nested".into(), Json::obj([("seq", Json::UInt(1))])),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(out, tree.to_string_compact());
    }

    #[test]
    fn error_messages_quote_at_most_a_clipped_prefix() {
        let digits = "7".repeat(500_000);
        for line in [
            digits.clone(),
            format!("-{digits}"),
            format!("{digits}.e"),
            format!("{{\"{digits}\":1,\"{digits}\":2}}"),
        ] {
            let err = Json::parse(&line).unwrap_err();
            assert!(err.message.len() < 100, "{} bytes", err.message.len());
            assert!(
                err.message.contains(&"7".repeat(MAX_ECHO_BYTES - 1)),
                "{err}"
            );
        }
        // The cut lands on a char boundary, never inside `é`.
        let clipped = clip_echo(&"é".repeat(MAX_ECHO_BYTES));
        assert_eq!(clipped, format!("{}…", "é".repeat(MAX_ECHO_BYTES / 2)));
        assert_eq!(clip_echo("short"), "short");
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

/// The parser [`Json::parse`] replaced, kept only as a test oracle.
///
/// It decodes strings one UTF-8 sequence at a time and checks duplicate
/// keys through a `BTreeMap` of cloned keys. The production parser must
/// give the same value, or the same error message at the same byte
/// offset, on every input; the tests below hold it to that.
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;

    use super::{clip_echo, Json, JsonError, MAX_DEPTH};

    /// The reference parse of one JSON document.
    pub(super) fn parse(input: &str) -> Result<Json, JsonError> {
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
                Err(self.err(format!("expected `{}`", char::from(b))))
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
                Some(c) => Err(self.err(format!("unexpected character `{}`", char::from(c)))),
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
                    return Err(self.err(format!("duplicate object key `{}`", clip_echo(&key))));
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
                    .map_err(|_| self.err(format!("invalid number `{}`", clip_echo(text))))
            } else if let Some(stripped) = text.strip_prefix('-') {
                if stripped.is_empty() {
                    return Err(self.err("lone `-` is not a number"));
                }
                text.parse::<i128>()
                    .map(Json::Int)
                    .map_err(|_| self.err(format!("integer out of range `{}`", clip_echo(text))))
            } else if text.is_empty() {
                Err(self.err("expected a number"))
            } else {
                text.parse::<u128>()
                    .map(Json::UInt)
                    .map_err(|_| self.err(format!("integer out of range `{}`", clip_echo(text))))
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

    /// The production parser against this one.
    mod tests {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        use super::super::{Json, MAX_DEPTH};

        /// Both parsers' results, rendered: values and errors (message and
        /// offset) must match exactly, and `Debug` tells `-0.0` from `0.0`.
        fn assert_same(line: &str) {
            let got = format!("{:?}", Json::parse(line));
            let want = format!("{:?}", super::parse(line));
            assert_eq!(got, want, "on {line:?}");
        }

        /// Every string literal in a Rust source file that starts like a JSON
        /// document (`{` or `[`), with Rust's escapes decoded: the pinned
        /// wire, journal and checkpoint lines of the serve tests. Comments and
        /// char literals are skipped so a stray quote cannot desynchronize.
        fn json_literals(src: &str) -> Vec<String> {
            let c: Vec<char> = src.chars().collect();
            let mut out = Vec::new();
            let mut i = 0;
            while i < c.len() {
                let prev_ident = i > 0 && (c[i - 1].is_alphanumeric() || c[i - 1] == '_');
                if c[i] == '/' && c.get(i + 1) == Some(&'/') {
                    while i < c.len() && c[i] != '\n' {
                        i += 1;
                    }
                } else if c[i] == '\'' {
                    // `'x'`, `'\x'`, `'\u{..}'`; a lifetime has no closing quote.
                    if c.get(i + 1) == Some(&'\\') {
                        i += 3;
                        while i < c.len() && c[i] != '\'' {
                            i += 1;
                        }
                        i += 1;
                    } else if c.get(i + 2) == Some(&'\'') {
                        i += 3;
                    } else {
                        i += 1;
                    }
                } else if c[i] == 'r' && !prev_ident && matches!(c.get(i + 1), Some('"' | '#')) {
                    let mut j = i + 1;
                    while c.get(j) == Some(&'#') {
                        j += 1;
                    }
                    let hashes = j - i - 1;
                    if c.get(j) != Some(&'"') {
                        i = j;
                        continue;
                    }
                    let body = j + 1;
                    let mut k = body;
                    while k < c.len()
                        && !(c[k] == '"' && (1..=hashes).all(|h| c.get(k + h) == Some(&'#')))
                    {
                        k += 1;
                    }
                    out.push(c[body..k.min(c.len())].iter().collect());
                    i = k + 1 + hashes;
                } else if c[i] == '"' {
                    let mut s = String::new();
                    let mut j = i + 1;
                    while j < c.len() && c[j] != '"' {
                        if c[j] != '\\' {
                            s.push(c[j]);
                            j += 1;
                            continue;
                        }
                        j += 1;
                        match c.get(j) {
                            Some('n') => s.push('\n'),
                            Some('t') => s.push('\t'),
                            Some('r') => s.push('\r'),
                            Some('0') => s.push('\0'),
                            Some('u') => {
                                let close =
                                    c[j..].iter().position(|&x| x == '}').map_or(j, |p| j + p);
                                let hex: String =
                                    c.get(j + 2..close).unwrap_or(&[]).iter().collect();
                                s.extend(
                                    u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32),
                                );
                                j = close;
                            }
                            Some('\n') => {
                                while c.get(j + 1).is_some_and(|x| x.is_whitespace()) {
                                    j += 1;
                                }
                            }
                            Some(&x) => s.push(x),
                            None => {}
                        }
                        j += 1;
                    }
                    out.push(s);
                    i = j + 1;
                } else {
                    i += 1;
                }
            }
            out.retain(|s| s.starts_with('{') || s.starts_with('['));
            out
        }

        /// The pinned lines of the serve crate's tests and sources, and the
        /// trace golden's JSON lines.
        fn committed_lines() -> Vec<String> {
            let mut lines = Vec::new();
            // Miri interprets every byte; the wire corpus alone keeps it quick.
            let files = if cfg!(miri) { 1 } else { usize::MAX };
            for src in [
                include_str!("../../serve/tests/wire_bytes.rs"),
                include_str!("../../serve/tests/lifecycle.rs"),
                include_str!("../../serve/tests/journal_replay.rs"),
                include_str!("../../serve/tests/checkpoint_digests.rs"),
                include_str!("../../serve/tests/e2e.rs"),
                include_str!("../../serve/src/protocol.rs"),
                include_str!("../../serve/src/journal.rs"),
            ]
            .into_iter()
            .take(files)
            {
                lines.extend(json_literals(src));
            }
            lines.extend(
                include_str!("../../trace/tests/golden/tiny.jsonl")
                    .lines()
                    .map(str::to_string),
            );
            lines
        }

        #[test]
        fn literal_extraction_finds_the_pinned_lines() {
            let src = include_str!("../../serve/tests/wire_bytes.rs");
            let valid = json_literals(src)
                .iter()
                .filter(|l| super::parse(l).is_ok())
                .count();
            // 25 replies + 17 journal records, plus the counter object.
            assert!(valid >= 43, "only {valid} parseable literals");
            let escaped = json_literals(r##"x = "{\"a\":\"\\u0001é\"}"; y = r#"[1]"#;"##);
            assert_eq!(escaped, ["{\"a\":\"\\u0001é\"}", "[1]"]);
        }

        #[test]
        fn parsers_agree_on_every_committed_line() {
            let lines = committed_lines();
            assert!(
                lines.len() > if cfg!(miri) { 40 } else { 100 },
                "{} lines",
                lines.len()
            );
            for line in &lines {
                assert_same(line);
            }
        }

        #[test]
        fn parsers_agree_on_edge_cases() {
            let cases = [
                "0",
                "-0",
                "00",
                "01",
                "-01",
                "1.",
                ".5",
                "-.5",
                "1e",
                "1e+",
                "1E-2",
                "-",
                "--1",
                "9999999999999999999",
                "10000000000000000000",
                "-9999999999999999999",
                "-10000000000000000000",
                "18446744073709551615",
                "18446744073709551616",
                "340282366920938463463374607431768211455",
                "340282366920938463463374607431768211456",
                "-170141183460469231731687303715884105728",
                "-170141183460469231731687303715884105729",
                "\"\"",
                "\"",
                "\"\\",
                "\"\\u",
                "\"\\u00\"",
                "\"\\u+041\"",
                "\"\\u00é\"",
                "\"\\u0é\"",
                "\"\\ud800\"",
                "\"\\x\"",
                "\"é\\n✓\"",
                "\"\u{1}\t\"",
                "\"a\\\"b\"",
                "\"\\/\\b\\f\\r\"",
                "{}",
                "{ }",
                "[]",
                "[ ]",
                "[1,]",
                "{\"a\":1,}",
                "{\"a\" 1}",
                "{1:2}",
                "{\"a\":1 \"b\":2}",
                "nul",
                "truex",
                "false ",
                " \n[null,true,false]\r\n",
                "{\"a\":{\"a\":{\"a\":1}}}",
                "{\"a\":1,\"b\":2,\"a\":3}",
                "{\"\\u0061\":1,\"a\":2}",
                "[\"x\",{\"y\":[1,-2,3.5]}]",
                "é",
            ];
            for line in cases {
                assert_same(line);
            }
            let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
            assert_same(&nested(MAX_DEPTH));
            assert_same(&nested(MAX_DEPTH + 1));
            assert_same(&("{\"k\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH)));
        }

        /// An object of many distinct keys takes the ordered-set path, and a
        /// duplicate at its very end is still caught, with the same error.
        #[test]
        fn wide_objects_agree() {
            let keys = if cfg!(miri) { 300 } else { 100_000 };
            let mut line = String::from("{");
            for i in 0..keys {
                line.push_str(&format!("\"k{i}\":{i},"));
            }
            line.push_str("\"\\u006b7\":true}");
            let Json::Obj(fields) = Json::parse(&line.replace("\\u006b7", "last")).unwrap() else {
                panic!("not an object");
            };
            assert_eq!(fields.len(), keys + 1);
            let err = Json::parse(&line).unwrap_err();
            assert!(err.message.contains("duplicate object key `k7`"), "{err}");
            assert_same(&line);
        }

        /// Bytes the mutations insert: every structural byte, number and
        /// literal letters, escapes, a control byte and half of `é`.
        const ALPHABET: &[u8] = b"\"\\{}[]:,-+.0123456789eEuntrfals/ \t\n\x01\xc3\xa9";

        /// One seeded mutation of `line`: up to three edits of delete, insert,
        /// replace, truncate, repeat a `,`-field (a duplicate key in most
        /// objects) or copy a slice elsewhere, sometimes nested near the depth
        /// cap. Invalid UTF-8 becomes U+FFFD, as `read_line` would refuse it.
        fn mutate(rng: &mut StdRng, line: &str) -> String {
            let mut b = line.as_bytes().to_vec();
            let pick = |rng: &mut StdRng| ALPHABET[rng.gen_range(0..ALPHABET.len())];
            for _ in 0..rng.gen_range(1..=3usize) {
                let at = rng.gen_range(0..=b.len());
                match rng.gen_range(0..6u32) {
                    0 if at < b.len() => {
                        b.remove(at);
                    }
                    1 => b.insert(at, pick(rng)),
                    2 if at < b.len() => b[at] = pick(rng),
                    3 => b.truncate(at),
                    4 => {
                        let Some(p) = b[at..].iter().position(|&x| x == b',').map(|p| at + p)
                        else {
                            continue;
                        };
                        let q = b[p + 1..]
                            .iter()
                            .position(|&x| matches!(x, b',' | b'}' | b']'))
                            .map_or(b.len(), |q| p + 1 + q);
                        let field = b[p..q].to_vec();
                        b.splice(q..q, field);
                    }
                    _ => {
                        let from = rng.gen_range(0..=b.len());
                        let to = rng.gen_range(from..=b.len().min(from + 16));
                        let slice = b[from..to].to_vec();
                        b.splice(at..at, slice);
                    }
                }
            }
            if rng.gen_range(0..16u32) == 0 {
                let depth = rng.gen_range(MAX_DEPTH - 2..=MAX_DEPTH + 1);
                let mut nested = vec![b'['; depth];
                nested.extend_from_slice(&b);
                nested.extend(std::iter::repeat_n(b']', depth));
                b = nested;
            }
            String::from_utf8_lossy(&b).into_owned()
        }

        /// Runs `cases` seeded mutations of the committed lines through both
        /// parsers; returns how many of them were valid JSON.
        fn mutation_sweep(seed: u64, cases: usize) -> usize {
            let seeds: Vec<String> = committed_lines()
                .into_iter()
                .filter(|l| super::parse(l).is_ok())
                .collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut valid = 0;
            for _ in 0..cases {
                let seed_line = &seeds[rng.gen_range(0..seeds.len())];
                let line = mutate(&mut rng, seed_line);
                assert_same(&line);
                valid += usize::from(Json::parse(&line).is_ok());
            }
            valid
        }

        #[test]
        fn parsers_agree_on_mutated_lines() {
            let cases = if cfg!(miri) { 40 } else { 20_000 };
            let valid = mutation_sweep(2017, cases);
            // The sweep must reach both outcomes, not only errors.
            assert!(valid > 0 && valid < cases, "{valid} of {cases} valid");
        }

        /// The long sweep CI runs in release (`--ignored`).
        #[test]
        #[ignore = "long sweep; CI runs it in release"]
        fn parsers_agree_on_a_long_mutation_sweep() {
            for seed in 0..4 {
                mutation_sweep(seed, 100_000);
            }
        }
    }
}
