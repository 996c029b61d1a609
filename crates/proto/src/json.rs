//! JSON: a streaming writer, a validating pull reader, and a value tree
//! built on the two.
//!
//! The Periscope API exchanges JSON-encoded requests and responses (§3,
//! Table 1). The crate has one emitter, [`Writer`], and one tokenizer,
//! [`Reader`]. The API's hot bodies and every artifact the reproduction
//! writes go through them directly; [`Value::to_json`] is a walk over the
//! writer and [`parse`] a tree-builder over the reader, for tests and cold
//! paths. Output is deterministic — object keys ascend (a [`Value`] keeps
//! them in a `BTreeMap`, the writer asserts it), a float has one format
//! and an integer is written and read exactly — so API traffic and
//! artifacts are byte-identical across runs with the same seed, and
//! `parse(text)?.to_json()` gives back what was written.

use crate::ProtoError;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A float, like a JavaScript number. The reader makes one of a
    /// number with a fraction or an exponent, or of an integer outside
    /// `i128`.
    Number(f64),
    /// A number written as a bare integer, kept exact: an id or a seed
    /// beyond 2^53 reads back as written.
    Int(i128),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with deterministically ordered keys.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Builds an object from key/value pairs.
    pub fn object<I: IntoIterator<Item = (&'static str, Value)>>(pairs: I) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Value {
        Value::String(s.into())
    }

    /// Gets `self[key]` if this is an object containing the key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as f64 if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as u64 if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as &str if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as bool if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a slice if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut Writer::new(&mut out));
        out
    }

    /// Writes the value as the next value of `w`.
    pub fn write_json(&self, w: &mut Writer<'_>) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Number(n) => w.number(*n),
            Value::Int(n) => w.int(*n),
            Value::String(s) => w.str(s),
            Value::Array(items) => {
                w.begin_array();
                items.iter().for_each(|item| item.write_json(w));
                w.end_array();
            }
            Value::Object(map) => {
                w.begin_object();
                for (k, v) in map {
                    w.key(k);
                    v.write_json(w);
                }
                w.end_object();
            }
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(n)
    }
}
impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Int(n.into())
    }
}
impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Int(n.into())
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

/// Streaming JSON writer: the crate's only emitter. Appends one compact
/// document to a caller's `String`; [`Value::to_json`] is a walk over it
/// and the API bodies are written through it without a tree.
///
/// Keys are written in the order given. Every consumer of this crate's
/// JSON expects what a `BTreeMap` would have produced, so a debug build
/// asserts that the keys of each object ascend.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut String,
    start: usize,
    /// Debug builds only: where in `out` the latest key of the innermost
    /// open container sits (`None` for arrays, before the first key, and
    /// after a key that needed escaping, whose text no longer compares
    /// like the key)…
    latest: Option<std::ops::Range<usize>>,
    /// …and the same for each container around it, outermost first, so a
    /// flat object is checked without a heap allocation.
    outer: Vec<Option<std::ops::Range<usize>>>,
    /// Debug builds only: containers open.
    depth: usize,
}

impl<'a> Writer<'a> {
    /// Starts a document at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        let start = out.len();
        Writer { out, start, latest: None, outer: Vec::new(), depth: 0 }
    }

    /// Writes the `,` a value or key needs unless it is the first of its
    /// container. No text this writer produces ends in `[`, `{` or `:`
    /// except the opening of a container and a key, so the last byte says
    /// which.
    fn sep(&mut self) {
        let first = self.out.len() == self.start
            || matches!(self.out.as_bytes()[self.out.len() - 1], b'[' | b'{' | b':');
        if !first {
            self.out.push(',');
        }
    }

    fn open(&mut self, bracket: char) {
        self.sep();
        self.out.push(bracket);
        if cfg!(debug_assertions) {
            if self.depth > 0 {
                self.outer.push(self.latest.take());
            }
            self.latest = None;
            self.depth += 1;
        }
    }

    fn close(&mut self, bracket: char) {
        self.out.push(bracket);
        if cfg!(debug_assertions) {
            self.depth -= 1;
            self.latest = self.outer.pop().flatten();
        }
    }

    /// Opens an object as the next value.
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Opens an array as the next value.
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Writes a member key; the member's value must follow.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.sep();
        let at = self.out.len() + 1;
        escape(key, self.out);
        if cfg!(debug_assertions) {
            let plain = self.out.len() - at - 1 == key.len();
            self.follow_key(at..at + key.len(), plain);
        }
        self.out.push(':');
        self
    }

    /// Debug builds only: checks the key whose text sits at `key` in `out`
    /// against the latest of its object and makes it the latest. A key
    /// that needed escaping (`plain` false) is neither checked nor kept.
    fn follow_key(&mut self, key: std::ops::Range<usize>, plain: bool) {
        assert!(self.depth > 0, "a key belongs inside an object");
        if let (Some(prev), true) = (self.latest.as_ref(), plain) {
            let (prev, key) = (&self.out[prev.clone()], &self.out[key.clone()]);
            debug_assert!(prev < key, "object keys must ascend: '{key}'");
        }
        self.latest = plain.then_some(key);
    }

    /// Writes `text` that a `Writer` wrote earlier — one value, or the
    /// members of an object without its braces — as the next value or
    /// members, with the `,` it needs; empty text writes nothing. A caller
    /// that keeps a render's unchanging members as text splices them
    /// between the members it writes fresh. A debug build checks the
    /// run's keys against the object's as [`key`](Writer::key) does.
    pub fn splice(&mut self, text: &str) {
        if text.is_empty() {
            return;
        }
        self.sep();
        let at = self.out.len();
        self.out.push_str(text);
        if cfg!(debug_assertions) {
            self.follow_spliced_keys(at);
        }
    }

    /// Debug builds only: walks the text spliced at `at` and follows each
    /// key at its top level, a string that a `:` follows.
    fn follow_spliced_keys(&mut self, at: usize) {
        let (mut depth, mut i) = (0usize, at);
        while i < self.out.len() {
            let bytes = self.out.as_bytes();
            match bytes[i] {
                b'"' => {
                    let open = i;
                    i += 1;
                    while bytes[i] != b'"' {
                        i += if bytes[i] == b'\\' { 2 } else { 1 };
                    }
                    if depth == 0 && bytes.get(i + 1) == Some(&b':') {
                        let plain = !bytes[open..i].contains(&b'\\');
                        self.follow_key(open + 1..i, plain);
                    }
                }
                b'[' | b'{' => depth += 1,
                b']' | b'}' => depth -= 1,
                _ => {}
            }
            i += 1;
        }
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.sep();
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.sep();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes a float: integral values below 1e15 in magnitude as
    /// integers, everything else in the shortest form that reads back to
    /// the same `f64`.
    pub fn number(&mut self, n: f64) {
        self.sep();
        // Writing into a `String` cannot fail.
        let _ = if n.fract() == 0.0 && n.abs() < 1e15 {
            write!(self.out, "{}", n as i64)
        } else {
            write!(self.out, "{n}")
        };
    }

    /// Writes `n`, or `null` for a value that was not measured.
    pub fn number_or_null(&mut self, n: Option<f64>) {
        match n {
            Some(n) => self.number(n),
            None => self.null(),
        }
    }

    /// Writes an integer exactly. An `f64` holds integers exactly only up
    /// to 2^53, so an id, a seed or a counter — anything that may pass it
    /// — goes through here, never through [`number`](Writer::number).
    pub fn int(&mut self, n: impl Into<i128>) {
        self.sep();
        let _ = write!(self.out, "{}", n.into());
    }

    /// Writes a string, escaped.
    pub fn str(&mut self, s: &str) {
        self.sep();
        escape(s, self.out);
    }

    /// Writes one string whose text is `parts` back to back, escaped — for
    /// a value spelled from pieces (a fixed prefix and a number's digits, a
    /// long run of one character) that never exist as one `str`.
    pub fn str_parts<'s>(&mut self, parts: impl IntoIterator<Item = &'s str>) {
        self.sep();
        self.out.push('"');
        for part in parts {
            escape_text(part, self.out);
        }
        self.out.push('"');
    }
}

/// Appends `s` quoted, with `"`, `\` and control characters escaped.
fn escape(s: &str, out: &mut String) {
    out.push('"');
    escape_text(s, out);
    out.push('"');
}

/// Appends `s` with `"`, `\` and control characters escaped. Every byte is
/// escaped on its own, so text escaped in pieces reads as the whole would.
///
/// Plain text is passed eight bytes at a time; from the first word that
/// holds a byte to escape on, byte by byte.
fn escape_text(s: &str, out: &mut String) {
    let bytes = s.as_bytes();
    let clean = bytes
        .chunks_exact(8)
        .take_while(|w| !needs_escape(u64::from_le_bytes((*w).try_into().expect("8 bytes"))))
        .count()
        * 8;
    let mut plain = 0;
    for (i, &b) in bytes.iter().enumerate().skip(clean) {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[plain..i]);
        plain = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[plain..]);
}

/// Whether any byte of the word `w` is below 0x20, `"` or `\`: the
/// bitwise "has a byte less than n" test, once for 0x20 and, on `w` xor a
/// repeated byte, once for a zero byte per quoted character. Each test is
/// exact as a whole (a borrow only runs upward from a byte that already
/// matched), and bytes from 0x80 never match.
fn needs_escape(w: u64) -> bool {
    const ONES: u64 = u64::MAX / 0xff;
    let below = |v: u64, n: u64| v.wrapping_sub(ONES * n) & !v & (ONES << 7);
    below(w, 0x20)
        | below(w ^ (ONES * u64::from(b'"')), 1)
        | below(w ^ (ONES * u64::from(b'\\')), 1)
        != 0
}

/// Deepest container nesting the reader enters. A request body comes from
/// outside the service and `repro bench-diff` reads files from disk, so
/// neither [`Reader::skip`] nor [`parse`] may recurse as deep as the input
/// says.
pub const MAX_DEPTH: u32 = 128;

/// What `Reader::token` found at the cursor.
#[derive(Debug)]
enum Token<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number's text, checked to be one `str::parse::<f64>` accepts:
    /// converted by [`number_value`] when read, passed as is when skipped.
    Number(&'a str),
    /// A string, borrowed from the input unless it had escapes.
    String(Cow<'a, str>),
    /// `[` — the reader is now inside the array.
    Array,
    /// `{` — the reader is now inside the object.
    Object,
}

/// Borrowed, validating pull reader: the crate's only tokenizer. [`parse`]
/// builds a [`Value`] tree over it; the crawler reads API responses through
/// it without one.
///
/// The cursor sits on a value. The typed readers ([`f64`](Reader::f64),
/// [`bool`](Reader::bool), [`str`](Reader::str),
/// [`begin_array`](Reader::begin_array),
/// [`begin_object`](Reader::begin_object)) consume it: a value of the asked
/// type is returned (or entered), one of another type is skipped and
/// reported as `None`/`false` — the `get(key).and_then(as_…)` of the tree
/// API. Inside a container, [`next_element`](Reader::next_element) /
/// [`next_key`](Reader::next_key) move to the next member's value and
/// must be called until they report the end. Every byte passed is
/// validated, skipped or not; [`end`](Reader::end) rejects trailing data.
#[derive(Debug)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: u32,
    /// One bit per open container, innermost lowest: set for an object.
    objects: u128,
    /// Just entered a container: no member consumed yet.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// Starts reading the document in `src`.
    pub fn new(src: &'a str) -> Self {
        Reader { src, pos: 0, depth: 0, objects: 0, fresh: false }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, ProtoError> {
        let b = self.peek().ok_or(ProtoError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ProtoError> {
        let got = self.bump()?;
        if got != b {
            return Err(ProtoError::Malformed(format!(
                "expected '{}' at byte {}, got '{}'",
                b as char,
                self.pos - 1,
                got as char
            )));
        }
        Ok(())
    }

    /// Reads the scalar at the cursor, or enters the container there.
    fn token(&mut self) -> Result<Token<'a>, ProtoError> {
        self.skip_ws();
        match self.peek().ok_or(ProtoError::Truncated)? {
            b'n' => self.literal("null", Token::Null),
            b't' => self.literal("true", Token::Bool(true)),
            b'f' => self.literal("false", Token::Bool(false)),
            b'"' => self.string().map(Token::String),
            b'[' => self.enter(false).map(|()| Token::Array),
            b'{' => self.enter(true).map(|()| Token::Object),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(ProtoError::Malformed(format!(
                "unexpected '{}' at byte {}",
                c as char, self.pos
            ))),
        }
    }

    fn literal(&mut self, lit: &str, token: Token<'a>) -> Result<Token<'a>, ProtoError> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(token)
        } else {
            Err(ProtoError::Malformed(format!("bad literal at byte {}", self.pos)))
        }
    }

    fn enter(&mut self, object: bool) -> Result<(), ProtoError> {
        if self.depth == MAX_DEPTH {
            return Err(ProtoError::Malformed(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        self.depth += 1;
        self.objects = self.objects << 1 | u128::from(object);
        self.fresh = true;
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
        self.objects >>= 1;
        self.fresh = false;
    }

    /// Finishes what `token` began: walks to the end of a container.
    fn drain(&mut self, token: Token<'a>) -> Result<(), ProtoError> {
        match token {
            Token::Array => {
                while self.next_element()? {
                    self.skip()?;
                }
            }
            Token::Object => {
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Passes over the value at the cursor, validating it.
    pub fn skip(&mut self) -> Result<(), ProtoError> {
        let token = self.token()?;
        self.drain(token)
    }

    /// The number at the cursor; any other value is skipped.
    pub fn f64(&mut self) -> Result<Option<f64>, ProtoError> {
        match self.token()? {
            Token::Number(text) => Ok(number_value(text)?.as_f64()),
            other => self.drain(other).map(|()| None),
        }
    }

    /// The boolean at the cursor; any other value is skipped.
    pub fn bool(&mut self) -> Result<Option<bool>, ProtoError> {
        match self.token()? {
            Token::Bool(b) => Ok(Some(b)),
            other => self.drain(other).map(|()| None),
        }
    }

    /// The string at the cursor, borrowed from the input unless it has
    /// escapes; any other value is skipped.
    pub fn str(&mut self) -> Result<Option<Cow<'a, str>>, ProtoError> {
        match self.token()? {
            Token::String(s) => Ok(Some(s)),
            other => self.drain(other).map(|()| None),
        }
    }

    /// Enters the array at the cursor; any other value is skipped and
    /// `false` returned.
    pub fn begin_array(&mut self) -> Result<bool, ProtoError> {
        match self.token()? {
            Token::Array => Ok(true),
            other => self.drain(other).map(|()| false),
        }
    }

    /// Enters the object at the cursor; any other value is skipped and
    /// `false` returned.
    pub fn begin_object(&mut self) -> Result<bool, ProtoError> {
        match self.token()? {
            Token::Object => Ok(true),
            other => self.drain(other).map(|()| false),
        }
    }

    /// If the value at the cursor is an object, calls `member(key, self)`
    /// with the cursor on each member's value, which it must consume; any
    /// other value is skipped.
    pub fn members(
        &mut self,
        mut member: impl FnMut(&str, &mut Self) -> Result<(), ProtoError>,
    ) -> Result<(), ProtoError> {
        if self.begin_object()? {
            while let Some(key) = self.next_key()? {
                member(&key, self)?;
            }
        }
        Ok(())
    }

    /// If the value at the cursor is an array, calls `element(self)` with
    /// the cursor on each element, which it must consume, and returns
    /// `true`; any other value is skipped.
    pub fn elements(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), ProtoError>,
    ) -> Result<bool, ProtoError> {
        let array = self.begin_array()?;
        while array && self.next_element()? {
            element(self)?;
        }
        Ok(array)
    }

    /// Inside an array: moves to the next element, or leaves the array
    /// and returns `false`.
    pub fn next_element(&mut self) -> Result<bool, ProtoError> {
        debug_assert!(self.depth > 0 && self.objects & 1 == 0, "not inside an array");
        self.next_member(b']')
    }

    /// Inside an object: moves to the next member and returns its key with
    /// the cursor on its value, or leaves the object and returns `None`.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ProtoError> {
        debug_assert!(self.objects & 1 == 1, "not inside an object");
        if !self.next_member(b'}')? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Passes the `,` before the innermost container's next member, or
    /// its `close` bracket (and leaves it).
    fn next_member(&mut self, close: u8) -> Result<bool, ProtoError> {
        self.skip_ws();
        let more = if std::mem::take(&mut self.fresh) {
            let empty = self.peek() == Some(close);
            if empty {
                self.pos += 1;
            }
            !empty
        } else {
            match self.bump()? {
                b',' => true,
                c if c == close => false,
                c => {
                    return Err(ProtoError::Malformed(format!(
                        "expected ',' or '{}', got '{}'",
                        close as char, c as char
                    )))
                }
            }
        };
        if !more {
            self.leave();
        }
        Ok(more)
    }

    /// Ends the document: anything but whitespace after the root value is
    /// an error.
    pub fn end(mut self) -> Result<(), ProtoError> {
        debug_assert_eq!(self.depth, 0, "a container is still open");
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(ProtoError::Malformed(format!("trailing data at byte {}", self.pos)));
        }
        Ok(())
    }

    fn string(&mut self) -> Result<Cow<'a, str>, ProtoError> {
        self.expect(b'"')?;
        let src = self.src;
        let mut owned: Option<String> = None;
        loop {
            // `"` and `\` are ASCII, so both cuts are char boundaries.
            let rest = &src.as_bytes()[self.pos..];
            let stop =
                rest.iter().position(|&b| b == b'"' || b == b'\\').ok_or(ProtoError::Truncated)?;
            let plain = &src[self.pos..self.pos + stop];
            self.pos += stop + 1;
            if rest[stop] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(plain),
                    Some(mut s) => {
                        s.push_str(plain);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(plain);
            s.push(self.escape_char()?);
        }
    }

    /// The character an escape stands for; the cursor is past the `\`.
    fn escape_char(&mut self) -> Result<char, ProtoError> {
        Ok(match self.bump()? {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let cp = self.hex4()?;
                // Handle surrogate pairs for non-BMP characters.
                let c = if (0xD800..0xDC00).contains(&cp) {
                    self.expect(b'\\')?;
                    self.expect(b'u')?;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(ProtoError::Malformed("bad low surrogate".to_string()));
                    }
                    char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
                } else {
                    char::from_u32(cp)
                };
                c.ok_or_else(|| ProtoError::Malformed("invalid unicode escape".to_string()))?
            }
            e => return Err(ProtoError::Malformed(format!("bad escape '\\{}'", e as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, ProtoError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bump()?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| ProtoError::Malformed("bad hex digit".to_string()))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    /// Scans the number at the cursor without converting it. The syntax is
    /// `str::parse::<f64>`'s from a `-` or a digit on: at least one digit
    /// before or after an optional `.`, then optionally `e`/`E`, a sign and
    /// at least one digit.
    fn number(&mut self) -> Result<Token<'a>, ProtoError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut mantissa = self.digits();
        if self.peek() == Some(b'.') {
            self.pos += 1;
            mantissa += self.digits();
        }
        let mut valid = mantissa > 0;
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            valid &= self.digits() > 0;
        }
        let text = &self.src[start..self.pos];
        if valid {
            Ok(Token::Number(text))
        } else {
            Err(bad_number(text))
        }
    }

    /// Passes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

fn bad_number(text: &str) -> ProtoError {
    ProtoError::Malformed(format!("bad number '{text}'"))
}

/// The value of a scanned number: a bare integer is kept exact while it
/// fits an `i128`; any other number reads as an `f64`.
fn number_value(text: &str) -> Result<Value, ProtoError> {
    if !text.bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
        if let Ok(n) = text.parse() {
            return Ok(Value::Int(n));
        }
    }
    text.parse().map(Value::Number).map_err(|_| bad_number(text))
}

/// Reads a whole document for the members of its root object: `member`
/// as in [`Reader::members`] (a root of another kind has none), then
/// [`Reader::end`]. The document is validated to its last byte before this
/// returns `Ok`, so a caller reports what was missing from it afterwards.
pub fn root_members<'a>(
    input: &'a str,
    member: impl FnMut(&str, &mut Reader<'a>) -> Result<(), ProtoError>,
) -> Result<(), ProtoError> {
    let mut reader = Reader::new(input);
    reader.members(member)?;
    reader.end()
}

/// Parses a JSON document into a tree; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ProtoError> {
    let mut reader = Reader::new(input);
    let root = reader.token()?;
    let value = build(&mut reader, root)?;
    reader.end()?;
    Ok(value)
}

/// The tree under `token`. Recursion is bounded by [`MAX_DEPTH`].
fn build<'a>(reader: &mut Reader<'a>, token: Token<'a>) -> Result<Value, ProtoError> {
    Ok(match token {
        Token::Null => Value::Null,
        Token::Bool(b) => Value::Bool(b),
        Token::Number(text) => number_value(text)?,
        Token::String(s) => Value::String(s.into_owned()),
        Token::Array => {
            let mut items = Vec::new();
            while reader.next_element()? {
                let token = reader.token()?;
                items.push(build(reader, token)?);
            }
            Value::Array(items)
        }
        Token::Object => {
            let mut map = BTreeMap::new();
            while let Some(key) = reader.next_key()? {
                let token = reader.token()?;
                map.insert(key.into_owned(), build(reader, token)?);
            }
            Value::Object(map)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for src in ["null", "true", "false", "0", "-1", "3.5", "\"hi\""] {
            let v = parse(src).unwrap();
            assert_eq!(v.to_json(), src);
        }
    }

    #[test]
    fn roundtrip_nested() {
        let src = r#"{"a":[1,2,{"b":null}],"c":"x"}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.to_json(), src);
    }

    #[test]
    fn object_keys_sorted_on_output() {
        let v = parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.to_json(), r#"{"a":2,"z":1}"#);
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""line\nquote\"tab\tback\\""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "line\nquote\"tab\tback\\");
        // Round-trip re-escapes.
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        let v = parse(r#""é😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "é😀");
    }

    #[test]
    fn raw_utf8_passthrough() {
        let v = parse("\"héllo → 😀\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "héllo → 😀");
    }

    #[test]
    fn numbers_scientific() {
        assert_eq!(parse("1e3").unwrap().as_f64().unwrap(), 1000.0);
        assert_eq!(parse("-2.5E-2").unwrap().as_f64().unwrap(), -0.025);
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("1 x").is_err());
        assert!(parse("{} []").is_err());
    }

    #[test]
    fn rejects_truncated() {
        assert!(matches!(parse("{\"a\":"), Err(ProtoError::Truncated)));
        assert!(parse("[1,").is_err());
        assert!(parse("\"abc").is_err());
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("nul").is_err());
        assert!(parse("{a:1}").is_err());
        assert!(parse("[1 2]").is_err());
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n":5,"s":"x","b":true,"a":[1]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("n").unwrap().as_str(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap().to_json(), "[]");
        assert_eq!(parse("{}").unwrap().to_json(), "{}");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3u64).to_json(), "3");
        assert_eq!(Value::from("x").to_json(), "\"x\"");
        assert_eq!(Value::from(vec![1u64, 2]).to_json(), "[1,2]");
        let obj = Value::object([("k", Value::from(true))]);
        assert_eq!(obj.to_json(), "{\"k\":true}");
    }

    #[test]
    fn control_chars_escaped_on_output() {
        let v = Value::str("\u{1}");
        assert_eq!(v.to_json(), "\"\\u0001\"");
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    /// `[[[[…` / `{"a":{"a":…` used to recurse once per level and abort
    /// the process at 100 KB of input.
    #[test]
    fn nesting_is_bounded() {
        let nesting = ProtoError::Malformed(format!("nesting deeper than {MAX_DEPTH}"));
        for open in ["[", "{\"a\":"] {
            for (depth, want) in [
                (127, ProtoError::Truncated),
                (128, ProtoError::Truncated),
                (129, nesting.clone()),
                (1_000_000, nesting.clone()),
            ] {
                let doc = open.repeat(depth);
                assert_eq!(parse(&doc), Err(want.clone()), "{open} x {depth}");
                let mut reader = Reader::new(&doc);
                assert_eq!(reader.skip(), Err(want), "skip {open} x {depth}");
            }
        }
        let closed = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&closed(128)).is_ok());
        assert_eq!(parse(&closed(129)), Err(nesting));
    }

    #[test]
    fn writer_appends_one_document() {
        let mut out = String::from("prefix ");
        let mut w = Writer::new(&mut out);
        w.begin_object();
        w.key("a").begin_array();
        w.number(1.0);
        w.number(-2.5);
        w.begin_object();
        w.end_object();
        w.null();
        w.end_array();
        w.key("b").str("x\"y");
        w.key("c").bool(false);
        w.end_object();
        assert_eq!(out, r#"prefix {"a":[1,-2.5,{},null],"b":"x\"y","c":false}"#);
    }

    #[test]
    fn writer_number_format() {
        let text = |n: f64| {
            let mut out = String::new();
            Writer::new(&mut out).number(n);
            out
        };
        assert_eq!(text(0.0), "0");
        assert_eq!(text(-0.0), "0");
        assert_eq!(text(-17.0), "-17");
        assert_eq!(text(999_999_999_999_999.0), "999999999999999");
        assert_eq!(text(1e15), "1000000000000000");
        assert_eq!(text(1e21), "1000000000000000000000");
        assert_eq!(text(0.1), "0.1");
        assert_eq!(text(3.2708540109358397), "3.2708540109358397");
        assert_eq!(text(213.052934), "213.052934");
    }

    /// An integer past 2^53 has no `f64`; it is written and read exactly.
    #[test]
    fn integers_are_exact_past_2_pow_53() {
        let id = 0x9e37_79b9_7f4a_7c15_u64;
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.begin_array();
        w.int(id);
        w.int(i64::MIN);
        w.int(u64::MAX);
        w.number_or_null(None);
        w.number_or_null(Some(0.5));
        w.end_array();
        assert_eq!(out, format!("[{id},{},{},null,0.5]", i64::MIN, u64::MAX));
        let v = parse(&out).unwrap();
        assert_eq!(v.to_json(), out);
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(id));
        assert_eq!(items[0], Value::from(id));
        assert_eq!(items[1], Value::from(i64::MIN));
        assert_eq!(items[1].as_u64(), None);
        assert_eq!(items[2].as_u64(), Some(u64::MAX));
        // A fraction, an exponent or more digits than `i128` hold read as f64.
        assert_eq!(parse("2.0").unwrap(), Value::Number(2.0));
        assert_eq!(parse("2e0").unwrap(), Value::Number(2.0));
        assert_eq!(parse(&"9".repeat(40)).unwrap().as_f64(), Some(1e40));
        assert_eq!(parse("-0").unwrap(), Value::Int(0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "object keys must ascend")]
    fn writer_asserts_ascending_keys() {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.begin_object();
        w.key("b").null();
        w.key("a").null();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "object keys must ascend: 'a'")]
    fn writer_asserts_ascending_keys_after_a_nested_object_closes() {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.begin_object();
        w.key("m").begin_array();
        w.begin_object();
        w.key("z").null();
        w.end_object();
        w.end_array();
        w.key("a").null();
    }

    #[test]
    fn writer_key_order_is_per_object_and_ignores_escaped_keys() {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.begin_object();
        w.key("m").begin_object();
        w.key("z").null();
        w.end_object();
        // `"` sorts below `#` but its escape does not.
        w.key("n\"").null();
        w.key("n#").begin_array();
        w.begin_object();
        w.key("a").null();
        w.end_object();
        w.end_array();
        w.end_object();
        assert_eq!(out, r##"{"m":{"z":null},"n\"":null,"n#":[{"a":null}]}"##);
        assert_eq!(parse(&out).unwrap().to_json(), out);
    }

    /// Text a writer wrote, spliced as members or as a value, reads as if
    /// written in place.
    #[test]
    fn splice_places_members_and_values_with_the_comma_rule() {
        let mut run = String::new();
        let mut w = Writer::new(&mut run);
        w.begin_object();
        w.key("b").str("x,\"y\":");
        w.key("c").begin_array();
        w.begin_object();
        w.key("z").null();
        w.end_object();
        w.end_array();
        w.end_object();
        let members = &run[1..run.len() - 1];
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.begin_array();
        w.splice("7");
        w.begin_object();
        w.splice(members);
        w.key("d").splice("[1,2]");
        w.splice("");
        w.end_object();
        w.begin_object();
        w.key("a").int(1);
        w.splice(members);
        w.end_object();
        w.end_array();
        let expected = format!("[7,{{{members},\"d\":[1,2]}},{{\"a\":1,{members}}}]");
        assert_eq!(out, expected);
        assert_eq!(parse(&out).unwrap().to_json(), out);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "object keys must ascend: 'a'")]
    fn writer_asserts_ascending_keys_after_a_splice() {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.begin_object();
        w.splice(r#""b":{"z":1},"c":"\"a\":""#);
        w.key("a").null();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "object keys must ascend: 'b'")]
    fn writer_asserts_a_spliced_key_ascends() {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.begin_object();
        w.key("c").null();
        w.splice(r#""b":1"#);
    }

    #[test]
    fn reader_typed_reads_skip_other_types() {
        let doc = r#" {"n": 5, "s": "x", "b": true, "a": [1, {"k": [2]}], "o": {"p": null}} "#;
        // Asking every member for a number reads one and skips the rest.
        let mut r = Reader::new(doc);
        assert!(r.begin_object().unwrap());
        let mut numbers = Vec::new();
        while let Some(key) = r.next_key().unwrap() {
            numbers.push((key.into_owned(), r.f64().unwrap()));
        }
        r.end().unwrap();
        let want = [("n", Some(5.0)), ("s", None), ("b", None), ("a", None), ("o", None)];
        assert_eq!(numbers.len(), want.len());
        for ((key, n), (want_key, want_n)) in numbers.iter().zip(want) {
            assert_eq!((key.as_str(), *n), (want_key, want_n));
        }
        // A root of the wrong kind is skipped whole.
        let mut r = Reader::new(doc);
        assert!(!r.begin_array().unwrap());
        r.end().unwrap();
        let mut r = Reader::new("[true, \"x\", 1]");
        assert!(r.begin_array().unwrap());
        assert!(r.next_element().unwrap());
        assert_eq!(r.bool().unwrap(), Some(true));
        assert!(r.next_element().unwrap());
        assert_eq!(r.bool().unwrap(), None);
        assert!(r.next_element().unwrap());
        assert_eq!(r.str().unwrap(), None);
        assert!(!r.next_element().unwrap());
        r.end().unwrap();
    }

    #[test]
    fn reader_strings_borrow_unless_escaped() {
        let mut r = Reader::new(r#"["plain é😀", "tab\there", "\u00e9"]"#);
        assert!(r.begin_array().unwrap());
        assert!(r.next_element().unwrap());
        assert!(matches!(r.str().unwrap(), Some(Cow::Borrowed("plain é😀"))));
        assert!(r.next_element().unwrap());
        assert!(matches!(r.str().unwrap(), Some(Cow::Owned(s)) if s == "tab\there"));
        assert!(r.next_element().unwrap());
        assert_eq!(r.str().unwrap().as_deref(), Some("é"));
        assert!(!r.next_element().unwrap());
        r.end().unwrap();
    }

    #[test]
    fn reader_validates_what_it_skips() {
        for (doc, want) in [
            ("{\"a\":[1,]}", "unexpected ']' at byte 8"),
            ("{\"a\":1,}", "expected '\"' at byte 7, got '}'"),
            ("[1 2]", "expected ',' or ']', got '2'"),
            ("{\"a\" 1}", "expected ':' at byte 5, got '1'"),
            ("[nul]", "bad literal at byte 1"),
            ("[\"\\x\"]", "bad escape '\\x'"),
            ("[-]", "bad number '-'"),
            ("[] []", "trailing data at byte 3"),
        ] {
            let mut r = Reader::new(doc);
            let got = r.skip().and_then(|()| r.end());
            assert_eq!(got, Err(ProtoError::Malformed(want.to_string())), "{doc}");
            assert_eq!(parse(doc), Err(ProtoError::Malformed(want.to_string())), "{doc}");
        }
    }

    /// `skip` and `f64` over `text` alone, each ended: the scan-only path
    /// and the converting one.
    fn skip_and_read(text: &str) -> (Result<(), ProtoError>, Result<Option<f64>, ProtoError>) {
        let mut r = Reader::new(text);
        let skipped = r.skip().and_then(|()| r.end());
        let mut r = Reader::new(text);
        let read = r.f64().and_then(|n| r.end().map(|()| n));
        (skipped, read)
    }

    #[test]
    fn skip_accepts_exactly_the_numbers_parse_accepts() {
        for (text, accepted) in [
            ("-", false),
            ("1e", false),
            ("1e+", false),
            ("-.e3", false),
            ("-.", false),
            ("1.e", false),
            ("1.", true),
            ("-.5", true),
            ("00.5", true),
            ("1e99999", true),
            ("1.e5", true),
            ("-0", true),
            ("2E-3", true),
            ("1e+0", true),
            ("123456789012345678901234567890123456789012", true),
        ] {
            let (skipped, read) = skip_and_read(text);
            assert_eq!(text.parse::<f64>().is_ok(), accepted, "{text}: str::parse");
            assert_eq!(skipped.is_ok(), accepted, "{text}: skip");
            match read {
                // A bare integer reads exact, so `-0` is `0`: compare values.
                Ok(n) => assert_eq!(n, text.parse::<f64>().ok(), "{text}: f64"),
                Err(e) => {
                    assert_eq!(Err(e.clone()), skipped, "{text}: skip and f64 disagree");
                    assert_eq!(e, bad_number(text));
                }
            }
        }
        // Every string over the scanner's alphabet up to six bytes long:
        // the scan-only path, the converting one and `str::parse` agree.
        let alphabet = b"-01.eE+";
        for len in 1..=6u32 {
            for mut code in 0..7usize.pow(len) {
                let mut text = String::new();
                for _ in 0..len {
                    text.push(alphabet[code % 7] as char);
                    code /= 7;
                }
                if !matches!(text.as_bytes()[0], b'-' | b'0' | b'1') {
                    continue;
                }
                let (skipped, read) = skip_and_read(&text);
                assert_eq!(skipped, read.as_ref().map(drop).map_err(Clone::clone), "{text}");
                assert_eq!(skipped.is_ok(), text.parse::<f64>().is_ok(), "{text}");
            }
        }
    }

    #[test]
    fn escape_finds_a_special_byte_at_every_offset() {
        let specials = [
            ('"', "\\\""),
            ('\\', "\\\\"),
            ('\n', "\\n"),
            ('\r', "\\r"),
            ('\t', "\\t"),
            ('\0', "\\u0000"),
            ('\u{1f}', "\\u001f"),
        ];
        for filler in ["x", "é"] {
            for (c, escaped) in specials {
                for offset in 0..=24 {
                    let (head, tail) = (filler.repeat(offset), filler.repeat(30 - offset));
                    let text = format!("{head}{c}{tail}");
                    let mut out = String::new();
                    Writer::new(&mut out).str(&text);
                    assert_eq!(out, format!("\"{head}{escaped}{tail}\""), "{filler} {offset}");
                    assert_eq!(parse(&out), Ok(Value::String(text)), "{filler} {offset}");
                }
            }
        }
        // A string written in parts is the string written whole, wherever
        // the cut falls.
        let text = "a\"é\\\n\u{1f} plain text 😀 of some length\t";
        let mut whole = String::new();
        Writer::new(&mut whole).str(text);
        for cut in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
            let mut out = String::new();
            Writer::new(&mut out).str_parts([&text[..cut], "", &text[cut..]]);
            assert_eq!(out, whole, "cut at {cut}");
        }
        // Bytes next to the specials, and the multi-byte ones, pass plain.
        let plain = "\u{20}!#[]\u{7f}\u{80}ÿ😀 plain text of some length";
        let mut out = String::new();
        Writer::new(&mut out).str(plain);
        assert_eq!(out, format!("\"{plain}\""));
    }
}
