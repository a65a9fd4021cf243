//! The workspace's one JSON reader and writer.
//!
//! The tree has no serde (hermetic build, vendored shims only). Bench
//! records and metric snapshots are built as [`Json`] values and written
//! by [`Json::render`]; the perf gate reads them back with [`parse`], a
//! small recursive-descent parser over the full JSON grammar — objects,
//! arrays, strings with the standard escapes, numbers, booleans, null.
//! Escaping, the spelling of numbers and the layout are decided here and
//! nowhere else: a writer that streams a fixed schema (the driver
//! manifest) spells its keys with [`json_key!`](crate::json_key), its
//! values with [`quote`], [`push_uint`], [`push_hex`] and [`push_num`],
//! and lays its members out as [`Json::render`] does. The
//! reader fails closed: nesting past [`MAX_DEPTH`], a lone surrogate and
//! a number that overflows to infinity are errors.

use std::fmt::Write;

/// How deep [`parse`] lets containers nest (a bench record nests 4
/// deep); deeper input is an error, not a stack overflow.
pub const MAX_DEPTH: usize = 64;

/// An owned JSON value. Object member order is preserved (the bench
/// records are deterministic, so order carries meaning in diffs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// The document's text, laid out so a diff of two documents reads
    /// line by line: an object's members go one per line, an array of
    /// objects (a top-level member, or the document) one element per
    /// line, and everything deeper inline with `", "` and `": "`. Keys
    /// and strings are escaped, members keep their order, finite
    /// numbers take Rust's shortest round-trip form (`40`, `12.381`) and
    /// non-finite ones `null`. The text ends with a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// `self` at `depth` (0 is the document): an object at depth 0, and
    /// an array of objects at depth 0 or 1, put each member on its own
    /// line; everything else is inline.
    fn write(&self, out: &mut String, depth: usize) {
        let lines = match self {
            Json::Obj(_) => depth == 0,
            Json::Arr(a) => depth < 2 && !a.is_empty() && a.iter().all(|v| v.as_obj().is_some()),
            _ => false,
        };
        // What goes between members and before each one; the closing
        // bracket sits two spaces left of the members.
        let (sep, pad) = if lines {
            (",", &"\n    "[..3 + 2 * depth])
        } else {
            (", ", "")
        };
        let close = &pad[..pad.len().saturating_sub(2)];
        let inner = if lines { depth + 1 } else { 2 };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => push_num(out, *n),
            Json::Str(s) => quote(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    out.push_str(if i > 0 { sep } else { "" });
                    out.push_str(pad);
                    v.write(out, inner);
                }
                out.push_str(close);
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(if i > 0 { sep } else { "" });
                    out.push_str(pad);
                    quote(out, k);
                    out.push_str(": ");
                    v.write(out, inner);
                }
                out.push_str(close);
                out.push('}');
            }
        }
    }
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Append `s` as a JSON string literal: quote, backslash and control
/// characters escaped (`\u00XX` where JSON has no short form),
/// everything else as is. Everything it escapes is ASCII, so the runs
/// between escapes are copied whole.
#[inline]
pub fn quote(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    while let Some(at) = (rest.bytes()).position(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(&rest[..at]);
        let b = rest.as_bytes()[at];
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xF)] as char);
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// `true` when JSON spells `s` between quotes as is: no quote,
/// backslash or control character in it. The compile-time check behind
/// [`json_key!`](crate::json_key).
pub const fn is_plain(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i] < 0x20 || b[i] == b'"' || b[i] == b'\\' {
            return false;
        }
        i += 1;
    }
    true
}

/// The literal `$sep`, then the member key `$k` as [`quote`] writes it,
/// then `: `, spelled at compile time: the start of a member for a
/// writer that streams a fixed schema. A key that would need an escape
/// fails to compile.
///
/// ```
/// assert_eq!(opendesc_telemetry::json_key!(", ", "nic"), r#", "nic": "#);
/// ```
///
/// ```compile_fail
/// let _ = opendesc_telemetry::json_key!(", ", "a\"b");
/// ```
///
/// [`quote`]: crate::json::quote
#[macro_export]
macro_rules! json_key {
    ($sep:literal, $k:literal) => {{
        const _: () = assert!($crate::json::is_plain($k), "a key JSON must escape");
        concat!($sep, '"', $k, '"', ": ")
    }};
}

/// Append `v` in decimal, as `{}` prints it, without going through
/// `core::fmt`: the integral numbers of [`Json::render`], and the
/// decimal strings a document holds an integer in when it may pass 2^53.
pub fn push_uint(out: &mut String, v: impl Into<u128>) {
    let mut v: u128 = v.into();
    let mut digits = [0u8; 39];
    let mut at = digits.len();
    // Only a value past 2^64 pays for 128-bit division.
    while v > u128::from(u64::MAX) {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    let mut w = v as u64;
    loop {
        at -= 1;
        digits[at] = b'0' + (w % 10) as u8;
        w /= 10;
        if w == 0 {
            break;
        }
    }
    digits[at..].iter().for_each(|&d| out.push(d as char));
}

/// Append `v` as `0x` and sixteen lowercase hex digits (`{v:#018x}`):
/// how a document spells a 64-bit digest, inside a string.
#[inline]
pub fn push_hex(out: &mut String, v: u64) {
    out.push_str("0x");
    for nibble in (0..16).rev() {
        out.push(HEX[(v >> (4 * nibble)) as usize & 0xF] as char);
    }
}

/// Append the number `n` as [`Json::render`] writes it: a finite number
/// in Rust's shortest round-trip form (integers below 2^53 through
/// [`push_uint`]), a non-finite one as `null`.
pub fn push_num(out: &mut String, n: f64) {
    const EXACT: f64 = (1u64 << 53) as f64;
    if n.fract() == 0.0 && n.abs() < EXACT && !(n == 0.0 && n.is_sign_negative()) {
        if n < 0.0 {
            out.push('-');
        }
        push_uint(out, n.abs() as u64);
    } else if n.is_finite() {
        write!(out, "{n}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// Parse a JSON document. Errors carry the byte offset they tripped at.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        src,
        b: src.as_bytes(),
        i: 0,
        depth: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing input at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    b: &'a [u8],
    i: usize,
    /// Containers open around the cursor.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() != Some(c) {
            return Err(format!("expected {:?} at byte {}", c as char, self.i));
        }
        self.i += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.container(b'}'),
            Some(b'[') => self.container(b']'),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(char::from),
                self.i
            )),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    /// The object or array the cursor opens, up to its `close`; one
    /// that would nest deeper than [`MAX_DEPTH`] is an error.
    fn container(&mut self, close: u8) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.i
            ));
        }
        self.depth += 1;
        self.i += 1;
        let (mut members, mut items) = (Vec::new(), Vec::new());
        self.ws();
        if self.peek() != Some(close) {
            loop {
                self.ws();
                if close == b'}' {
                    let key = self.string()?;
                    self.ws();
                    self.expect(b':')?;
                    self.ws();
                    members.push((key, self.value()?));
                } else {
                    items.push(self.value()?);
                }
                self.ws();
                if self.peek() != Some(b',') {
                    break;
                }
                self.i += 1;
            }
        }
        self.expect(close)?;
        self.depth -= 1;
        Ok(match close {
            b'}' => Json::Obj(members),
            _ => Json::Arr(items),
        })
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the run up to the next quote or backslash as one
            // slice: both are ASCII, so the run ends on a char boundary.
            let rest = &self.b[self.i..];
            let run = rest
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .ok_or("unterminated string")?;
            s.push_str(&self.src[self.i..self.i + run]);
            self.i += run + 1;
            if rest[run] == b'"' {
                return Ok(s);
            }
            let esc = self.peek().ok_or("unterminated string")?;
            self.i += 1;
            match esc {
                b'"' => s.push('"'),
                b'\\' => s.push('\\'),
                b'/' => s.push('/'),
                b'n' => s.push('\n'),
                b't' => s.push('\t'),
                b'r' => s.push('\r'),
                b'b' => s.push('\u{8}'),
                b'f' => s.push('\u{c}'),
                b'u' => s.push(self.unicode()?),
                other => return Err(format!("bad escape {:?} at byte {}", other as char, self.i)),
            }
        }
    }

    /// The character after `\u`: four hex digits, or a high surrogate
    /// and the `\u`-escaped low surrogate that completes it.
    fn unicode(&mut self) -> Result<char, String> {
        let at = self.i;
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.b[self.i..].starts_with(b"\\u") {
            self.i += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(format!("lone surrogate at byte {at}"));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| format!("lone surrogate at byte {at}"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.src.get(self.i..self.i + 4);
        let hex = hex.filter(|h| h.bytes().all(|c| c.is_ascii_hexdigit()));
        let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
        self.i += 4;
        code.ok_or_else(|| format!("bad \\u escape at byte {}", self.i - 4))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        let rest = self.b[start..].iter();
        self.i += rest
            .take_while(|c| c.is_ascii_digit() || b".eE+-".contains(c))
            .count();
        match self.src[start..self.i].parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(format!("number out of range at byte {start}")),
            Err(_) => Err(format!("bad number at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bench_record_shape() {
        let doc = r#"{
  "experiment": "e13_sharded_rx",
  "rows": [
    {"model": "e1000e", "queues": 1, "mpps": 13.05},
    {"model": "e1000e", "queues": 4, "mpps": 39.9}
  ],
  "scaling_4q_vs_1q_e1000e": 3.05
}
"#;
        let j = parse(doc).unwrap();
        assert_eq!(
            j.get("experiment").and_then(Json::as_str),
            Some("e13_sharded_rx")
        );
        let rows = j.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("mpps").and_then(Json::as_f64), Some(39.9));
        assert_eq!(
            j.get("scaling_4q_vs_1q_e1000e").and_then(Json::as_f64),
            Some(3.05)
        );
        // The record layout is the writer's: rendering reproduces it.
        assert_eq!(j.render(), doc);
    }

    #[test]
    fn parses_scalars_escapes_and_rejects_garbage() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(parse(r#""a\n\"bA""#).unwrap(), Json::Str("a\n\"bA".into()));
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse(r#""\x""#).is_err());
        assert!(parse(r#""\u12g4""#).is_err());
        assert!(parse("\"\\u+12a\"").is_err());
        assert!(parse(r#""\u12"#).is_err());
    }

    #[test]
    fn renders_numbers_shortest_and_non_finite_as_null() {
        let nums = [40.0, 12.381, -0.5, 1e-7, 1e21, f64::NAN, f64::INFINITY];
        let doc = Json::Arr(nums.map(Json::Num).to_vec());
        assert_eq!(
            doc.render(),
            "[40, 12.381, -0.5, 0.0000001, 1000000000000000000000, null, null]\n"
        );
    }

    /// The integer and digest writers print what `core::fmt` prints, and
    /// a number is spelled as Rust's shortest round-trip form.
    #[test]
    fn number_writers_print_what_fmt_prints() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut values = vec![0, 1, 9, 10, 99, 100, u64::MAX as u128, 1 << 64, u128::MAX];
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            values.extend([x as u128 >> (x % 64), (x as u128) << 64 | x as u128]);
        }
        for v in values {
            let mut s = String::new();
            push_uint(&mut s, v);
            assert_eq!(s, v.to_string());
            let h = v as u64;
            s.clear();
            push_hex(&mut s, h);
            assert_eq!(s, format!("0x{h:016x}"));
            for n in [
                h as f64,
                -(h as f64),
                (h >> 11) as f64,
                -((h >> 11) as f64),
                h as f64 / 7.0,
            ] {
                s.clear();
                push_num(&mut s, n);
                assert_eq!(s, n.to_string());
            }
        }
        for n in [
            0.0,
            -0.0,
            9007199254740992.0,
            -9007199254740993.0,
            0.15,
            1e-300,
        ] {
            let mut s = String::new();
            push_num(&mut s, n);
            assert_eq!(s, n.to_string());
        }
    }

    #[test]
    fn renders_escaped_strings_and_keys() {
        let doc = Json::Obj(vec![("k\"\\\n".into(), Json::Str("\u{1}\té😀".into()))]);
        assert_eq!(
            doc.render(),
            "{\n  \"k\\\"\\\\\\n\": \"\\u0001\\té😀\"\n}\n"
        );
        assert_eq!(parse(&doc.render()).unwrap(), doc);
        assert_eq!(Json::Obj(vec![]).render(), "{\n}\n");
    }

    /// The reader is linear in a string's length: one run, one copy.
    #[test]
    fn a_one_mib_string_round_trips() {
        let s: String = "abcdé\"\\\n".chars().cycle().take(1 << 20).collect();
        let doc = Json::Arr(vec![Json::Str(s)]);
        assert_eq!(parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn nesting_past_max_depth_is_an_error() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        assert!(parse(&"[".repeat(10_000)).is_err());
        assert!(parse(&"{\"a\": ".repeat(10_000)).is_err());
    }

    #[test]
    fn surrogates_pair_or_fail() {
        // `escaped("D83D DE00")` is the string literal of two `\u` escapes.
        let escaped = |hex: &str| {
            let units: String = hex.split(' ').map(|h| format!("\\u{h}")).collect();
            parse(&format!("\"{units}\""))
        };
        assert_eq!(escaped("D83D DE00"), Ok(Json::Str("\u{1F600}".into())));
        assert_eq!(escaped("00e9 00E9"), Ok(Json::Str("\u{e9}\u{e9}".into())));
        for lone in ["D83D", "DE00", "D83D 0041", "DE00 D83D", "D83D D83D"] {
            assert!(escaped(lone).is_err(), "{lone}");
        }
        assert!(parse("\"\\uD83Dx\"").is_err());
    }

    #[test]
    fn numbers_that_overflow_fail() {
        for big in ["1e400", "-1e400", "[1e999]"] {
            assert!(parse(big).unwrap_err().contains("out of range"), "{big}");
        }
        assert_eq!(parse("1e-400").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn snapshot_json_round_trips_through_the_parser() {
        use crate::{Hist, MetricRegistry};
        let mut reg = MetricRegistry::new();
        reg.counter("a.packets", 41);
        reg.gauge("a.ratio", 0.97);
        let mut h = Hist::new();
        h.record(7);
        reg.hist("a.lat", &h);
        let json = reg.snapshot().to_json();
        let doc = parse(&json).expect("snapshot JSON parses");
        assert_eq!(doc.get("a.packets").and_then(Json::as_f64), Some(41.0));
        assert_eq!(doc.get("a.ratio").and_then(Json::as_f64), Some(0.97));
        let hist = doc.get("a.lat").unwrap();
        assert_eq!(hist.get("count").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.render(), json);
    }
}
