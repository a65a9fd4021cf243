//! Versioned driver manifests: the machine-readable contract of a
//! compiled interface — identity, the negotiated completion layout, the
//! context writes the driver must program over the control channel, the
//! accessor table, and content digests of the executable artifacts
//! (shim plan, ODBC plan bytecode). This is the artifact a non-Rust
//! driver (or a DPDK hook, per §4's future-work note) would consume to
//! wire itself up without understanding P4.
//!
//! The format is a line-oriented TOML subset with a hand-written,
//! schema-checked parser: [`ManifestV1::parse`] accepts exactly what
//! [`ManifestV1::render`] emits, and `generate → parse → render` is
//! byte-stable (proven by `tests/manifest_roundtrip.rs`). Three
//! ambiguities of the pre-v1 dump are fixed here:
//!
//! * string values are escaped (quotes, backslashes, newlines survive);
//! * software costs are machine-parseable fields (`cost_base_ns` /
//!   `cost_per_byte_ns`, or `cost = "infinite"`) instead of the human
//!   `Display` rendering ("∞", "10ns + 0.15ns/B");
//! * an empty context assignment and an opaque guard are distinguished
//!   by an explicit `mode` key (`"programmed"` vs `"manual"`) instead
//!   of two comment strings.
//!
//! A manifest built from an artifact borrows its text from it, so
//! rendering copies each name once, into the output; a parsed manifest
//! owns its text.

use crate::accessor::AccessorKind;
use crate::cache::CompiledRx;
use crate::compiler::CompiledInterface;
use opendesc_ir::semantics::Cost;
use std::borrow::Cow;
use std::fmt::{self, Write};

/// Manifest schema version emitted by [`ManifestV1::render`].
pub const MANIFEST_VERSION: u64 = 1;

/// FNV-1a over a byte string — the digest primitive for manifest
/// content hashes (same constants as `SemanticRegistry::fingerprint`).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How the NIC is steered onto the selected layout.
#[derive(Debug, Clone, PartialEq)]
pub enum ContextProgramming<'a> {
    /// The driver programs these context writes over the control
    /// channel. An empty list means the path is unconditional — nothing
    /// to program, but fully automatic.
    Programmed(Vec<(Cow<'a, str>, u128)>),
    /// The winning path's guard is opaque: the device must be
    /// configured by hand before the layout is live.
    Manual,
}

/// One field slot of the negotiated completion layout.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestSlot<'a> {
    /// Qualified name within the layout, e.g. `ip_fields.csum`.
    pub name: Cow<'a, str>,
    /// Dotted source in the contract, e.g. `pipe_meta.ip_fields`.
    pub source: Cow<'a, str>,
    /// Semantic name; `None` for padding/tag fields.
    pub semantic: Option<Cow<'a, str>>,
    pub offset_bits: u32,
    pub width_bits: u16,
}

/// Software-emulation cost, machine-parseable.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestCost {
    Finite { base_ns: f64, per_byte_ns: f64 },
    Infinite,
}

impl From<Cost> for ManifestCost {
    fn from(c: Cost) -> Self {
        match c {
            Cost::Finite {
                base_ns,
                per_byte_ns,
            } => ManifestCost::Finite {
                base_ns,
                per_byte_ns,
            },
            Cost::Infinite => ManifestCost::Infinite,
        }
    }
}

/// Kind-specific accessor payload.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestAccessorKind {
    /// Constant-time completion read.
    Hardware { offset_bits: u32 },
    /// SoftNIC shim recomputing the value from frame bytes.
    Software { cost: ManifestCost },
}

/// One entry of the accessor table.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestAccessor<'a> {
    pub name: Cow<'a, str>,
    pub semantic: Cow<'a, str>,
    pub width_bits: u16,
    pub kind: ManifestAccessorKind,
}

/// The versioned, machine-readable contract of one negotiated
/// (NIC, intent, layout) triple.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestV1<'a> {
    pub nic: Cow<'a, str>,
    pub intent: Cow<'a, str>,
    /// `SemanticRegistry::fingerprint()` of the registry the interface
    /// was compiled with — consumers must not assume semantic names
    /// mean the same thing across registries.
    pub registry_fingerprint: u64,
    pub completion_bytes: u32,
    pub selected_path: u64,
    pub paths_considered: u64,
    /// Human-readable guard of the selected path.
    pub guard: Cow<'a, str>,
    /// Selected layout size in bits.
    pub layout_bits: u32,
    /// FNV-1a digest of the compiled shim plan (step streams).
    pub shim_plan_digest: u64,
    /// FNV-1a digest of the encoded ODBC plan bytecode; `None` when the
    /// plan does not lower (the verifier refused a window program).
    pub odbc_bytecode: Option<u64>,
    pub context: ContextProgramming<'a>,
    pub slots: Vec<ManifestSlot<'a>>,
    pub accessors: Vec<ManifestAccessor<'a>>,
}

/// A schema or syntax error while parsing a manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestError {
    /// 1-based line of the offending input (0 for end-of-input errors).
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "manifest line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ManifestError {}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

/// Append `s` escaped for a quoted TOML value: backslash, quote, and
/// the common control characters. Everything it escapes is ASCII, so
/// the runs between escapes are copied whole.
fn escape(out: &mut String, s: &str) {
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'\\' => Some("\\\\"),
            b'"' => Some("\\\""),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            b if b < 0x20 => None,
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        match escaped {
            Some(e) => out.push_str(e),
            None => {
                let _ = write!(out, "\\u{{{b:04x}}}");
            }
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
}

/// Append one `<key> = "<escaped value>"` line. A quoted key (context
/// writes) is escaped the same way.
fn quoted_line(out: &mut String, key: &str, value: &str) {
    out.push_str(key);
    out.push_str(" = \"");
    escape(out, value);
    out.push_str("\"\n");
}

/// Append `v` in decimal. Integers are most of a manifest's numbers, and
/// this is what `{}` prints, without going through `core::fmt`.
fn push_dec(out: &mut String, v: impl Into<u128>) {
    let mut v: u128 = v.into();
    let mut digits = [0u8; 39];
    let mut at = digits.len();
    // Only a context value past 2^64 pays for 128-bit division.
    while v > u64::MAX as u128 {
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

/// Append `v` as `0x` and sixteen lowercase hex digits: `{v:#018x}`.
fn push_hex(out: &mut String, v: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push_str("0x");
    for nibble in (0..16).rev() {
        out.push(HEX[(v >> (4 * nibble)) as usize & 0xF] as char);
    }
}

/// Append one `<key> = <decimal>` line.
fn int_line(out: &mut String, key: &str, v: impl Into<u128>) {
    out.push_str(key);
    out.push_str(" = ");
    push_dec(out, v);
    out.push('\n');
}

/// Append one `<key> = "0x…"` digest line.
fn hex_line(out: &mut String, key: &str, v: u64) {
    out.push_str(key);
    out.push_str(" = \"");
    push_hex(out, v);
    out.push_str("\"\n");
}

/// Inverse of [`escape`]: one pass, runs between escapes copied whole.
fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        let esc = &rest[at + 1..];
        let (c, len) = match esc.as_bytes().first() {
            Some(b'\\') => ('\\', 1),
            Some(b'"') => ('"', 1),
            Some(b'n') => ('\n', 1),
            Some(b'r') => ('\r', 1),
            Some(b't') => ('\t', 1),
            Some(b'u') => {
                // `u{hex}`: the braces are found in place, so each
                // escape costs its own length.
                let hex = esc[1..]
                    .strip_prefix('{')
                    .and_then(|r| r.find('}').map(|close| &r[..close]))
                    .ok_or("malformed \\u escape")?;
                let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u codepoint")?;
                let c = char::from_u32(cp).ok_or("invalid \\u codepoint")?;
                (c, hex.len() + 3)
            }
            _ => {
                let other = esc.chars().next().unwrap_or(' ');
                return Err(format!("unknown escape \\{other}"));
            }
        };
        out.push(c);
        rest = &esc[len..];
    }
    out.push_str(rest);
    Ok(out)
}

impl<'a> ManifestV1<'a> {
    /// Build the manifest of a compiled artifact, borrowing its names.
    /// Digests are taken over the artifact's own executable forms: the
    /// shim plan's step streams, and the encoded ODBC bytecode `rx`
    /// lowered and verified when it was built (`None` iff it has a
    /// `lowering_error`).
    pub fn from_compiled(rx: &'a CompiledRx) -> ManifestV1<'a> {
        let c = rx.interface();
        let mut plan_bytes = Vec::with_capacity(
            4 * c.plan.hw.len()
                + 3
                + 6 * (c.plan.sw.len() + c.plan.hw_check.len() + c.plan.degraded.len()),
        );
        for &i in &c.plan.hw {
            plan_bytes.extend_from_slice(&(i as u32).to_le_bytes());
        }
        for stream in [&c.plan.sw, &c.plan.hw_check, &c.plan.degraded] {
            plan_bytes.push(0xFF);
            for &(i, sop) in stream {
                plan_bytes.extend_from_slice(&(i as u32).to_le_bytes());
                plan_bytes.extend_from_slice(&crate::vm::shim_code(sop).to_le_bytes());
            }
        }
        let context = match &c.context {
            Some(ctx) => ContextProgramming::Programmed(
                (ctx.iter())
                    .map(|(f, v)| (Cow::Borrowed(f.dotted()), *v))
                    .collect(),
            ),
            None => ContextProgramming::Manual,
        };
        ManifestV1 {
            nic: Cow::Borrowed(&c.nic_name),
            intent: Cow::Borrowed(&c.intent.name),
            registry_fingerprint: c.reg.fingerprint(),
            completion_bytes: c.accessors.completion_bytes,
            selected_path: c.path.id as u64,
            paths_considered: c.paths_considered as u64,
            guard: Cow::Owned(c.path.guard_str()),
            layout_bits: c.path.size_bits,
            shim_plan_digest: fnv64(&plan_bytes),
            odbc_bytecode: rx.lowered().map(|l| l.prog.digest()),
            context,
            slots: c
                .path
                .slots
                .iter()
                .map(|s| ManifestSlot {
                    name: Cow::Borrowed(&s.name),
                    source: Cow::Borrowed(&s.source),
                    semantic: s.semantic.map(|id| Cow::Borrowed(c.reg.name(id))),
                    offset_bits: s.offset_bits,
                    width_bits: s.width_bits,
                })
                .collect(),
            accessors: c
                .accessors
                .accessors
                .iter()
                .map(|a| {
                    let info = c.reg.info(a.semantic);
                    ManifestAccessor {
                        name: Cow::Borrowed(&a.name),
                        semantic: Cow::Borrowed(&info.name),
                        width_bits: a.width_bits,
                        kind: match a.kind {
                            AccessorKind::Hardware => ManifestAccessorKind::Hardware {
                                offset_bits: a.offset_bits,
                            },
                            AccessorKind::Software => ManifestAccessorKind::Software {
                                cost: info.cost.into(),
                            },
                        },
                    }
                })
                .collect(),
        }
    }

    /// An upper estimate of [`render`](ManifestV1::render)'s output
    /// length (exact but for escapes and the widths of numbers), so the
    /// text is written into one allocation.
    fn rendered_len_hint(&self) -> usize {
        let ctx = match &self.context {
            ContextProgramming::Programmed(w) => w.iter().map(|(k, _)| k.len() + 48).sum(),
            ContextProgramming::Manual => 0,
        };
        let slots: usize = self
            .slots
            .iter()
            .map(|s| {
                96 + s.name.len() + s.source.len() + s.semantic.as_ref().map_or(0, |x| x.len())
            })
            .sum();
        let accessors: usize = self
            .accessors
            .iter()
            .map(|a| 128 + a.name.len() + a.semantic.len())
            .sum();
        448 + self.nic.len() + self.intent.len() + self.guard.len() + ctx + slots + accessors
    }

    /// Render the canonical textual form. Byte-deterministic: the same
    /// struct always renders the same string.
    pub fn render(&self) -> String {
        let mut o = String::with_capacity(self.rendered_len_hint());
        self.write_to(&mut o)
            .expect("writing to a String cannot fail");
        o
    }

    /// Integers and digests are written directly; only the two float
    /// cost lines go through `core::fmt`, for shortest-roundtrip output.
    fn write_to(&self, o: &mut String) -> fmt::Result {
        o.push_str("# OpenDesc interface manifest — generated; do not edit.\n");
        o.push_str("[manifest]\n");
        int_line(o, "version", MANIFEST_VERSION);
        o.push('\n');

        o.push_str("[interface]\n");
        quoted_line(o, "nic", &self.nic);
        quoted_line(o, "intent", &self.intent);
        hex_line(o, "registry_fingerprint", self.registry_fingerprint);
        int_line(o, "completion_bytes", self.completion_bytes);
        int_line(o, "selected_path", self.selected_path);
        int_line(o, "paths_considered", self.paths_considered);
        quoted_line(o, "guard", &self.guard);
        int_line(o, "layout_bits", self.layout_bits);
        o.push('\n');

        o.push_str("[digests]\n");
        hex_line(o, "shim_plan", self.shim_plan_digest);
        match self.odbc_bytecode {
            Some(h) => hex_line(o, "odbc_bytecode", h),
            None => o.push_str("odbc_bytecode = \"unlowerable\"\n"),
        }
        o.push('\n');

        o.push_str("[context]\n");
        match &self.context {
            ContextProgramming::Programmed(writes) => {
                o.push_str("mode = \"programmed\"\n");
                for (k, v) in writes {
                    o.push('"');
                    escape(o, k);
                    o.push_str("\" = ");
                    push_dec(o, *v);
                    o.push('\n');
                }
            }
            ContextProgramming::Manual => o.push_str("mode = \"manual\"\n"),
        }
        o.push('\n');

        for s in &self.slots {
            o.push_str("[[slot]]\n");
            quoted_line(o, "name", &s.name);
            quoted_line(o, "source", &s.source);
            if let Some(sem) = &s.semantic {
                quoted_line(o, "semantic", sem);
            }
            int_line(o, "offset_bits", s.offset_bits);
            int_line(o, "width_bits", s.width_bits);
            o.push('\n');
        }

        for a in &self.accessors {
            o.push_str("[[accessor]]\n");
            quoted_line(o, "name", &a.name);
            quoted_line(o, "semantic", &a.semantic);
            match &a.kind {
                ManifestAccessorKind::Hardware { offset_bits } => {
                    o.push_str("kind = \"hardware\"\n");
                    int_line(o, "offset_bits", *offset_bits);
                    int_line(o, "width_bits", a.width_bits);
                    o.push('\n');
                }
                ManifestAccessorKind::Software { cost } => {
                    o.push_str("kind = \"softnic\"\n");
                    int_line(o, "width_bits", a.width_bits);
                    match cost {
                        ManifestCost::Finite {
                            base_ns,
                            per_byte_ns,
                        } => {
                            writeln!(o, "cost_base_ns = {base_ns}")?;
                            write!(o, "cost_per_byte_ns = {per_byte_ns}\n\n")?;
                        }
                        ManifestCost::Infinite => o.push_str("cost = \"infinite\"\n\n"),
                    }
                }
            }
        }
        Ok(())
    }
}

impl ManifestV1<'static> {
    /// Parse a manifest rendered by [`render`](ManifestV1::render).
    /// Schema-checked: unknown sections or keys, missing required keys,
    /// duplicate keys, and type mismatches are all errors.
    pub fn parse(src: &str) -> Result<ManifestV1<'static>, ManifestError> {
        Parser::new(src).parse()
    }
}

/// Render the manifest of a bare compiled interface: builds the
/// artifact a driver would attach (which lowers and verifies the plan,
/// the only place that happens) and renders that. A caller that already
/// holds the [`CompiledRx`] calls [`CompiledRx::manifest`].
pub fn generate(c: &CompiledInterface) -> String {
    CompiledRx::new(c.clone()).manifest()
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Section {
    None,
    Manifest,
    Interface,
    Digests,
    Context,
    Slot,
    Accessor,
}

/// A parsed `key = value` right-hand side.
enum Value {
    Str(String),
    Int(u128),
    Float(f64),
}

struct Parser<'a> {
    lines: Vec<(usize, &'a str)>,
    pos: usize,
}

/// Field accumulator for one section instance: collected `(key, value,
/// line)` triples, checked for duplicates on insert.
#[derive(Default)]
struct Fields {
    entries: Vec<(String, Value, usize)>,
}

impl Fields {
    fn insert(&mut self, key: String, value: Value, line: usize) -> Result<(), ManifestError> {
        if self.entries.iter().any(|(k, _, _)| *k == key) {
            return Err(ManifestError {
                line,
                msg: format!("duplicate key `{key}`"),
            });
        }
        self.entries.push((key, value, line));
        Ok(())
    }

    fn take(&mut self, key: &str) -> Option<(Value, usize)> {
        let idx = self.entries.iter().position(|(k, _, _)| k == key)?;
        let (_, v, l) = self.entries.remove(idx);
        Some((v, l))
    }

    fn str(&mut self, key: &str, at: usize) -> Result<String, ManifestError> {
        match self.take(key) {
            Some((Value::Str(s), _)) => Ok(s),
            Some((_, l)) => Err(ManifestError {
                line: l,
                msg: format!("`{key}` must be a string"),
            }),
            None => Err(ManifestError {
                line: at,
                msg: format!("missing required key `{key}`"),
            }),
        }
    }

    fn int(&mut self, key: &str, at: usize) -> Result<u128, ManifestError> {
        match self.take(key) {
            Some((Value::Int(v), _)) => Ok(v),
            Some((_, l)) => Err(ManifestError {
                line: l,
                msg: format!("`{key}` must be an integer"),
            }),
            None => Err(ManifestError {
                line: at,
                msg: format!("missing required key `{key}`"),
            }),
        }
    }

    fn float(&mut self, key: &str, at: usize) -> Result<f64, ManifestError> {
        match self.take(key) {
            Some((Value::Float(v), _)) => Ok(v),
            Some((Value::Int(v), _)) => Ok(v as f64),
            Some((_, l)) => Err(ManifestError {
                line: l,
                msg: format!("`{key}` must be a number"),
            }),
            None => Err(ManifestError {
                line: at,
                msg: format!("missing required key `{key}`"),
            }),
        }
    }

    /// A `"0x…"` hex digest string.
    fn hex(&mut self, key: &str, at: usize) -> Result<u64, ManifestError> {
        let s = self.str(key, at)?;
        parse_hex64(&s).ok_or(ManifestError {
            line: at,
            msg: format!("`{key}` must be a \"0x…\" digest"),
        })
    }

    fn reject_unknown(&self, what: &str) -> Result<(), ManifestError> {
        if let Some((k, _, l)) = self.entries.first() {
            return Err(ManifestError {
                line: *l,
                msg: format!("unknown key `{k}` in {what}"),
            });
        }
        Ok(())
    }
}

fn parse_hex64(s: &str) -> Option<u64> {
    let digits = s.strip_prefix("0x")?;
    if digits.len() != 16 {
        return None;
    }
    u64::from_str_radix(digits, 16).ok()
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        let lines = src
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
            .collect();
        Parser { lines, pos: 0 }
    }

    fn peek(&self) -> Option<(usize, &'a str)> {
        self.lines.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<(usize, &'a str)> {
        let l = self.peek();
        if l.is_some() {
            self.pos += 1;
        }
        l
    }

    /// Parse one `key = value` line. Keys are bare identifiers or
    /// quoted strings; values are quoted strings, integers, or floats.
    fn kv(line: usize, text: &str) -> Result<(String, Value), ManifestError> {
        let err = |msg: &str| ManifestError {
            line,
            msg: msg.to_string(),
        };
        let (raw_key, raw_val) = split_eq(text).ok_or_else(|| err("expected `key = value`"))?;
        let key = if let Some(q) = parse_quoted(raw_key) {
            unescape(q).map_err(|m| err(&m))?
        } else if is_bare_key(raw_key) {
            raw_key.to_string()
        } else {
            return Err(err(&format!("malformed key `{raw_key}`")));
        };
        let value = if let Some(q) = parse_quoted(raw_val) {
            Value::Str(unescape(q).map_err(|m| err(&m))?)
        } else if let Ok(v) = raw_val.parse::<u128>() {
            Value::Int(v)
        } else if let Ok(v) = raw_val.parse::<f64>() {
            if !v.is_finite() {
                return Err(err("non-finite number"));
            }
            Value::Float(v)
        } else {
            return Err(err(&format!("malformed value `{raw_val}`")));
        };
        Ok((key, value))
    }

    /// Collect the `key = value` lines of the current section, stopping
    /// at the next header or end of input.
    fn fields(&mut self) -> Result<Fields, ManifestError> {
        let mut f = Fields::default();
        while let Some((line, text)) = self.peek() {
            if text.starts_with('[') {
                break;
            }
            self.pos += 1;
            let (k, v) = Self::kv(line, text)?;
            f.insert(k, v, line)?;
        }
        Ok(f)
    }

    fn parse(mut self) -> Result<ManifestV1<'static>, ManifestError> {
        let mut saw_version = false;
        let mut interface: Option<(Fields, usize)> = None;
        let mut digests: Option<(Fields, usize)> = None;
        let mut context: Option<(Fields, usize)> = None;
        let mut slots: Vec<ManifestSlot> = Vec::new();
        let mut accessors: Vec<ManifestAccessor> = Vec::new();
        let mut seen_section = Section::None;

        while let Some((line, text)) = self.next() {
            let err = |msg: String| ManifestError { line, msg };
            if !text.starts_with('[') {
                return Err(err(format!("expected a section header, got `{text}`")));
            }
            let section = match text {
                "[manifest]" => Section::Manifest,
                "[interface]" => Section::Interface,
                "[digests]" => Section::Digests,
                "[context]" => Section::Context,
                "[[slot]]" => Section::Slot,
                "[[accessor]]" => Section::Accessor,
                other => return Err(err(format!("unknown section `{other}`"))),
            };
            // Singleton sections may appear once, in order; array
            // sections repeat.
            match section {
                Section::Manifest => {
                    if seen_section != Section::None {
                        return Err(err("[manifest] must come first".into()));
                    }
                    let mut f = self.fields()?;
                    let v = f.int("version", line)?;
                    f.reject_unknown("[manifest]")?;
                    if v != MANIFEST_VERSION as u128 {
                        return Err(err(format!(
                            "unsupported manifest version {v} (expected {MANIFEST_VERSION})"
                        )));
                    }
                    saw_version = true;
                }
                Section::Interface => {
                    if interface.is_some() {
                        return Err(err("duplicate [interface] section".into()));
                    }
                    interface = Some((self.fields()?, line));
                }
                Section::Digests => {
                    if digests.is_some() {
                        return Err(err("duplicate [digests] section".into()));
                    }
                    digests = Some((self.fields()?, line));
                }
                Section::Context => {
                    if context.is_some() {
                        return Err(err("duplicate [context] section".into()));
                    }
                    context = Some((self.fields()?, line));
                }
                Section::Slot => {
                    let mut f = self.fields()?;
                    let slot = ManifestSlot {
                        name: f.str("name", line)?.into(),
                        source: f.str("source", line)?.into(),
                        semantic: match f.take("semantic") {
                            Some((Value::Str(s), _)) => Some(s.into()),
                            Some((_, l)) => {
                                return Err(ManifestError {
                                    line: l,
                                    msg: "`semantic` must be a string".into(),
                                })
                            }
                            None => None,
                        },
                        offset_bits: int_as(f.int("offset_bits", line)?, line, "offset_bits")?,
                        width_bits: int_as(f.int("width_bits", line)?, line, "width_bits")?,
                    };
                    f.reject_unknown("[[slot]]")?;
                    slots.push(slot);
                }
                Section::Accessor => {
                    let mut f = self.fields()?;
                    let name = f.str("name", line)?;
                    let semantic = f.str("semantic", line)?;
                    let kind_s = f.str("kind", line)?;
                    let width_bits = int_as(f.int("width_bits", line)?, line, "width_bits")?;
                    let kind = match kind_s.as_str() {
                        "hardware" => ManifestAccessorKind::Hardware {
                            offset_bits: int_as(f.int("offset_bits", line)?, line, "offset_bits")?,
                        },
                        "softnic" => {
                            let cost = match f.take("cost") {
                                Some((Value::Str(s), l)) => {
                                    if s != "infinite" {
                                        return Err(ManifestError {
                                            line: l,
                                            msg: format!("unknown cost `{s}`"),
                                        });
                                    }
                                    ManifestCost::Infinite
                                }
                                Some((_, l)) => {
                                    return Err(ManifestError {
                                        line: l,
                                        msg: "`cost` must be \"infinite\"".into(),
                                    })
                                }
                                None => ManifestCost::Finite {
                                    base_ns: f.float("cost_base_ns", line)?,
                                    per_byte_ns: f.float("cost_per_byte_ns", line)?,
                                },
                            };
                            ManifestAccessorKind::Software { cost }
                        }
                        other => {
                            return Err(err(format!("unknown accessor kind `{other}`")));
                        }
                    };
                    f.reject_unknown("[[accessor]]")?;
                    accessors.push(ManifestAccessor {
                        name: name.into(),
                        semantic: semantic.into(),
                        width_bits,
                        kind,
                    });
                }
                Section::None => unreachable!(),
            }
            seen_section = section;
        }

        if !saw_version {
            return Err(ManifestError {
                line: 0,
                msg: "missing [manifest] version header".into(),
            });
        }
        let (mut fi, li) = interface.ok_or(ManifestError {
            line: 0,
            msg: "missing [interface] section".into(),
        })?;
        let (mut fd, ld) = digests.ok_or(ManifestError {
            line: 0,
            msg: "missing [digests] section".into(),
        })?;
        let (mut fc, lc) = context.ok_or(ManifestError {
            line: 0,
            msg: "missing [context] section".into(),
        })?;

        let m = ManifestV1 {
            nic: fi.str("nic", li)?.into(),
            intent: fi.str("intent", li)?.into(),
            registry_fingerprint: fi.hex("registry_fingerprint", li)?,
            completion_bytes: int_as(fi.int("completion_bytes", li)?, li, "completion_bytes")?,
            selected_path: int_as(fi.int("selected_path", li)?, li, "selected_path")?,
            paths_considered: int_as(fi.int("paths_considered", li)?, li, "paths_considered")?,
            guard: fi.str("guard", li)?.into(),
            layout_bits: int_as(fi.int("layout_bits", li)?, li, "layout_bits")?,
            shim_plan_digest: fd.hex("shim_plan", ld)?,
            odbc_bytecode: {
                let s = fd.str("odbc_bytecode", ld)?;
                if s == "unlowerable" {
                    None
                } else {
                    Some(parse_hex64(&s).ok_or(ManifestError {
                        line: ld,
                        msg: "`odbc_bytecode` must be a \"0x…\" digest or \"unlowerable\"".into(),
                    })?)
                }
            },
            context: {
                let mode = fc.str("mode", lc)?;
                match mode.as_str() {
                    "programmed" => {
                        let writes = fc
                            .entries
                            .drain(..)
                            .map(|(k, v, l)| match v {
                                Value::Int(x) => Ok((k.into(), x)),
                                _ => Err(ManifestError {
                                    line: l,
                                    msg: format!("context write `{k}` must be an integer"),
                                }),
                            })
                            .collect::<Result<Vec<_>, _>>()?;
                        ContextProgramming::Programmed(writes)
                    }
                    "manual" => ContextProgramming::Manual,
                    other => {
                        return Err(ManifestError {
                            line: lc,
                            msg: format!("unknown context mode `{other}`"),
                        })
                    }
                }
            },
            slots,
            accessors,
        };
        fi.reject_unknown("[interface]")?;
        fd.reject_unknown("[digests]")?;
        fc.reject_unknown("[context]")?;
        Ok(m)
    }
}

/// Split `key = value` at the first `=` outside quotes.
fn split_eq(text: &str) -> Option<(&str, &str)> {
    let mut in_str = false;
    let mut esc = false;
    for (i, c) in text.char_indices() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '=' if !in_str => return Some((text[..i].trim(), text[i + 1..].trim())),
            _ => {}
        }
    }
    None
}

/// The inner text of a `"…"` token, or `None` if not a quoted token.
fn parse_quoted(tok: &str) -> Option<&str> {
    let inner = tok.strip_prefix('"')?.strip_suffix('"')?;
    // Reject a trailing escaped quote masquerading as the closer.
    let trailing_backslashes = inner.chars().rev().take_while(|c| *c == '\\').count();
    if trailing_backslashes % 2 == 1 {
        return None;
    }
    Some(inner)
}

fn is_bare_key(tok: &str) -> bool {
    !tok.is_empty()
        && tok.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !tok.starts_with(|c: char| c.is_ascii_digit())
}

fn int_as<T: TryFrom<u128>>(v: u128, line: usize, key: &str) -> Result<T, ManifestError> {
    T::try_from(v).map_err(|_| ManifestError {
        line,
        msg: format!("`{key}` out of range"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Compiler;
    use crate::intent::Intent;
    use opendesc_ir::SemanticRegistry;
    use opendesc_nicsim::models;

    fn compiled() -> CompiledRx {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::from_p4(crate::intent::FIG1_INTENT_P4, &mut reg).unwrap();
        Compiler::default()
            .compile_model(&models::e1000e(), &intent, &mut reg)
            .unwrap()
            .into()
    }

    #[test]
    fn manifest_contains_all_sections() {
        let m = compiled().manifest();
        assert!(m.contains("[manifest]"), "{m}");
        assert!(m.contains("version = 1"), "{m}");
        assert!(m.contains("[interface]"), "{m}");
        assert!(m.contains("nic = \"e1000e\""), "{m}");
        assert!(m.contains("[digests]"), "{m}");
        assert!(m.contains("[context]"), "{m}");
        assert!(m.contains("mode = \"programmed\""), "{m}");
        assert!(m.contains("\"ctx.use_rss\" = 0"), "{m}");
        assert!(m.contains("[[slot]]"), "{m}");
        assert!(m.contains("kind = \"hardware\""), "{m}");
        assert!(m.contains("kind = \"softnic\""), "{m}");
        assert!(m.contains("semantic = \"rss_hash\""), "{m}");
        assert!(m.contains("cost_base_ns = 40"), "{m}");
    }

    #[test]
    fn hardware_entries_carry_offsets() {
        let c = compiled();
        let m = c.manifest();
        let csum = c
            .accessors
            .accessors
            .iter()
            .find(|a| a.kind == AccessorKind::Hardware)
            .unwrap();
        assert!(
            m.contains(&format!("offset_bits = {}", csum.offset_bits)),
            "{m}"
        );
    }

    #[test]
    fn manifest_is_line_oriented_toml_shape() {
        let m = compiled().manifest();
        for line in m.lines() {
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            assert!(
                t.starts_with('[') || t.contains('='),
                "unexpected manifest line: {t}"
            );
        }
    }

    #[test]
    fn generate_parse_render_is_byte_stable() {
        let c = compiled();
        let s = c.manifest();
        let m = ManifestV1::parse(&s).expect("own output parses");
        assert_eq!(m.render(), s);
        assert_eq!(m, ManifestV1::from_compiled(&c));
    }

    #[test]
    fn generate_is_the_manifest_of_the_attachable_artifact() {
        let c = compiled();
        assert_eq!(generate(c.interface()), c.manifest());
    }

    #[test]
    fn digests_are_present_and_lowerable() {
        let c = compiled();
        let m = ManifestV1::from_compiled(&c);
        assert!(m.odbc_bytecode.is_some(), "real models lower");
        assert_ne!(m.shim_plan_digest, 0);
    }

    #[test]
    fn escaping_survives_hostile_strings() {
        let c = compiled();
        let mut m = ManifestV1::from_compiled(&c);
        m.nic = "evil\"\nnic = \\\"x".into();
        m.guard = "a\tb\r∞".into();
        let s = m.render();
        let back = ManifestV1::parse(&s).expect("escaped output parses");
        assert_eq!(back, m);
        assert_eq!(back.render(), s);
    }

    #[test]
    fn unescape_is_linear_and_round_trips_every_control_character() {
        let c = compiled();
        let mut m = ManifestV1::from_compiled(&c);
        m.guard = "\u{1}".repeat(100_000).into();
        let s = m.render();
        let back = ManifestV1::parse(&s).expect("escaped output parses");
        assert_eq!(back.guard, m.guard);
        m.guard = (0u8..0x20).map(char::from).chain("\\\"∞".chars()).collect();
        let s = m.render();
        assert!(s.lines().all(|l| !l.contains('\r')), "{s:?}");
        let back = ManifestV1::parse(&s).expect("escaped output parses");
        assert_eq!(back, m);
        assert_eq!(back.render(), s);
        for bad in ["\\u{110000}", "\\u{zz}", "\\u{41", "\\u41", "\\q", "\\"] {
            assert!(unescape(bad).is_err(), "{bad}");
        }
        assert_eq!(unescape("a\\u{41}b\\u{2192}").unwrap(), "aAb→");
    }

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
            push_dec(&mut s, v);
            assert_eq!(s, v.to_string());
            let h = v as u64;
            s.clear();
            push_hex(&mut s, h);
            assert_eq!(s, format!("0x{h:016x}"));
        }
    }

    #[test]
    fn manual_and_empty_context_are_distinct() {
        let c = compiled();
        let mut m = ManifestV1::from_compiled(&c);
        m.context = ContextProgramming::Programmed(Vec::new());
        let empty = ManifestV1::parse(&m.render()).unwrap();
        assert_eq!(empty.context, ContextProgramming::Programmed(Vec::new()));
        m.context = ContextProgramming::Manual;
        let manual = ManifestV1::parse(&m.render()).unwrap();
        assert_eq!(manual.context, ContextProgramming::Manual);
        assert_ne!(empty.render(), manual.render());
    }

    #[test]
    fn schema_violations_are_rejected() {
        let base = compiled().manifest();
        // Unknown section.
        let bad = base.replace("[digests]", "[mystery]");
        assert!(ManifestV1::parse(&bad).is_err());
        // Unsupported version.
        let bad = base.replace("version = 1", "version = 9");
        assert!(ManifestV1::parse(&bad).is_err());
        // Unknown key in a known section.
        let bad = base.replace("layout_bits =", "layout_bitz =");
        assert!(ManifestV1::parse(&bad).is_err());
        // Type mismatch.
        let bad = base.replace("completion_bytes = ", "completion_bytes = \"");
        assert!(ManifestV1::parse(&bad).is_err());
        // Truncated: no [interface].
        assert!(ManifestV1::parse("[manifest]\nversion = 1\n").is_err());
    }

    #[test]
    fn determinism_across_independent_compiles() {
        let a = compiled().manifest();
        let b = compiled().manifest();
        assert_eq!(a, b);
    }
}
