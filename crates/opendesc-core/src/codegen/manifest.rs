//! Versioned driver manifests: the machine-readable contract of a
//! compiled interface — identity, the negotiated completion layout, the
//! context writes the driver must program over the control channel, the
//! accessor table, and content digests of the executable artifacts
//! (shim plan, ODBC plan bytecode). This is the artifact a non-Rust
//! driver (or a DPDK hook, per §4's future-work note) would consume to
//! wire itself up without understanding P4.
//!
//! The text is one JSON object on the workspace's one JSON layer
//! (`opendesc_telemetry::json`). [`ManifestV1::render`] streams the
//! fixed schema in [`Json::render`]'s layout, so a rendered manifest is
//! its own canonical JSON (`parse_json(text).render() == text`);
//! [`ManifestV1::parse`] reads it with `parse_json` and walks the schema
//! over the value. `render → parse` is lossless and `generate → parse →
//! render` is byte-stable (`tests/manifest_roundtrip.rs`). The object
//! leads with `"schema": "opendesc.manifest"` and `"version": 1`, then:
//!
//! * the interface's identity, flat (`nic`, `intent`, …, `layout_bits`);
//!   integers that may pass 2^53 (`selected_path`, `paths_considered`,
//!   each context write's value) are canonical decimal strings, digests
//!   `"0x…"` strings, the `u16`/`u32` fields JSON numbers;
//! * `digests`: `shim_plan`, and `odbc_bytecode` or `"unlowerable"`;
//! * `context`: `mode` `"programmed"` with a `writes` object (empty
//!   when the path is unconditional), or `"manual"` alone for an opaque
//!   guard;
//! * `slots` and `accessors`, one object each; a software accessor
//!   carries `cost_base_ns` / `cost_per_byte_ns`, or `"cost":
//!   "infinite"`.
//!
//! A manifest built from an artifact borrows its text from it, so
//! rendering copies each name once, into the output; a parsed manifest
//! owns its text.

use crate::accessor::AccessorKind;
use crate::cache::CompiledRx;
use crate::compiler::CompiledInterface;
use opendesc_ir::semantics::Cost;
use opendesc_telemetry::json::{self, Json};
use opendesc_telemetry::parse_json;
use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;

/// Manifest schema version emitted by [`ManifestV1::render`].
pub const MANIFEST_VERSION: u64 = 1;

/// The `"schema"` a manifest document leads with.
pub const MANIFEST_SCHEMA: &str = "opendesc.manifest";

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

/// A syntax or schema error while parsing a manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestError {
    /// The field path of the offending value, e.g. `slots[2].width_bits`
    /// or `context.writes.ctx.use_rss`; empty for the document itself.
    pub path: String,
    pub msg: String,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.path.as_str() {
            "" => write!(f, "manifest: {}", self.msg),
            path => write!(f, "manifest {path}: {}", self.msg),
        }
    }
}

impl std::error::Error for ManifestError {}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

/// The start of a member (`"k": `): the document's, the first of an
/// inline object's, and a later one of an inline object's.
macro_rules! top {
    ($k:literal) => {
        opendesc_telemetry::json_key!(",\n  ", $k)
    };
}
macro_rules! first {
    ($k:literal) => {
        opendesc_telemetry::json_key!("{", $k)
    };
}
macro_rules! next {
    ($k:literal) => {
        opendesc_telemetry::json_key!(", ", $k)
    };
}

/// Append `key` (a member's start), then `v` as a JSON string.
#[inline]
fn str_member(o: &mut String, key: &str, v: &str) {
    o.push_str(key);
    json::quote(o, v);
}

#[inline]
fn int_member(o: &mut String, key: &str, v: impl Into<u128>) {
    o.push_str(key);
    json::push_uint(o, v);
}

/// An integer that may pass 2^53, as a decimal string.
#[inline]
fn dec_member(o: &mut String, key: &str, v: impl Into<u128>) {
    o.push_str(key);
    o.push('"');
    json::push_uint(o, v);
    o.push('"');
}

#[inline]
fn hex_member(o: &mut String, key: &str, v: u64) {
    o.push_str(key);
    o.push('"');
    json::push_hex(o, v);
    o.push('"');
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

    /// An estimate of [`render`](ManifestV1::render)'s output length:
    /// the fixed text exactly, strings unescaped, integers at their
    /// type's widest and each cost at eight characters (`40`, `0.15`),
    /// so the text is written into one allocation.
    fn rendered_len_hint(&self) -> usize {
        let ctx = match &self.context {
            ContextProgramming::Programmed(w) => w.iter().map(|(k, _)| 47 + k.len()).sum(),
            ContextProgramming::Manual => 0,
        };
        let slots: usize = (self.slots.iter())
            .map(|s| {
                80 + s.name.len() + s.source.len() + s.semantic.as_ref().map_or(0, |x| 16 + x.len())
            })
            .sum();
        let accessors: usize = (self.accessors.iter())
            .map(|a| match a.kind {
                ManifestAccessorKind::Hardware { .. } => 102 + a.name.len() + a.semantic.len(),
                ManifestAccessorKind::Software { .. } => 130 + a.name.len() + a.semantic.len(),
            })
            .sum();
        476 + self.nic.len() + self.intent.len() + self.guard.len() + ctx + slots + accessors
    }

    /// Render the canonical text: one JSON object, laid out as
    /// [`Json::render`] lays it out, so `parse_json(text).render()` is
    /// `text`. Byte-deterministic: the same struct always renders the
    /// same string.
    pub fn render(&self) -> String {
        let mut o = String::with_capacity(self.rendered_len_hint());
        str_member(
            &mut o,
            opendesc_telemetry::json_key!("{\n  ", "schema"),
            MANIFEST_SCHEMA,
        );
        int_member(&mut o, top!("version"), MANIFEST_VERSION);
        str_member(&mut o, top!("nic"), &self.nic);
        str_member(&mut o, top!("intent"), &self.intent);
        hex_member(
            &mut o,
            top!("registry_fingerprint"),
            self.registry_fingerprint,
        );
        int_member(&mut o, top!("completion_bytes"), self.completion_bytes);
        dec_member(&mut o, top!("selected_path"), self.selected_path);
        dec_member(&mut o, top!("paths_considered"), self.paths_considered);
        str_member(&mut o, top!("guard"), &self.guard);
        int_member(&mut o, top!("layout_bits"), self.layout_bits);

        o.push_str(top!("digests"));
        hex_member(&mut o, first!("shim_plan"), self.shim_plan_digest);
        match self.odbc_bytecode {
            Some(h) => hex_member(&mut o, next!("odbc_bytecode"), h),
            None => str_member(&mut o, next!("odbc_bytecode"), "unlowerable"),
        }
        o.push('}');

        o.push_str(top!("context"));
        match &self.context {
            ContextProgramming::Programmed(writes) => {
                str_member(&mut o, first!("mode"), "programmed");
                o.push_str(next!("writes"));
                o.push('{');
                for (i, (k, v)) in writes.iter().enumerate() {
                    o.push_str(if i > 0 { ", " } else { "" });
                    json::quote(&mut o, k);
                    dec_member(&mut o, ": ", *v);
                }
                o.push('}');
            }
            ContextProgramming::Manual => str_member(&mut o, first!("mode"), "manual"),
        }
        o.push('}');

        o.push_str(top!("slots"));
        Self::array(&mut o, &self.slots, |o, s| {
            str_member(o, first!("name"), &s.name);
            str_member(o, next!("source"), &s.source);
            if let Some(sem) = &s.semantic {
                str_member(o, next!("semantic"), sem);
            }
            int_member(o, next!("offset_bits"), s.offset_bits);
            int_member(o, next!("width_bits"), s.width_bits);
        });
        o.push_str(top!("accessors"));
        Self::array(&mut o, &self.accessors, |o, a| {
            str_member(o, first!("name"), &a.name);
            str_member(o, next!("semantic"), &a.semantic);
            match &a.kind {
                ManifestAccessorKind::Hardware { offset_bits } => {
                    str_member(o, next!("kind"), "hardware");
                    int_member(o, next!("offset_bits"), *offset_bits);
                    int_member(o, next!("width_bits"), a.width_bits);
                }
                ManifestAccessorKind::Software { cost } => {
                    str_member(o, next!("kind"), "softnic");
                    int_member(o, next!("width_bits"), a.width_bits);
                    match cost {
                        ManifestCost::Finite {
                            base_ns,
                            per_byte_ns,
                        } => {
                            o.push_str(next!("cost_base_ns"));
                            json::push_num(o, *base_ns);
                            o.push_str(next!("cost_per_byte_ns"));
                            json::push_num(o, *per_byte_ns);
                        }
                        ManifestCost::Infinite => str_member(o, next!("cost"), "infinite"),
                    }
                }
            }
        });
        o.push_str("\n}\n");
        o
    }

    /// A top-level array of inline objects, one per line; `[]` when
    /// empty. `item` writes an object up to its closing brace.
    fn array<T>(o: &mut String, items: &[T], item: impl Fn(&mut String, &T)) {
        o.push('[');
        for (i, x) in items.iter().enumerate() {
            o.push_str(if i > 0 { ",\n    " } else { "\n    " });
            item(o, x);
            o.push('}');
        }
        if !items.is_empty() {
            o.push_str("\n  ");
        }
        o.push(']');
    }
}

impl ManifestV1<'static> {
    /// Parse a manifest rendered by [`render`](ManifestV1::render): the
    /// text is read by `parse_json`, then the schema is walked over the
    /// value. An unknown, duplicate or missing key, a value of the wrong
    /// type, a number that is not an integer in its field's range, a
    /// decimal string that is not canonical, and another schema or
    /// version are all errors, each naming its field's path.
    pub fn parse(src: &str) -> Result<ManifestV1<'static>, ManifestError> {
        let doc = parse_json(src).map_err(|msg| ManifestError {
            path: String::new(),
            msg,
        })?;
        let mut top = Obj::new(&doc, String::new())?;
        let schema = top.get("schema");
        if schema.str()? != MANIFEST_SCHEMA {
            return Err(schema.err(format!("not `{MANIFEST_SCHEMA}`")));
        }
        let version = top.get("version");
        if version.int::<u64>()? != MANIFEST_VERSION {
            return Err(version.err(format!("unsupported (expected {MANIFEST_VERSION})")));
        }
        let mut digests = top.get("digests").obj()?;
        let odbc_bytecode = digests.get("odbc_bytecode");
        let m = ManifestV1 {
            nic: top.get("nic").string()?,
            intent: top.get("intent").string()?,
            registry_fingerprint: top.get("registry_fingerprint").hex()?,
            completion_bytes: top.get("completion_bytes").int()?,
            selected_path: top.get("selected_path").dec()?,
            paths_considered: top.get("paths_considered").dec()?,
            guard: top.get("guard").string()?,
            layout_bits: top.get("layout_bits").int()?,
            shim_plan_digest: digests.get("shim_plan").hex()?,
            odbc_bytecode: match odbc_bytecode.str()? {
                "unlowerable" => None,
                _ => Some(odbc_bytecode.hex()?),
            },
            context: read_context(top.get("context").obj()?)?,
            slots: top.get("slots").array(|mut s| {
                let slot = ManifestSlot {
                    name: s.get("name").string()?,
                    source: s.get("source").string()?,
                    semantic: match s.get("semantic") {
                        m if m.value.is_some() => Some(m.string()?),
                        _ => None,
                    },
                    offset_bits: s.get("offset_bits").int()?,
                    width_bits: s.get("width_bits").int()?,
                };
                s.done().map(|()| slot)
            })?,
            accessors: top.get("accessors").array(read_accessor)?,
        };
        digests.done()?;
        top.done().map(|()| m)
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

/// `path.key`, or `key` at the top.
fn join(path: &str, key: &str) -> String {
    match path {
        "" => key.to_string(),
        _ => format!("{path}.{key}"),
    }
}

/// A schema object being read: its members, which of them the schema
/// has read, and its path.
struct Obj<'j> {
    path: String,
    members: &'j [(String, Json)],
    read: Vec<bool>,
}

impl<'j> Obj<'j> {
    /// The object `v` at `path`, which names no key twice.
    fn new(v: &'j Json, path: String) -> Result<Obj<'j>, ManifestError> {
        let Some(members) = v.as_obj() else {
            return Err(ManifestError {
                path,
                msg: "must be an object".into(),
            });
        };
        let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if let Some(k) = keys.windows(2).find(|k| k[0] == k[1]) {
            return Err(ManifestError {
                path: join(&path, k[0]),
                msg: "duplicate key".into(),
            });
        }
        let read = vec![false; members.len()];
        Ok(Obj {
            path,
            members,
            read,
        })
    }

    /// The member `key`, present or not.
    fn get(&mut self, key: &str) -> Member<'j> {
        let at = self.members.iter().position(|(k, _)| k == key);
        if let Some(i) = at {
            self.read[i] = true;
        }
        Member {
            path: join(&self.path, key),
            value: at.map(|i| &self.members[i].1),
        }
    }

    /// Every member was read: one the schema did not ask for is an
    /// unknown key.
    fn done(self) -> Result<(), ManifestError> {
        match self.read.iter().position(|read| !read) {
            Some(i) => Err(ManifestError {
                path: join(&self.path, &self.members[i].0),
                msg: "unknown key".into(),
            }),
            None => Ok(()),
        }
    }
}

/// One member being read: its path, and its value when the document
/// has one.
struct Member<'j> {
    path: String,
    value: Option<&'j Json>,
}

impl<'j> Member<'j> {
    fn err(&self, msg: impl Into<String>) -> ManifestError {
        ManifestError {
            path: self.path.clone(),
            msg: msg.into(),
        }
    }

    fn json(&self) -> Result<&'j Json, ManifestError> {
        self.value.ok_or_else(|| self.err("missing"))
    }

    fn obj(self) -> Result<Obj<'j>, ManifestError> {
        Obj::new(self.json()?, self.path)
    }

    /// Each element of the array, read as an object by `item`.
    fn array<T>(
        &self,
        item: impl Fn(Obj<'j>) -> Result<T, ManifestError>,
    ) -> Result<Vec<T>, ManifestError> {
        let items = (self.json()?.as_arr()).ok_or_else(|| self.err("must be an array"))?;
        (items.iter().enumerate())
            .map(|(i, v)| item(Obj::new(v, format!("{}[{i}]", self.path))?))
            .collect()
    }

    fn str(&self) -> Result<&'j str, ManifestError> {
        (self.json()?.as_str()).ok_or_else(|| self.err("must be a string"))
    }

    fn string(&self) -> Result<Cow<'static, str>, ManifestError> {
        Ok(Cow::Owned(self.str()?.to_owned()))
    }

    /// A JSON number that is an integer in `T`'s range (`-0` is not).
    /// The widest such field is a `u32`, so the cast is exact.
    fn int<T: TryFrom<u64>>(&self) -> Result<T, ManifestError> {
        let n = self.num()?;
        match T::try_from(n as u64) {
            Ok(v) if n.fract() == 0.0 && n.is_sign_positive() && n <= u32::MAX as f64 => Ok(v),
            _ => Err(self.err("must be an integer in range")),
        }
    }

    /// A canonical decimal string: digits only, no leading zero, in
    /// `T`'s range.
    fn dec<T: FromStr>(&self) -> Result<T, ManifestError> {
        let s = self.str()?;
        let digits = !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        match s.parse() {
            Ok(v) if digits && (s == "0" || !s.starts_with('0')) => Ok(v),
            _ => Err(self.err("must be a canonical decimal string in range")),
        }
    }

    /// A digest: `0x` and sixteen lowercase hex digits.
    fn hex(&self) -> Result<u64, ManifestError> {
        let digits = self.str()?.strip_prefix("0x").unwrap_or_default();
        let lower_hex = |b: u8| b.is_ascii_digit() || (b'a'..=b'f').contains(&b);
        match u64::from_str_radix(digits, 16) {
            Ok(v) if digits.len() == 16 && digits.bytes().all(lower_hex) => Ok(v),
            _ => Err(self.err("must be 0x and 16 lowercase hex digits")),
        }
    }

    fn num(&self) -> Result<f64, ManifestError> {
        (self.json()?.as_f64()).ok_or_else(|| self.err("must be a number"))
    }
}

fn read_context(mut context: Obj) -> Result<ContextProgramming<'static>, ManifestError> {
    let mode = context.get("mode");
    let programming = match mode.str()? {
        "programmed" => {
            let writes = context.get("writes").obj()?;
            let values = (writes.members.iter())
                .map(|(k, v)| {
                    let value = Member {
                        path: join(&writes.path, k),
                        value: Some(v),
                    };
                    Ok((Cow::Owned(k.clone()), value.dec()?))
                })
                .collect::<Result<_, _>>()?;
            ContextProgramming::Programmed(values)
        }
        "manual" => ContextProgramming::Manual,
        _ => return Err(mode.err("must be programmed or manual")),
    };
    context.done().map(|()| programming)
}

fn read_accessor(mut a: Obj) -> Result<ManifestAccessor<'static>, ManifestError> {
    let name = a.get("name").string()?;
    let semantic = a.get("semantic").string()?;
    let width_bits = a.get("width_bits").int()?;
    let kind = a.get("kind");
    let kind = match kind.str()? {
        "hardware" => ManifestAccessorKind::Hardware {
            offset_bits: a.get("offset_bits").int()?,
        },
        "softnic" => ManifestAccessorKind::Software {
            cost: match a.get("cost") {
                cost if cost.value.is_none() => ManifestCost::Finite {
                    base_ns: a.get("cost_base_ns").num()?,
                    per_byte_ns: a.get("cost_per_byte_ns").num()?,
                },
                cost if cost.str()? == "infinite" => ManifestCost::Infinite,
                cost => return Err(cost.err("must be infinite")),
            },
        },
        _ => return Err(kind.err("must be hardware or softnic")),
    };
    a.done().map(|()| ManifestAccessor {
        name,
        semantic,
        width_bits,
        kind,
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
        for member in [
            r#""schema": "opendesc.manifest""#,
            r#""version": 1"#,
            r#""nic": "e1000e""#,
            r#""digests": {"shim_plan": "0x"#,
            r#""context": {"mode": "programmed", "writes": {"ctx.use_rss": "0"}}"#,
            r#""slots": ["#,
            r#""kind": "hardware""#,
            r#""kind": "softnic""#,
            r#""semantic": "rss_hash""#,
            r#""cost_base_ns": 40"#,
        ] {
            assert!(m.contains(member), "{member} not in\n{m}");
        }
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
            m.contains(&format!(r#""offset_bits": {}"#, csum.offset_bits)),
            "{m}"
        );
    }

    /// The streamed text is what the JSON layer renders for it.
    #[test]
    fn manifest_is_its_own_json_rendering() {
        let c = compiled();
        let mut m = ManifestV1::from_compiled(&c);
        let s = m.render();
        assert_eq!(parse_json(&s).unwrap().render(), s);
        m.context = ContextProgramming::Manual;
        m.slots.clear();
        m.odbc_bytecode = None;
        let s = m.render();
        assert_eq!(parse_json(&s).unwrap().render(), s);
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
        m.nic = "evil\"\n, \"nic\": \\\"x".into();
        m.guard = "a\tb\r∞".into();
        m.context = ContextProgramming::Programmed(vec![("\"k\\\u{1}".into(), u128::MAX)]);
        let s = m.render();
        let back = ManifestV1::parse(&s).expect("escaped output parses");
        assert_eq!(back, m);
        assert_eq!(back.render(), s);
    }

    #[test]
    fn strings_round_trip_in_linear_time_with_every_control_character() {
        let c = compiled();
        let mut m = ManifestV1::from_compiled(&c);
        m.guard = "\u{1}".repeat(100_000).into();
        let s = m.render();
        let back = ManifestV1::parse(&s).expect("escaped output parses");
        assert_eq!(back.guard, m.guard);
        m.guard = (0u8..0x20).map(char::from).chain("\\\"∞".chars()).collect();
        let s = m.render();
        assert!(!s.contains('\r'), "{s:?}");
        let back = ManifestV1::parse(&s).expect("escaped output parses");
        assert_eq!(back, m);
        assert_eq!(back.render(), s);
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

    /// Each kind of refusal, named by the path of the field it trips on.
    #[test]
    fn schema_violations_are_refused_at_their_path() {
        let base = compiled().manifest();
        let refused = |from: &str, to: &str, path: &str| {
            assert!(base.contains(from), "{from}");
            let bad = base.replacen(from, to, 1);
            let err = ManifestV1::parse(&bad).expect_err(to);
            assert_eq!(err.path, path, "{to}: {err}");
        };
        // The schema and its version.
        refused(r#""opendesc.manifest""#, r#""opendesc.other""#, "schema");
        refused(r#""version": 1"#, r#""version": 2"#, "version");
        // Unknown, duplicate and missing keys.
        refused(
            r#""layout_bits""#,
            r#""layout_bitz": 1, "layout_bits""#,
            "layout_bitz",
        );
        refused(
            r#""nic": "e1000e","#,
            r#""nic": "e1000e", "nic": "x","#,
            "nic",
        );
        refused(r#""guard": "#, r#""guardx": "#, "guard");
        refused(r#""layout_bits": 96,"#, "", "layout_bits");
        refused(
            r#""writes": {"ctx.use_rss": "0"}"#,
            r#""writes": {"ctx.use_rss": "0", "ctx.use_rss": "0"}"#,
            "context.writes.ctx.use_rss",
        );
        refused(
            r#"{"mode": "programmed", "#,
            r#"{"mode": "manual", "#,
            "context.writes",
        );
        refused(
            r#""width_bits": 8}"#,
            r#""width_bits": 8, "width_bits": 8}"#,
            "slots[3].width_bits",
        );
        refused(r#""cost_base_ns": 40, "#, "", "accessors[2].cost_base_ns");
        refused(
            r#""kind": "hardware", "#,
            r#""kind": "hardware", "cost": "infinite", "#,
            "accessors[0].cost",
        );
        // Wrong types.
        refused(
            r#""completion_bytes": 12"#,
            r#""completion_bytes": "12""#,
            "completion_bytes",
        );
        refused(
            r#""selected_path": "1""#,
            r#""selected_path": 1"#,
            "selected_path",
        );
        refused(
            r#""guard": "ctx.use_rss != 1""#,
            r#""guard": ["ctx"]"#,
            "guard",
        );
        refused(
            r#""writes": {"ctx.use_rss": "0"}"#,
            r#""writes": ["0"]"#,
            "context.writes",
        );
        refused(
            r#""kind": "softnic""#,
            r#""kind": "software""#,
            "accessors[2].kind",
        );
        // Numbers that are not integers in range.
        refused(
            r#""width_bits": 16}"#,
            r#""width_bits": 16.5}"#,
            "slots[0].width_bits",
        );
        refused(
            r#""width_bits": 16}"#,
            r#""width_bits": 65536}"#,
            "slots[0].width_bits",
        );
        refused(
            r#""width_bits": 16}"#,
            r#""width_bits": -0}"#,
            "slots[0].width_bits",
        );
        refused(
            r#""layout_bits": 96"#,
            r#""layout_bits": 4294967296"#,
            "layout_bits",
        );
        // Decimal strings that are not canonical or not in range.
        for bad in ["01", "+1", " 1", "-0", "1e0", "", "18446744073709551616"] {
            refused(
                r#""paths_considered": "2""#,
                &format!(r#""paths_considered": "{bad}""#),
                "paths_considered",
            );
        }
        refused(
            r#""ctx.use_rss": "0""#,
            r#""ctx.use_rss": "340282366920938463463374607431768211456""#,
            "context.writes.ctx.use_rss",
        );
        // Digests that are not 0x and sixteen lowercase hex digits.
        for bad in [
            "0x61D9E776F3CF6DE1",
            "0x+1d9e776f3cf6de1",
            "61d9e776f3cf6de1",
            "0x61d9e776f3cf6de",
        ] {
            refused(
                r#""0x61d9e776f3cf6de1""#,
                &format!("{bad:?}"),
                "registry_fingerprint",
            );
        }
        // Not JSON, or not an object.
        assert_eq!(ManifestV1::parse("[1]").unwrap_err().path, "");
        assert!(ManifestV1::parse(&base[..base.len() / 2]).is_err());
    }

    /// The integer edges each field's type allows are read back.
    #[test]
    fn integers_at_their_edges_round_trip() {
        let c = compiled();
        let mut m = ManifestV1::from_compiled(&c);
        m.completion_bytes = u32::MAX;
        m.selected_path = u64::MAX;
        m.paths_considered = 0;
        m.slots[0].width_bits = u16::MAX;
        m.context = ContextProgramming::Programmed(vec![("a".into(), u128::MAX), ("b".into(), 0)]);
        let s = m.render();
        assert_eq!(ManifestV1::parse(&s), Ok(m));
        assert_eq!(parse_json(&s).unwrap().render(), s);
    }

    /// The length hint holds the catalog's manifests without growing,
    /// and over-counts by less than a fifth.
    #[test]
    fn the_length_hint_is_tight() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::from_p4(crate::intent::FIG1_INTENT_P4, &mut reg).unwrap();
        for model in models::catalog() {
            let rx: CompiledRx = (Compiler::default().compile_model(&model, &intent, &mut reg))
                .unwrap()
                .into();
            let m = ManifestV1::from_compiled(&rx);
            let (hint, len) = (m.rendered_len_hint(), m.render().len());
            assert!(
                len <= hint && hint * 5 < len * 6,
                "{}: {len} in {hint}",
                model.name
            );
        }
    }

    #[test]
    fn determinism_across_independent_compiles() {
        let a = compiled().manifest();
        let b = compiled().manifest();
        assert_eq!(a, b);
    }
}
