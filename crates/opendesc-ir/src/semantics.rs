//! The semantic alphabet Σ (paper §4).
//!
//! Every metadata field a NIC emits or a host requests is tagged with a
//! *semantic* — an interned name such as `rss_hash` or `ip_checksum` that
//! both sides agree on via `@semantic("...")` annotations. The registry
//! also carries the software-emulation cost `w : Σ → ℝ₊ ∪ {∞}` used by the
//! selection objective (Eq. 1): missing semantics are recomputed by a
//! SoftNIC shim at this per-packet cost, and semantics that software
//! cannot recompute at all (e.g. a hardware arrival timestamp) have
//! infinite cost.

use std::borrow::Cow;
use std::fmt;

/// Interned id of a semantic within a [`SemanticRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SemanticId(pub u32);

/// Software-emulation cost of one semantic, in nanoseconds per packet.
///
/// `Infinite` marks semantics that software fundamentally cannot
/// recompute (hardware timestamps, device-internal state).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cost {
    /// Finite per-packet cost, ns. A `per_byte` component models
    /// payload-dependent work such as checksums over the packet body.
    Finite {
        base_ns: f64,
        per_byte_ns: f64,
    },
    Infinite,
}

impl Cost {
    /// Flat cost helper.
    pub const fn flat(base_ns: f64) -> Cost {
        Cost::Finite {
            base_ns,
            per_byte_ns: 0.0,
        }
    }

    /// Evaluate for an average packet length.
    pub fn eval(&self, avg_pkt_len: u32) -> f64 {
        match self {
            Cost::Finite {
                base_ns,
                per_byte_ns,
            } => base_ns + per_byte_ns * avg_pkt_len as f64,
            Cost::Infinite => f64::INFINITY,
        }
    }

    pub fn is_infinite(&self) -> bool {
        matches!(self, Cost::Infinite)
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cost::Finite {
                base_ns,
                per_byte_ns,
            } if *per_byte_ns == 0.0 => {
                write!(f, "{base_ns}ns")
            }
            Cost::Finite {
                base_ns,
                per_byte_ns,
            } => {
                write!(f, "{base_ns}ns + {per_byte_ns}ns/B")
            }
            Cost::Infinite => write!(f, "∞"),
        }
    }
}

/// Descriptor of one semantic. A builtin borrows its name and doc from
/// the static table; a semantic registered at run time owns them.
#[derive(Debug, Clone)]
pub struct SemanticInfo {
    pub name: Cow<'static, str>,
    /// Natural bit width of the value (what an intent field should use).
    pub width_bits: u16,
    /// Software recomputation cost.
    pub cost: Cost,
    /// Human-readable description, used in generated documentation.
    pub doc: Cow<'static, str>,
}

/// Interning registry for semantics, preloaded with the well-known set.
/// Ids are positions: a name is found by scanning, which over a few
/// dozen names costs less than hashing would. A registry of builtins
/// borrows the static table, so building or cloning one allocates
/// nothing; the first registration or re-costing copies the table into
/// a registry of its own, and a clone of that is exact-capacity. The
/// registry keeps its own [`fingerprint`](SemanticRegistry::fingerprint),
/// extended as names are added, so reading it hashes nothing.
#[derive(Debug, Clone)]
pub struct SemanticRegistry {
    infos: Cow<'static, [SemanticInfo]>,
    /// FNV-1a state over every entry in id order.
    fingerprint: u64,
}

/// Well-known semantic names, exposed as constants so host code can refer
/// to them without typo risk.
pub mod names {
    /// Receive-side-scaling flow hash (Toeplitz over the 5-tuple).
    pub const RSS_HASH: &str = "rss_hash";
    /// IPv4 header checksum validity / value.
    pub const IP_CHECKSUM: &str = "ip_checksum";
    /// L4 (TCP/UDP) checksum validity / value.
    pub const L4_CHECKSUM: &str = "l4_checksum";
    /// Stripped 802.1Q VLAN tag control information.
    pub const VLAN_TCI: &str = "vlan_tci";
    /// Hardware arrival timestamp (device clock).
    pub const TIMESTAMP: &str = "timestamp";
    /// Wire length of the received frame.
    pub const PKT_LEN: &str = "pkt_len";
    /// Parsed packet-type bitmap (L2/L3/L4 kinds).
    pub const PACKET_TYPE: &str = "packet_type";
    /// Flow tag / mark from a device flow table.
    pub const FLOW_TAG: &str = "flow_tag";
    /// IPv4 identification field (legacy e1000 metadata).
    pub const IP_ID: &str = "ip_id";
    /// Byte offset of the L4 payload start.
    pub const PAYLOAD_OFFSET: &str = "payload_offset";
    /// Extracted key-value-store request key hash (FlexNIC-style L5
    /// offload, the paper's Fig. 1 example).
    pub const KVS_KEY_HASH: &str = "kvs_key_hash";
    /// Queue/steering hint computed by the device.
    pub const QUEUE_HINT: &str = "queue_hint";
    /// Error/status bitmap for the received frame.
    pub const RX_STATUS: &str = "rx_status";
    /// Crypto context id for inline AES offload metadata.
    pub const CRYPTO_CTX: &str = "crypto_ctx";

    // --- TX-direction semantics: hints the NIC *consumes* from the
    // --- transmit descriptor (paper §3, channel ①). The software cost is
    // --- what the host pays to do the work itself when the layout cannot
    // --- carry the hint.
    /// Physical address of the frame buffer (structural; no fallback).
    pub const BUF_ADDR: &str = "buf_addr";
    /// Frame length (structural; no fallback).
    pub const BUF_LEN: &str = "buf_len";
    /// Request L4 checksum insertion on transmit.
    pub const TX_L4_CSUM: &str = "tx_l4_csum_offload";
    /// Request IPv4 header checksum insertion on transmit.
    pub const TX_IP_CSUM: &str = "tx_ip_csum_offload";
    /// Request 802.1Q tag insertion with the given TCI.
    pub const TX_VLAN_INSERT: &str = "tx_vlan_insert";
    /// TCP segmentation offload: maximum segment size.
    pub const TX_TSO_MSS: &str = "tx_tso_mss";
}

impl Default for SemanticRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

/// The well-known semantics and their default software costs, in id
/// order. Costs are calibrated against the softnic reference
/// implementations (see `opendesc-softnic`), in ns per packet on a
/// nominal 3 GHz core.
static BUILTINS: [SemanticInfo; 20] = [
    builtin(
        names::RSS_HASH,
        32,
        Cost::flat(40.0),
        "Toeplitz flow hash over the IP 5-tuple",
    ),
    builtin(
        names::IP_CHECKSUM,
        16,
        Cost::Finite {
            base_ns: 10.0,
            per_byte_ns: 0.15,
        },
        "IPv4 header checksum (validity or raw value)",
    ),
    builtin(
        names::L4_CHECKSUM,
        16,
        Cost::Finite {
            base_ns: 12.0,
            per_byte_ns: 0.25,
        },
        "TCP/UDP checksum over the full payload",
    ),
    builtin(
        names::VLAN_TCI,
        16,
        Cost::flat(6.0),
        "stripped 802.1Q tag control information",
    ),
    builtin(
        names::TIMESTAMP,
        64,
        Cost::Infinite,
        "hardware arrival timestamp; software cannot recover it",
    ),
    builtin(names::PKT_LEN, 16, Cost::flat(1.0), "received frame length"),
    builtin(
        names::PACKET_TYPE,
        16,
        Cost::flat(18.0),
        "parsed L2/L3/L4 packet-type bitmap",
    ),
    builtin(
        names::FLOW_TAG,
        32,
        Cost::flat(55.0),
        "flow-table tag (software emulates with a hash-table lookup)",
    ),
    builtin(
        names::IP_ID,
        16,
        Cost::flat(8.0),
        "IPv4 identification field",
    ),
    builtin(
        names::PAYLOAD_OFFSET,
        16,
        Cost::flat(14.0),
        "offset of the L4 payload within the frame",
    ),
    builtin(
        names::KVS_KEY_HASH,
        32,
        Cost::Finite {
            base_ns: 30.0,
            per_byte_ns: 0.5,
        },
        "hash of the key in a KVS request payload (L5 offload)",
    ),
    builtin(
        names::QUEUE_HINT,
        16,
        Cost::flat(25.0),
        "device-computed steering hint",
    ),
    builtin(
        names::RX_STATUS,
        16,
        Cost::flat(2.0),
        "receive status bitmap",
    ),
    builtin(
        names::CRYPTO_CTX,
        32,
        Cost::Infinite,
        "inline-crypto context id owned by the device",
    ),
    builtin(
        names::BUF_ADDR,
        64,
        Cost::Infinite,
        "TX frame buffer address (structural)",
    ),
    builtin(
        names::BUF_LEN,
        16,
        Cost::Infinite,
        "TX frame length (structural)",
    ),
    builtin(
        names::TX_L4_CSUM,
        16,
        Cost::Finite {
            base_ns: 12.0,
            per_byte_ns: 0.25,
        },
        "L4 checksum insertion on transmit",
    ),
    builtin(
        names::TX_IP_CSUM,
        16,
        Cost::Finite {
            base_ns: 10.0,
            per_byte_ns: 0.15,
        },
        "IPv4 header checksum insertion on transmit",
    ),
    builtin(
        names::TX_VLAN_INSERT,
        16,
        Cost::flat(15.0),
        "802.1Q tag insertion on transmit (software memmove)",
    ),
    builtin(
        names::TX_TSO_MSS,
        16,
        Cost::Finite {
            base_ns: 400.0,
            per_byte_ns: 0.1,
        },
        "TCP segmentation offload (software GSO fallback)",
    ),
];

/// [`SemanticRegistry::fingerprint`] of the builtins, computed at
/// compile time.
const BUILTINS_FINGERPRINT: u64 = fingerprint_of(&BUILTINS);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

const fn fnv_byte(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

/// `h` extended by the entry `info` holding id `id`: the id's
/// little-endian bytes, the name, the width's little-endian bytes and a
/// `0xFF` record separator.
const fn fnv_entry(mut h: u64, id: u32, info: &SemanticInfo) -> u64 {
    let id = id.to_le_bytes();
    let mut i = 0;
    while i < id.len() {
        h = fnv_byte(h, id[i]);
        i += 1;
    }
    let name = match &info.name {
        Cow::Borrowed(name) => name.as_bytes(),
        Cow::Owned(name) => name.as_bytes(),
    };
    i = 0;
    while i < name.len() {
        h = fnv_byte(h, name[i]);
        i += 1;
    }
    let width = info.width_bits.to_le_bytes();
    h = fnv_byte(h, width[0]);
    h = fnv_byte(h, width[1]);
    fnv_byte(h, 0xFF)
}

/// The fingerprint of a registry holding `infos`, from scratch.
const fn fingerprint_of(infos: &[SemanticInfo]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut i = 0;
    while i < infos.len() {
        h = fnv_entry(h, i as u32, &infos[i]);
        i += 1;
    }
    h
}

const fn builtin(
    name: &'static str,
    width_bits: u16,
    cost: Cost,
    doc: &'static str,
) -> SemanticInfo {
    SemanticInfo {
        name: Cow::Borrowed(name),
        width_bits,
        cost,
        doc: Cow::Borrowed(doc),
    }
}

impl SemanticRegistry {
    /// Empty registry (tests only; real users want [`with_builtins`]).
    ///
    /// [`with_builtins`]: SemanticRegistry::with_builtins
    pub fn empty() -> Self {
        SemanticRegistry {
            infos: Cow::Borrowed(&[]),
            fingerprint: FNV_OFFSET,
        }
    }

    /// Registry preloaded with the well-known semantics: the static
    /// table, borrowed.
    pub fn with_builtins() -> Self {
        SemanticRegistry {
            infos: Cow::Borrowed(&BUILTINS),
            fingerprint: BUILTINS_FINGERPRINT,
        }
    }

    /// Register a semantic. Registering an existing name replaces its
    /// width, cost and doc (applications may re-cost builtins for their
    /// workload), keeps the name it has, and returns the existing id.
    /// A new name extends the fingerprint; a replace that changes a
    /// width recomputes it.
    pub fn register(&mut self, info: SemanticInfo) -> SemanticId {
        if let Some(id) = self.id(&info.name) {
            let old = &mut self.infos.to_mut()[id.0 as usize];
            let rewidth = old.width_bits != info.width_bits;
            old.width_bits = info.width_bits;
            old.cost = info.cost;
            old.doc = info.doc;
            if rewidth {
                self.fingerprint = fingerprint_of(&self.infos);
            }
            return id;
        }
        let id = SemanticId(self.infos.len() as u32);
        self.fingerprint = fnv_entry(self.fingerprint, id.0, &info);
        self.infos.to_mut().push(info);
        id
    }

    /// Register a custom semantic by name with a flat cost — the extension
    /// hook the paper describes for application-defined offloads.
    pub fn register_custom(
        &mut self,
        name: &str,
        width_bits: u16,
        cost: Cost,
        doc: &str,
    ) -> SemanticId {
        self.register(SemanticInfo {
            name: Cow::Owned(name.into()),
            width_bits,
            cost,
            doc: Cow::Owned(doc.into()),
        })
    }

    /// Look up a semantic id by name.
    pub fn id(&self, name: &str) -> Option<SemanticId> {
        let at = self.infos.iter().position(|i| i.name == name)?;
        Some(SemanticId(at as u32))
    }

    /// Look up or create an id for `name`. Unknown semantics default to
    /// infinite software cost: the compiler must not silently pretend it
    /// can emulate something it has no implementation for.
    pub fn intern(&mut self, name: &str) -> SemanticId {
        if let Some(id) = self.id(name) {
            return id;
        }
        self.register(SemanticInfo {
            name: Cow::Owned(name.into()),
            width_bits: 0,
            cost: Cost::Infinite,
            doc: Cow::Owned(format!("unknown semantic `{name}` (auto-interned)")),
        })
    }

    /// Info for an id.
    pub fn info(&self, id: SemanticId) -> &SemanticInfo {
        &self.infos[id.0 as usize]
    }

    /// Name for an id.
    pub fn name(&self, id: SemanticId) -> &str {
        &self.infos[id.0 as usize].name
    }

    /// Software cost for an id.
    pub fn cost(&self, id: SemanticId) -> Cost {
        self.infos[id.0 as usize].cost
    }

    /// Override the cost of an existing semantic. Cost is not
    /// fingerprinted.
    pub fn set_cost(&mut self, id: SemanticId, cost: Cost) {
        self.infos.to_mut()[id.0 as usize].cost = cost;
    }

    /// Number of registered semantics.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Iterate over `(id, info)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SemanticId, &SemanticInfo)> {
        self.infos
            .iter()
            .enumerate()
            .map(|(i, info)| (SemanticId(i as u32), info))
    }

    /// Fingerprint of the id ↔ (name, width) assignment — FNV-1a over
    /// every interned semantic in id order. Two registries that assign
    /// the same names to different ids (or different widths) fingerprint
    /// differently, which is what lets plan caches key on *which*
    /// registry compiled an artifact rather than trusting name strings
    /// to mean the same thing everywhere. Kept up to date by
    /// [`register`](SemanticRegistry::register): a field read.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn builtins_present_with_expected_costs() {
        let r = SemanticRegistry::with_builtins();
        let rss = r.id(names::RSS_HASH).unwrap();
        assert_eq!(r.name(rss), "rss_hash");
        assert!(!r.cost(rss).is_infinite());
        let ts = r.id(names::TIMESTAMP).unwrap();
        assert!(r.cost(ts).is_infinite());
    }

    #[test]
    fn intern_unknown_gets_infinite_cost() {
        let mut r = SemanticRegistry::with_builtins();
        let id = r.intern("totally_new_feature");
        assert!(r.cost(id).is_infinite());
        // Interning again returns the same id.
        assert_eq!(r.intern("totally_new_feature"), id);
    }

    #[test]
    fn register_custom_overrides_cost() {
        let mut r = SemanticRegistry::with_builtins();
        let id = r.register_custom("kvs_key_hash", 32, Cost::flat(99.0), "re-costed");
        assert_eq!(Some(id), r.id(names::KVS_KEY_HASH));
        assert_eq!(r.cost(id).eval(64), 99.0);
    }

    #[test]
    fn cost_eval_includes_per_byte() {
        let c = Cost::Finite {
            base_ns: 10.0,
            per_byte_ns: 0.5,
        };
        assert_eq!(c.eval(100), 60.0);
        assert!(Cost::Infinite.eval(1).is_infinite());
    }

    #[test]
    fn fingerprint_distinguishes_id_assignments() {
        let builtins = SemanticRegistry::with_builtins();
        assert_eq!(builtins.fingerprint(), builtins.clone().fingerprint());
        // Same names, shifted ids: a leading dummy displaces everything.
        let mut shifted = SemanticRegistry::empty();
        shifted.register_custom("dummy_first", 8, Cost::flat(1.0), "shifts ids");
        for (_, info) in builtins.iter() {
            shifted.register(info.clone());
        }
        assert_ne!(builtins.fingerprint(), shifted.fingerprint());
        // Width changes also change the fingerprint.
        let mut rewidth = builtins.clone();
        rewidth.register_custom(names::RSS_HASH, 16, Cost::flat(40.0), "narrow");
        assert_ne!(builtins.fingerprint(), rewidth.fingerprint());
    }

    /// The fingerprint of `r` by the byte-serial definition, from
    /// scratch.
    fn fnv_from_scratch(r: &SemanticRegistry) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut byte = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for (id, info) in r.iter() {
            id.0.to_le_bytes().into_iter().for_each(&mut byte);
            info.name.bytes().for_each(&mut byte);
            info.width_bits
                .to_le_bytes()
                .into_iter()
                .for_each(&mut byte);
            byte(0xFF);
        }
        h
    }

    #[test]
    fn builtins_fingerprint_is_what_the_committed_manifests_carry() {
        let fp = format!("{:#018x}", SemanticRegistry::with_builtins().fingerprint());
        assert_eq!(fp, format!("{:#018x}", BUILTINS_FINGERPRINT));
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../manifests");
        let (mut files, mut seen) = (0, 0);
        for entry in std::fs::read_dir(dir).unwrap() {
            let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
            files += 1;
            for line in text.lines() {
                if let Some(v) = line.strip_prefix(r#"  "registry_fingerprint": "#) {
                    assert_eq!(v.trim_end_matches(',').trim_matches('"'), fp);
                    seen += 1;
                }
            }
        }
        assert!(
            files > 0 && seen == files,
            "{seen} of {files} manifests carry one"
        );
    }

    proptest! {
        /// Any sequence of registrations, interns, replaces (same or new
        /// width) and re-costs keeps the fingerprint equal to a
        /// from-scratch FNV over the registry.
        #[test]
        fn kept_fingerprint_equals_from_scratch(
            builtins in any::<bool>(),
            ops in proptest::collection::vec((0u8..4, 0usize..6, 1u16..=3), 0..40),
        ) {
            const POOL: [&str; 6] = ["rss_hash", "vlan_tci", "a", "b", "é→", ""];
            let mut r = if builtins {
                SemanticRegistry::with_builtins()
            } else {
                SemanticRegistry::empty()
            };
            prop_assert_eq!(r.fingerprint(), fnv_from_scratch(&r));
            for (op, name, width) in ops {
                let name = POOL[name];
                match op {
                    0 => {
                        r.register_custom(name, width * 8, Cost::flat(width as f64), "op");
                    }
                    1 => {
                        r.intern(name);
                    }
                    2 => {
                        if let Some(id) = r.id(name) {
                            r.set_cost(id, Cost::Infinite);
                        }
                    }
                    _ => {
                        // A replace that keeps the width.
                        if let Some(id) = r.id(name) {
                            let info = r.info(id).clone();
                            r.register(SemanticInfo { cost: Cost::flat(1.0), ..info });
                        }
                    }
                }
                prop_assert_eq!(r.fingerprint(), fnv_from_scratch(&r));
                prop_assert_eq!(r.clone().fingerprint(), r.fingerprint());
            }
        }
    }

    #[test]
    fn ids_stable_across_lookups() {
        let r = SemanticRegistry::with_builtins();
        let a = r.id(names::VLAN_TCI).unwrap();
        let b = r.id(names::VLAN_TCI).unwrap();
        assert_eq!(a, b);
        assert_eq!(r.iter().count(), r.len());
    }
}
