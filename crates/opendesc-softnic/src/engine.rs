//! The SoftNIC engine: software reference implementations of every
//! well-known semantic (paper §4 step 4 — "SoftNIC shims").
//!
//! When the selected completion layout does not provide a requested
//! semantic, the compiled datapath runs its lowered [`ShimOp`] down the
//! batch ([`SoftNic::exec_column`]).
//! The engine is also what the paper calls the *reference implementation*
//! shipped with each feature: the NIC simulator's offload engine delegates
//! here so hardware and software compute identical values.

use crate::checksum::{verify_ipv4_checksum, verify_l4_checksum};
use crate::toeplitz::rss_frame;
use crate::wire::{ethertype, ipproto, ParsedFrame};
use opendesc_ir::semantics::{names, SemanticRegistry};
use opendesc_ir::SemanticId;
use std::collections::HashMap;

/// Bits of the `packet_type` semantic's bitmap.
pub mod ptype {
    pub const ETH: u16 = 1 << 0;
    pub const VLAN: u16 = 1 << 1;
    pub const IPV4: u16 = 1 << 2;
    pub const IPV6: u16 = 1 << 3;
    pub const TCP: u16 = 1 << 4;
    pub const UDP: u16 = 1 << 5;
    pub const ICMP: u16 = 1 << 6;
}

/// A software semantic lowered to a first-class operation.
///
/// The compiled datapath resolves each software accessor to a `ShimOp`
/// *once*, at compile time, instead of re-dispatching on the semantic's
/// name for every packet. Executing an op takes a pre-parsed
/// [`ParsedFrame`] so one parse is shared by every shim on the packet,
/// and a [`ShimMemo`] so intra-packet repeats (RSS feeding both
/// `rss_hash` and `queue_hint`) are computed once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShimOp {
    RssHash,
    IpChecksum,
    L4Checksum,
    VlanTci,
    PktLen,
    PacketType,
    IpId,
    PayloadOffset,
    FlowTag,
    KvsKeyHash,
    QueueHint,
    RxStatus,
    /// Semantics software cannot recompute (timestamps, crypto contexts)
    /// or that no reference implementation exists for.
    Unsupported,
}

impl ShimOp {
    /// Lower a semantic name to its operation. Unknown or
    /// software-incomputable semantics lower to [`ShimOp::Unsupported`].
    pub fn from_name(name: &str) -> ShimOp {
        match name {
            names::RSS_HASH => ShimOp::RssHash,
            names::IP_CHECKSUM => ShimOp::IpChecksum,
            names::L4_CHECKSUM => ShimOp::L4Checksum,
            names::VLAN_TCI => ShimOp::VlanTci,
            names::PKT_LEN => ShimOp::PktLen,
            names::PACKET_TYPE => ShimOp::PacketType,
            names::IP_ID => ShimOp::IpId,
            names::PAYLOAD_OFFSET => ShimOp::PayloadOffset,
            names::FLOW_TAG => ShimOp::FlowTag,
            names::KVS_KEY_HASH => ShimOp::KvsKeyHash,
            names::QUEUE_HINT => ShimOp::QueueHint,
            names::RX_STATUS => ShimOp::RxStatus,
            _ => ShimOp::Unsupported,
        }
    }
}

/// Per-packet memo shared by the shims of one packet: results that more
/// than one op may need are computed at most once. One memo per packet:
/// a column pass keeps one per row for every op it runs down the batch,
/// a per-packet runner resets (or makes fresh) one for each packet.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShimMemo {
    /// RSS over the frame: `None` = not computed yet; `Some(r)` caches
    /// the result (which may itself be `None` for non-IP frames).
    rss: Option<Option<u32>>,
}

impl ShimMemo {
    /// Clear for the next packet (keeps nothing allocated; exists so
    /// batch loops read naturally).
    pub fn reset(&mut self) {
        self.rss = None;
    }

    /// Seed the RSS slot with a hash computed elsewhere — the steering
    /// stage of a multi-queue NIC already ran Toeplitz over the flow
    /// tuple, and a real device reports that hash in the completion, so
    /// the host shims must not pay for it again. Every hash in the
    /// system is taken under the one key ([`crate::MSFT_RSS_KEY`]), so a
    /// hash the steering stage computed over this frame's tuple is the
    /// value [`SoftNic::rss`] would return.
    pub fn prime_rss(&mut self, rss: u32) {
        self.rss = Some(Some(rss));
    }
}

/// Checksum-status encoding shared by hardware models and software: the
/// 16-bit value is `0xFFFF` for "verified good", `0x0000` for "bad", and
/// anything else is the raw computed checksum (fixed-function NICs differ
/// in what they report; OpenDesc only needs both sides to agree, which
/// the contract guarantees).
pub mod csum_status {
    pub const GOOD: u16 = 0xFFFF;
    pub const BAD: u16 = 0x0000;
}

/// RX status bit encoding shared by hardware models and software: every
/// completed frame has both "descriptor done" and "end of packet" set
/// (the simulator delivers whole frames), so a status word missing
/// either bit is structurally invalid — the completion validator relies
/// on this.
pub mod rx_status {
    /// Descriptor done.
    pub const DD: u64 = 1 << 0;
    /// End of packet.
    pub const EOP: u64 = 1 << 1;
}

/// Software implementations of the semantic alphabet.
///
/// Stateless semantics are pure functions of the frame; `flow_tag`
/// emulates a device flow table with a host-side hash map (the run-time
/// cost the selection objective charges for it).
#[derive(Debug, Clone)]
pub struct SoftNic {
    /// Emulated flow table: packed 5-tuple → tag, insertion-ordered ids.
    flow_table: HashMap<u128, u32>,
    next_flow_tag: u32,
    /// Shim ops executed over this engine's lifetime (telemetry: the
    /// software half of the field-source mix).
    shim_ops: u64,
}

impl Default for SoftNic {
    fn default() -> Self {
        Self::new()
    }
}

impl SoftNic {
    pub fn new() -> Self {
        SoftNic {
            flow_table: HashMap::new(),
            next_flow_tag: 1,
            shim_ops: 0,
        }
    }

    /// Shim ops executed so far (every [`exec_op`] call, including ones
    /// that returned `None`; [`exec_column`] counts one per parsed row).
    ///
    /// [`exec_op`]: SoftNic::exec_op
    /// [`exec_column`]: SoftNic::exec_column
    pub fn shim_ops(&self) -> u64 {
        self.shim_ops
    }

    /// Register the engine's counters under `scope` (e.g.
    /// `rx.q0.softnic`).
    pub fn register_metrics(&self, reg: &mut opendesc_telemetry::MetricRegistry, scope: &str) {
        reg.counter(&format!("{scope}.shim_ops"), self.shim_ops);
        reg.counter(&format!("{scope}.flows"), self.flow_table.len() as u64);
    }

    /// Compute semantic `sem` over `frame`. Returns `None` when the
    /// semantic is software-incomputable (timestamps, crypto contexts) or
    /// the frame lacks the layers it needs.
    pub fn compute(
        &mut self,
        reg: &SemanticRegistry,
        sem: SemanticId,
        frame: &[u8],
    ) -> Option<u64> {
        self.compute_by_name(reg.name(sem), frame)
    }

    /// Compute a semantic by name (see [`compute`]).
    ///
    /// One-shot convenience over [`exec_op`]: parses the frame and
    /// dispatches per call. Hot paths should lower the name with
    /// [`ShimOp::from_name`] once and run [`exec_op`] against a shared
    /// parse instead.
    ///
    /// [`compute`]: SoftNic::compute
    /// [`exec_op`]: SoftNic::exec_op
    pub fn compute_by_name(&mut self, name: &str, frame: &[u8]) -> Option<u64> {
        let p = ParsedFrame::parse(frame)?;
        self.exec_op(
            ShimOp::from_name(name),
            &p,
            frame.len(),
            &mut ShimMemo::default(),
        )
    }

    /// Execute one pre-lowered shim op against a pre-parsed frame.
    ///
    /// `frame_len` is the full L2 frame length (`pkt_len` reports it even
    /// though `ParsedFrame` only borrows the frame). `memo` carries
    /// intra-packet shared results; pass the same memo for every op of one
    /// packet and a fresh/reset one for the next.
    #[inline]
    pub fn exec_op(
        &mut self,
        op: ShimOp,
        p: &ParsedFrame<'_>,
        frame_len: usize,
        memo: &mut ShimMemo,
    ) -> Option<u64> {
        self.shim_ops += 1;
        match op {
            ShimOp::RssHash => self.rss_memo(p, memo).map(|h| h as u64),
            ShimOp::IpChecksum => {
                let ip = p.ipv4?;
                Some(if verify_ipv4_checksum(ip.header()) {
                    csum_status::GOOD as u64
                } else {
                    csum_status::BAD as u64
                })
            }
            ShimOp::L4Checksum => {
                p.ipv4?;
                p.ports()?;
                Some(if verify_l4_checksum(p) {
                    csum_status::GOOD as u64
                } else {
                    csum_status::BAD as u64
                })
            }
            ShimOp::VlanTci => p.vlan_tci.map(|t| t as u64),
            ShimOp::PktLen => Some(frame_len as u64),
            ShimOp::PacketType => Some(self.packet_type(p) as u64),
            ShimOp::IpId => p.ipv4.map(|ip| ip.ident() as u64),
            ShimOp::PayloadOffset => p.payload_offset().map(|o| o as u64),
            ShimOp::FlowTag => self.flow_tag(p).map(|t| t as u64),
            ShimOp::KvsKeyHash => kvs_key_hash(p.l4_payload()?).map(|h| h as u64),
            ShimOp::QueueHint => {
                // Steering hint: low bits of the RSS hash (RSS++-style).
                self.rss_memo(p, memo).map(|h| (h & 0xFF) as u64)
            }
            ShimOp::RxStatus => {
                // Software receives complete frames, so both bits are
                // always set.
                Some(rx_status::DD | rx_status::EOP)
            }
            // Semantics software cannot recompute (timestamp, crypto_ctx)
            // or that have no reference implementation.
            ShimOp::Unsupported => None,
        }
    }

    /// Run one op down a column of parsed frames: `out[i]` is what
    /// [`exec_op`] returns for `parsed[i]` under `memos[i]`, and a row
    /// that did not parse (`None`) reads `None` without running the op.
    /// The op is matched once per column, so each arm's loop runs the
    /// inlined `exec_op` on a constant op: nothing is left to dispatch
    /// on per row. A frame's length is that of its Ethernet view.
    /// Always inlined: a one-row column (the one-slot `poll`) would
    /// otherwise pay a call per op that per-packet execution does not.
    ///
    /// # Panics
    /// Panics if `memos` or `out` is shorter than `parsed`.
    ///
    /// [`exec_op`]: SoftNic::exec_op
    #[inline(always)]
    pub fn exec_column(
        &mut self,
        op: ShimOp,
        parsed: &[Option<ParsedFrame<'_>>],
        memos: &mut [ShimMemo],
        out: &mut [Option<u128>],
    ) {
        #[inline(always)]
        fn run(
            soft: &mut SoftNic,
            op: ShimOp,
            parsed: &[Option<ParsedFrame<'_>>],
            memos: &mut [ShimMemo],
            out: &mut [Option<u128>],
        ) {
            for ((o, p), memo) in out.iter_mut().zip(parsed).zip(memos) {
                *o = p
                    .as_ref()
                    .and_then(|p| soft.exec_op(op, p, p.eth.as_bytes().len(), memo))
                    .map(u128::from);
            }
        }
        let rows = parsed.len();
        let (memos, out) = (&mut memos[..rows], &mut out[..rows]);
        macro_rules! each {
            ($($op:ident),*) => {
                match op {
                    $(ShimOp::$op => run(self, ShimOp::$op, parsed, memos, out),)*
                }
            };
        }
        each!(
            RssHash,
            IpChecksum,
            L4Checksum,
            VlanTci,
            PktLen,
            PacketType,
            IpId,
            PayloadOffset,
            FlowTag,
            KvsKeyHash,
            QueueHint,
            RxStatus,
            Unsupported
        );
    }

    /// Memoized [`rss`]: computed at most once per (`packet`, `memo`)
    /// even when several ops need it (`rss_hash` + `queue_hint`).
    ///
    /// [`rss`]: SoftNic::rss
    #[inline]
    fn rss_memo(&self, p: &ParsedFrame<'_>, memo: &mut ShimMemo) -> Option<u32> {
        if let Some(cached) = memo.rss {
            return cached;
        }
        let r = self.rss(p);
        memo.rss = Some(r);
        r
    }

    /// Toeplitz RSS over the 4-tuple (falls back to the 2-tuple for
    /// non-TCP/UDP IPv4 traffic); see [`rss_frame`].
    #[inline]
    pub fn rss(&self, p: &ParsedFrame<'_>) -> Option<u32> {
        rss_frame(p)
    }

    /// Packet-type bitmap (see [`ptype`]).
    #[inline]
    pub fn packet_type(&self, p: &ParsedFrame<'_>) -> u16 {
        let mut t = ptype::ETH | (ptype::VLAN * p.vlan_tci.is_some() as u16);
        match p.eth.ethertype() {
            Some(ethertype::IPV6) => t |= ptype::IPV6,
            Some(ethertype::IPV4) if p.ipv4.is_some() => {
                t |= ptype::IPV4;
                match p.ipv4.as_ref().unwrap().protocol() {
                    ipproto::TCP => t |= ptype::TCP,
                    ipproto::UDP => t |= ptype::UDP,
                    ipproto::ICMP => t |= ptype::ICMP,
                    _ => {}
                }
            }
            _ => {}
        }
        t
    }

    /// Emulated flow-table tag: stable per 5-tuple, assigned on first
    /// sight. The table is keyed by the whole 104-bit tuple, so two
    /// flows never share a tag.
    pub fn flow_tag(&mut self, p: &ParsedFrame<'_>) -> Option<u32> {
        let ip = p.ipv4.as_ref()?;
        let (sp, dp) = p.ports()?;
        let key = (ip.src() as u128) << 72
            | (ip.dst() as u128) << 40
            | (sp as u128) << 24
            | (dp as u128) << 8
            | ip.protocol() as u128;
        let tag = *self.flow_table.entry(key).or_insert_with(|| {
            let t = self.next_flow_tag;
            self.next_flow_tag = self.next_flow_tag.wrapping_add(1).max(1);
            t
        });
        Some(tag)
    }
}

/// FNV-1a hash of the key in a memcached-style `get <key>\r\n` request —
/// the reference implementation of the `kvs_key_hash` semantic (the
/// paper's Fig. 1 "result of a specific feature" example, after
/// FlexNIC's KVS offload).
///
/// The key ends at the first `\r\n` (or with the payload); one pass
/// finds that end and hashes what comes before it.
#[inline]
pub fn kvs_key_hash(payload: &[u8]) -> Option<u32> {
    let mut rest = payload.strip_prefix(b"get ")?.iter();
    let mut h: u32 = 0x811c9dc5;
    let mut len = 0;
    while let Some(&b) = rest.next() {
        if b == b'\r' && rest.as_slice().first() == Some(&b'\n') {
            break;
        }
        h ^= b as u32;
        h = h.wrapping_mul(0x01000193);
        len += 1;
    }
    (len > 0).then_some(h)
}

// Send audit (sharded RX engine): every worker thread owns its own
// `SoftNic` + `ShimMemo`, so both must be `Send`. The flow table is a
// plain owned `HashMap` — nothing holds interior mutability or shared
// references. Checked at compile time so a future field can't silently
// break the multi-core datapath.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SoftNic>();
    assert_send::<ShimMemo>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testpkt;
    use crate::toeplitz::rss_ipv4_l4;
    use proptest::prelude::*;

    fn udp_frame() -> Vec<u8> {
        testpkt::udp4([10, 1, 0, 1], [10, 1, 0, 2], 5000, 6000, b"payload", None)
    }

    #[test]
    fn rss_matches_toeplitz_reference() {
        let mut sn = SoftNic::new();
        let f = udp_frame();
        let got = sn.compute_by_name(names::RSS_HASH, &f).unwrap();
        let want = rss_ipv4_l4(
            u32::from_be_bytes([10, 1, 0, 1]),
            u32::from_be_bytes([10, 1, 0, 2]),
            5000,
            6000,
        ) as u64;
        assert_eq!(got, want);
    }

    #[test]
    fn checksums_report_good_then_bad() {
        let mut sn = SoftNic::new();
        let mut f = udp_frame();
        assert_eq!(
            sn.compute_by_name(names::IP_CHECKSUM, &f),
            Some(csum_status::GOOD as u64)
        );
        assert_eq!(
            sn.compute_by_name(names::L4_CHECKSUM, &f),
            Some(csum_status::GOOD as u64)
        );
        let n = f.len() - 1;
        f[n] ^= 0xA5; // corrupt payload → L4 bad, IP header still good
        assert_eq!(
            sn.compute_by_name(names::IP_CHECKSUM, &f),
            Some(csum_status::GOOD as u64)
        );
        assert_eq!(
            sn.compute_by_name(names::L4_CHECKSUM, &f),
            Some(csum_status::BAD as u64)
        );
    }

    #[test]
    fn vlan_tci_only_when_tagged() {
        let mut sn = SoftNic::new();
        assert_eq!(sn.compute_by_name(names::VLAN_TCI, &udp_frame()), None);
        let f = testpkt::udp4([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, b"", Some(0x3064));
        assert_eq!(sn.compute_by_name(names::VLAN_TCI, &f), Some(0x3064));
    }

    #[test]
    fn packet_type_bitmap() {
        let mut sn = SoftNic::new();
        let udp = sn
            .compute_by_name(names::PACKET_TYPE, &udp_frame())
            .unwrap() as u16;
        assert_eq!(udp, ptype::ETH | ptype::IPV4 | ptype::UDP);
        let f = testpkt::tcp4([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, b"", Some(5));
        let tcp = sn.compute_by_name(names::PACKET_TYPE, &f).unwrap() as u16;
        assert_eq!(tcp, ptype::ETH | ptype::VLAN | ptype::IPV4 | ptype::TCP);
    }

    #[test]
    fn flow_tags_stable_per_flow() {
        let mut sn = SoftNic::new();
        let a1 = testpkt::udp4([10, 0, 0, 1], [10, 0, 0, 2], 100, 200, b"x", None);
        let a2 = testpkt::udp4([10, 0, 0, 1], [10, 0, 0, 2], 100, 200, b"yyy", None);
        let b = testpkt::udp4([10, 0, 0, 1], [10, 0, 0, 2], 101, 200, b"x", None);
        let ta1 = sn.compute_by_name(names::FLOW_TAG, &a1).unwrap();
        let ta2 = sn.compute_by_name(names::FLOW_TAG, &a2).unwrap();
        let tb = sn.compute_by_name(names::FLOW_TAG, &b).unwrap();
        assert_eq!(ta1, ta2, "same 5-tuple, same tag");
        assert_ne!(ta1, tb, "different flow, different tag");
        assert_eq!(sn.flow_table.len(), 2);
    }

    #[test]
    fn flow_tags_key_on_the_whole_tuple() {
        // Equal under a 64-bit XOR fold of the tuple, distinct flows.
        let mut sn = SoftNic::new();
        let a = testpkt::udp4([0, 0, 0, 0], [0, 0, 0, 0], 1, 0, b"", None);
        let b = testpkt::udp4([0, 1, 0, 0], [0, 0, 0, 0], 0, 0, b"", None);
        let ta = sn.compute_by_name(names::FLOW_TAG, &a).unwrap();
        let tb = sn.compute_by_name(names::FLOW_TAG, &b).unwrap();
        assert_ne!(ta, tb, "distinct 5-tuples share a tag");
        assert_eq!(sn.flow_table.len(), 2);
    }

    /// The two-pass definition [`kvs_key_hash`] folds into one loop:
    /// find the first CRLF, then FNV-1a over what precedes it.
    fn kvs_key_hash_two_pass(payload: &[u8]) -> Option<u32> {
        let rest = payload.strip_prefix(b"get ")?;
        let end = rest
            .windows(2)
            .position(|w| w == b"\r\n")
            .unwrap_or(rest.len());
        let key = &rest[..end];
        if key.is_empty() {
            return None;
        }
        let mut h: u32 = 0x811c9dc5;
        for &b in key {
            h ^= b as u32;
            h = h.wrapping_mul(0x01000193);
        }
        Some(h)
    }

    fn arb_kvs_payload() -> impl Strategy<Value = Vec<u8>> {
        // Bytes biased toward the ones the key scan looks at.
        let byte = prop_oneof![Just(b'\r'), Just(b'\n'), Just(b'a'), any::<u8>()];
        let body = proptest::collection::vec(byte, 0..24);
        let prefix = prop_oneof![
            Just(b"get ".to_vec()),
            Just(b"set ".to_vec()),
            Just(b"get".to_vec()),
            Just(Vec::new()),
            proptest::collection::vec(any::<u8>(), 0..6),
        ];
        (prefix, body).prop_map(|(mut p, b)| {
            p.extend_from_slice(&b);
            p
        })
    }

    proptest! {
        #[test]
        fn kvs_key_hash_equals_its_two_pass_definition(payload in arb_kvs_payload()) {
            prop_assert_eq!(kvs_key_hash(&payload), kvs_key_hash_two_pass(&payload));
        }
    }

    #[test]
    fn kvs_key_hash_edges_match_the_two_pass_definition() {
        for payload in [
            &b"get \r\n"[..],
            b"get \r\nkey",
            b"get a\rb\r\n",
            b"get a\r",
            b"get \r",
            b"get \n\r\n",
            b"get a\n\rb",
            b"get abc",
            b"get ",
            b"get",
            b"GET a\r\n",
            b"set a 1\r\n",
            b"",
        ] {
            assert_eq!(
                kvs_key_hash(payload),
                kvs_key_hash_two_pass(payload),
                "{payload:?}"
            );
        }
    }

    #[test]
    fn kvs_key_hash_parses_get_requests() {
        assert!(kvs_key_hash(b"get user:42\r\n").is_some());
        assert_eq!(kvs_key_hash(b"get a\r\n"), kvs_key_hash(b"get a\r\n"));
        assert_ne!(kvs_key_hash(b"get a\r\n"), kvs_key_hash(b"get b\r\n"));
        assert_eq!(kvs_key_hash(b"set a 1\r\n"), None);
        assert_eq!(kvs_key_hash(b"get \r\n"), None);
        // Missing CRLF still hashes the remainder.
        assert_eq!(kvs_key_hash(b"get abc"), kvs_key_hash(b"get abc\r\n"));
    }

    #[test]
    fn kvs_semantic_via_frame() {
        let mut sn = SoftNic::new();
        let f = testpkt::udp4(
            [10, 0, 0, 9],
            [10, 0, 0, 10],
            31337,
            11211,
            &testpkt::kvs_get_payload("session:9"),
            None,
        );
        let h = sn.compute_by_name(names::KVS_KEY_HASH, &f).unwrap();
        assert_eq!(h as u32, kvs_key_hash(b"get session:9\r\n").unwrap());
    }

    #[test]
    fn incomputable_semantics_return_none() {
        let mut sn = SoftNic::new();
        assert_eq!(sn.compute_by_name(names::TIMESTAMP, &udp_frame()), None);
        assert_eq!(sn.compute_by_name(names::CRYPTO_CTX, &udp_frame()), None);
        assert_eq!(
            sn.compute_by_name("nonexistent_semantic", &udp_frame()),
            None
        );
    }

    #[test]
    fn pkt_len_and_payload_offset() {
        let mut sn = SoftNic::new();
        let f = udp_frame();
        assert_eq!(sn.compute_by_name(names::PKT_LEN, &f), Some(f.len() as u64));
        assert_eq!(
            sn.compute_by_name(names::PAYLOAD_OFFSET, &f),
            Some((14 + 20 + 8) as u64)
        );
    }

    #[test]
    fn queue_hint_is_rss_low_bits() {
        let mut sn = SoftNic::new();
        let f = udp_frame();
        let rss = sn.compute_by_name(names::RSS_HASH, &f).unwrap();
        let hint = sn.compute_by_name(names::QUEUE_HINT, &f).unwrap();
        assert_eq!(hint, rss & 0xFF);
    }

    #[test]
    fn exec_op_matches_name_dispatch_for_every_semantic() {
        let reg = SemanticRegistry::with_builtins();
        let mut by_name = SoftNic::new();
        let mut by_op = SoftNic::new();
        let frames = [
            udp_frame(),
            testpkt::tcp4([1, 1, 1, 1], [2, 2, 2, 2], 7, 8, b"hi", Some(0x0123)),
            b"\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x86\xddrest".to_vec(),
        ];
        for f in &frames {
            for (_, info) in reg.iter() {
                let want = by_name.compute_by_name(&info.name, f);
                let got = ParsedFrame::parse(f).and_then(|p| {
                    by_op.exec_op(
                        ShimOp::from_name(&info.name),
                        &p,
                        f.len(),
                        &mut ShimMemo::default(),
                    )
                });
                assert_eq!(got, want, "mismatch for {} on {:02x?}", info.name, &f[..4]);
            }
        }
    }

    #[test]
    fn memo_shares_rss_between_hash_and_hint() {
        let sn = SoftNic::new();
        let f = udp_frame();
        let p = ParsedFrame::parse(&f).unwrap();
        let mut memo = ShimMemo::default();
        let direct = sn.rss(&p);
        assert_eq!(sn.rss_memo(&p, &mut memo), direct);
        // Cached result is reused (same value back without recompute).
        assert_eq!(sn.rss_memo(&p, &mut memo), direct);
        memo.reset();
        assert_eq!(sn.rss_memo(&p, &mut memo), direct);
        // Non-IP frames cache the `None` too.
        let arp = b"\xff\xff\xff\xff\xff\xff\x00\x01\x02\x03\x04\x05\x08\x06body".to_vec();
        let p2 = ParsedFrame::parse(&arp).unwrap();
        let mut memo2 = ShimMemo::default();
        assert_eq!(sn.rss_memo(&p2, &mut memo2), None);
        assert_eq!(sn.rss_memo(&p2, &mut memo2), None);
    }

    #[test]
    fn primed_memo_is_trusted_and_skips_recompute() {
        let sn = SoftNic::new();
        let f = udp_frame();
        let p = ParsedFrame::parse(&f).unwrap();
        let want = sn.rss(&p).unwrap();
        let mut memo = ShimMemo::default();
        memo.prime_rss(want);
        assert_eq!(sn.rss_memo(&p, &mut memo), Some(want));
        // Priming is the caller's contract: whatever was primed is what
        // the shims observe (no silent recompute).
        let mut wrong = ShimMemo::default();
        wrong.prime_rss(0xDEAD_BEEF);
        assert_eq!(sn.rss_memo(&p, &mut wrong), Some(0xDEAD_BEEF));
        wrong.reset();
        assert_eq!(sn.rss_memo(&p, &mut wrong), Some(want));
    }

    #[test]
    fn registry_dispatch_equivalent_to_name_dispatch() {
        let reg = SemanticRegistry::with_builtins();
        let mut sn1 = SoftNic::new();
        let mut sn2 = SoftNic::new();
        let f = udp_frame();
        for (id, info) in reg.iter() {
            assert_eq!(
                sn1.compute(&reg, id, &f),
                sn2.compute_by_name(&info.name, &f),
                "mismatch for {}",
                info.name
            );
        }
    }
}
