//! Plan bytecode: the compiled-execution form of an [`RxPlan`](crate::plan::RxPlan).
//!
//! A tree-walking interpreter re-dispatches on `PlanStep` and
//! re-derives each accessor's load strategy (alignment, width, offset
//! arithmetic inside `Accessor::read`) for every packet, which is
//! *slower* than per-packet accessors on hardware-heavy models (E12).
//! Lowering (see [`mod@crate::lower`]) runs that
//! derivation once, at compile time, and emits a compact register
//! bytecode: each instruction is a fixed 6-byte cell whose opcode
//! already encodes the load shape (`ld.be4` instead of "figure out how
//! to read 32 aligned bits"), so the per-packet loop is a single
//! jump-table dispatch over pre-resolved operations.
//!
//! One [`PlanProgram`] carries three instruction streams — `trusted`,
//! `verified`, and `degraded` — mirroring the three execution
//! dispositions of the self-healing datapath, which executes nothing
//! but this program. The verified and degraded runners take a
//! `(stride, idx)` output addressing pair: the datapath's column-major
//! batch passes `stride = cap, idx = pkt`, and the row-major wrappers
//! the equivalence suites call pass `stride = 1, idx = 0`. The trusted
//! stream the datapath runs transposed: each instruction runs across
//! the whole batch — a hardware load through [`load_column`], a shim
//! through [`shim_column`] over frames parsed once — amortizing even
//! the dispatch to once per field per batch; a batch the datapath
//! serves degraded runs the `degraded` stream through [`shim_column`]
//! the same way. [`PlanProgram::run_trusted`] is the trusted stream one
//! packet at a time, each shim through [`exec_shim`], for the suites.
//!
//! The differential-test oracle is the tree interpreter in the
//! `opendesc-reference` crate: `tests/vm_equivalence.rs` and that
//! crate's `conformance` hold every runner here equal to its
//! `execute_*` counterpart.

use opendesc_softnic::wire::ParsedFrame;
use opendesc_softnic::{ShimMemo, ShimOp, SoftNic};

use opendesc_ir::bits::{read_bits, read_bytes_be, width_mask, write_bits};

/// Opcodes of the plan bytecode. The `LD_*` family reads the completion
/// record into the destination slot; `SHIM` runs a SoftNIC op against
/// the parsed frame; `SHIM_CHECK` cross-checks a hardware slot against
/// its SoftNIC reference (verified mode's compare-and-repair).
pub mod op {
    /// `dst = cmpt[a]` — one-byte load.
    pub const LD_BE1: u8 = 0x01;
    /// `dst = be16(cmpt[a..a+2])`.
    pub const LD_BE2: u8 = 0x02;
    /// `dst = be32(cmpt[a..a+4])`.
    pub const LD_BE4: u8 = 0x03;
    /// `dst = be64(cmpt[a..a+8])`.
    pub const LD_BE8: u8 = 0x04;
    /// `dst = be(cmpt[a..a+b])` — aligned odd/wide widths (3, 5, 16 B…).
    pub const LD_BYTES: u8 = 0x05;
    /// `dst = bits(cmpt, offset_bits = a, width_bits = b)` — unaligned.
    pub const LD_BITS: u8 = 0x06;
    /// `dst = softnic(shim a)` over the parsed frame.
    pub const SHIM: u8 = 0x10;
    /// Compare slot `dst` (width `b` bits) against `softnic(shim a)`;
    /// on mismatch the software reference wins and the repair counts.
    pub const SHIM_CHECK: u8 = 0x11;
    /// `desc[a] = hints[dst]` — one-byte store (TX deparse).
    pub const ST_BE1: u8 = 0x21;
    /// `desc[a..a+2] = be16(hints[dst])`.
    pub const ST_BE2: u8 = 0x22;
    /// `desc[a..a+4] = be32(hints[dst])`.
    pub const ST_BE4: u8 = 0x23;
    /// `desc[a..a+8] = be64(hints[dst])`.
    pub const ST_BE8: u8 = 0x24;
    /// `desc[a..a+b] = be(hints[dst])` — aligned odd/wide widths.
    pub const ST_BYTES: u8 = 0x25;
    /// `bits(desc, offset_bits = a, width_bits = b) = hints[dst]`.
    pub const ST_BITS: u8 = 0x26;
}

/// One bytecode instruction: a fixed 6-byte cell (see the binary format
/// table in DESIGN.md). `dst` is the output slot — the accessor index,
/// which is also the metadata column. `a`/`b` are opcode-specific
/// operands (byte offset / bit offset / shim code, and length / width).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BcInsn {
    pub op: u8,
    pub dst: u8,
    pub a: u16,
    pub b: u16,
}

impl BcInsn {
    /// Serialize to the on-disk cell: `[op, dst, a.le, b.le]`.
    pub fn encode(&self) -> [u8; 6] {
        let a = self.a.to_le_bytes();
        let b = self.b.to_le_bytes();
        [self.op, self.dst, a[0], a[1], b[0], b[1]]
    }

    pub fn decode(cell: [u8; 6]) -> BcInsn {
        BcInsn {
            op: cell[0],
            dst: cell[1],
            a: u16::from_le_bytes([cell[2], cell[3]]),
            b: u16::from_le_bytes([cell[4], cell[5]]),
        }
    }
}

/// Stable numeric code of a shim op, used as the `a` operand of `SHIM`
/// and `SHIM_CHECK` instructions (part of the binary format — do not
/// renumber).
pub fn shim_code(op: ShimOp) -> u16 {
    match op {
        ShimOp::RssHash => 0,
        ShimOp::IpChecksum => 1,
        ShimOp::L4Checksum => 2,
        ShimOp::VlanTci => 3,
        ShimOp::PktLen => 4,
        ShimOp::PacketType => 5,
        ShimOp::IpId => 6,
        ShimOp::PayloadOffset => 7,
        ShimOp::FlowTag => 8,
        ShimOp::KvsKeyHash => 9,
        ShimOp::QueueHint => 10,
        ShimOp::RxStatus => 11,
        ShimOp::Unsupported => 12,
    }
}

/// Inverse of [`shim_code`]; unknown codes decode to `Unsupported`.
fn shim_from_code(code: u16) -> ShimOp {
    match code {
        0 => ShimOp::RssHash,
        1 => ShimOp::IpChecksum,
        2 => ShimOp::L4Checksum,
        3 => ShimOp::VlanTci,
        4 => ShimOp::PktLen,
        5 => ShimOp::PacketType,
        6 => ShimOp::IpId,
        7 => ShimOp::PayloadOffset,
        8 => ShimOp::FlowTag,
        9 => ShimOp::KvsKeyHash,
        10 => ShimOp::QueueHint,
        11 => ShimOp::RxStatus,
        _ => ShimOp::Unsupported,
    }
}

/// The bytecode form of one compiled plan: three instruction streams,
/// one per execution disposition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanProgram {
    /// Trusted-mode program: the hardware loads first (`hw_len` of
    /// them, so the batched runner can execute them columnar), then the
    /// software shims. Slots are disjoint, so the reorder relative to
    /// intent order is invisible in the output.
    pub trusted: Vec<BcInsn>,
    /// Number of hardware-load instructions at the head of `trusted`.
    pub hw_len: usize,
    /// Verified-mode program: hardware loads, then `SHIM_CHECK`
    /// cross-checks, then software shims.
    pub verified: Vec<BcInsn>,
    /// Degraded-mode program: software shims only; the runner clears
    /// every slot first (device-only fields come out `None`).
    pub degraded: Vec<BcInsn>,
    /// Output slots (= accessor count = metadata columns).
    pub slots: usize,
    /// TX deparse program: `ST_*` stores serializing the hint register
    /// file into descriptor bytes (empty for RX-only plans). `dst` here
    /// is the *input* hint register, not an output slot.
    pub deparse: Vec<BcInsn>,
}

/// Execute one hardware-load instruction against a completion record.
///
/// # Panics
/// Panics if the completion is shorter than the instruction's range —
/// the same contract as `Accessor::read`: the datapath's truncation
/// guard keeps short records away from loads.
#[inline(always)]
fn exec_load(insn: &BcInsn, cmpt: &[u8]) -> u128 {
    let off = insn.a as usize;
    match insn.op {
        op::LD_BE1 => ld_be::<1>(cmpt, off),
        op::LD_BE2 => ld_be::<2>(cmpt, off),
        op::LD_BE4 => ld_be::<4>(cmpt, off),
        op::LD_BE8 => ld_be::<8>(cmpt, off),
        op::LD_BYTES => read_bytes_be(cmpt, off, insn.b as usize),
        op::LD_BITS => read_bits(cmpt, insn.a as u32, insn.b),
        other => unreachable!("opcode {other:#x} is not a load"),
    }
}

/// The `LD_BE<N>` load shape: `N` ≤ 8 big-endian bytes at `off`.
#[inline(always)]
fn ld_be<const N: usize>(cmpt: &[u8], off: usize) -> u128 {
    let mut be = [0u8; 8];
    be[8 - N..].copy_from_slice(&cmpt[off..off + N]);
    u64::from_be_bytes(be) as u128
}

/// Execute one store instruction: serialize `hints[insn.dst]` into the
/// descriptor at the instruction's pre-resolved offset — the TX mirror
/// of [`exec_load`], with the same specialization idea (the opcode
/// already encodes the store shape, nothing is re-derived per packet).
///
/// # Panics
/// Panics if the descriptor is shorter than the instruction's range or
/// the hint register file shorter than `dst` — both are fixed at
/// lowering time, so a correctly-lowered plan can never trip this.
#[inline(always)]
fn exec_store(insn: &BcInsn, hints: &[u128], desc: &mut [u8]) {
    let v = hints[insn.dst as usize];
    let off = insn.a as usize;
    match insn.op {
        op::ST_BE1 => desc[off] = v as u8,
        op::ST_BE2 => desc[off..off + 2].copy_from_slice(&(v as u16).to_be_bytes()),
        op::ST_BE4 => desc[off..off + 4].copy_from_slice(&(v as u32).to_be_bytes()),
        op::ST_BE8 => desc[off..off + 8].copy_from_slice(&(v as u64).to_be_bytes()),
        op::ST_BYTES => write_bits(desc, off as u32 * 8, insn.b * 8, v),
        op::ST_BITS => write_bits(desc, insn.a as u32, insn.b, v),
        other => unreachable!("opcode {other:#x} is not a store"),
    }
}

/// Run one load instruction across a whole batch of completion records:
/// the load shape is matched once per column, and each shape's loop
/// over the records has nothing left to dispatch on.
#[inline]
pub fn load_column<C: AsRef<[u8]>>(insn: &BcInsn, cmpts: &[C], out: &mut [Option<u128>]) {
    #[inline(always)]
    fn fill<C: AsRef<[u8]>>(cmpts: &[C], out: &mut [Option<u128>], ld: impl Fn(&[u8]) -> u128) {
        for (o, c) in out[..cmpts.len()].iter_mut().zip(cmpts) {
            *o = Some(ld(c.as_ref()));
        }
    }
    let off = insn.a as usize;
    match insn.op {
        op::LD_BE1 => fill(cmpts, out, |c| ld_be::<1>(c, off)),
        op::LD_BE2 => fill(cmpts, out, |c| ld_be::<2>(c, off)),
        op::LD_BE4 => fill(cmpts, out, |c| ld_be::<4>(c, off)),
        op::LD_BE8 => fill(cmpts, out, |c| ld_be::<8>(c, off)),
        op::LD_BYTES => fill(cmpts, out, |c| read_bytes_be(c, off, insn.b as usize)),
        op::LD_BITS => fill(cmpts, out, |c| read_bits(c, insn.a as u32, insn.b)),
        other => unreachable!("opcode {other:#x} is not a load"),
    }
}

/// Run one `SHIM` instruction across a batch of parsed frames, one memo
/// per row — the software twin of [`load_column`]: the shim code is
/// decoded and the op matched once per column
/// ([`SoftNic::exec_column`]). A row whose frame was not parsed
/// (`None`) reads `None`.
#[inline]
pub fn shim_column(
    soft: &mut SoftNic,
    insn: &BcInsn,
    parsed: &[Option<ParsedFrame<'_>>],
    memos: &mut [ShimMemo],
    out: &mut [Option<u128>],
) {
    soft.exec_column(shim_from_code(insn.a), parsed, memos, out);
}

/// Execute one `SHIM` instruction for one packet (the per-packet
/// runners below; the datapath's trusted and degraded batches run
/// [`shim_column`]).
#[inline(always)]
pub fn exec_shim(
    soft: &mut SoftNic,
    insn: &BcInsn,
    parsed: Option<&ParsedFrame<'_>>,
    frame_len: usize,
    memo: &mut ShimMemo,
) -> Option<u128> {
    parsed
        .and_then(|p| soft.exec_op(shim_from_code(insn.a), p, frame_len, memo))
        .map(|v| v as u128)
}

impl PlanProgram {
    /// The hardware-load prefix of the trusted program.
    #[inline]
    pub fn hw_insns(&self) -> &[BcInsn] {
        &self.trusted[..self.hw_len]
    }

    /// The software-shim tail of the trusted program.
    #[inline]
    pub fn sw_insns(&self) -> &[BcInsn] {
        &self.trusted[self.hw_len..]
    }

    /// Whether trusted execution needs the frame parsed.
    #[inline]
    pub fn needs_parse(&self) -> bool {
        self.hw_len < self.trusted.len()
    }

    /// Trusted execution of one packet into `out[..slots]` — the
    /// per-packet statement of what the datapath's column loads and
    /// shim columns compute, held equal to the reference `execute_into_primed`
    /// by the equivalence suites.
    pub fn run_trusted(
        &self,
        soft: &mut SoftNic,
        frame: &[u8],
        cmpt: &[u8],
        rss_hint: Option<u32>,
        out: &mut [Option<u128>],
    ) {
        let parsed = if self.needs_parse() {
            ParsedFrame::parse(frame)
        } else {
            None
        };
        let mut memo = ShimMemo::default();
        if let Some(h) = rss_hint {
            memo.prime_rss(h);
        }
        for insn in &self.trusted {
            out[insn.dst as usize] = if insn.op == op::SHIM {
                exec_shim(soft, insn, parsed.as_ref(), frame.len(), &mut memo)
            } else {
                Some(exec_load(insn, cmpt))
            };
        }
    }

    /// Verified execution: hardware loads, compare-and-repair against
    /// the SoftNIC reference, unprimed software shims. Output slot `s`
    /// lands at `out[s * stride + idx]`. Returns the number of repaired
    /// fields. Held equal to the reference `execute_verified` by the
    /// equivalence suites.
    pub fn run_verified_at(
        &self,
        soft: &mut SoftNic,
        frame: &[u8],
        cmpt: &[u8],
        out: &mut [Option<u128>],
        stride: usize,
        idx: usize,
    ) -> u32 {
        let parsed = if self.verified.len() > self.hw_len {
            ParsedFrame::parse(frame)
        } else {
            None
        };
        let mut memo = ShimMemo::default();
        let mut repaired = 0;
        for insn in &self.verified {
            let slot = insn.dst as usize * stride + idx;
            match insn.op {
                op::SHIM => {
                    out[slot] = exec_shim(soft, insn, parsed.as_ref(), frame.len(), &mut memo);
                }
                op::SHIM_CHECK => {
                    let want = parsed
                        .as_ref()
                        .and_then(|p| {
                            soft.exec_op(shim_from_code(insn.a), p, frame.len(), &mut memo)
                        })
                        .map(|v| width_mask(insn.b) & v as u128);
                    if let Some(w) = want {
                        if out[slot] != Some(w) {
                            out[slot] = Some(w);
                            repaired += 1;
                        }
                    }
                }
                _ => out[slot] = Some(exec_load(insn, cmpt)),
            }
        }
        repaired
    }

    /// Row-major [`run_verified_at`](PlanProgram::run_verified_at).
    #[inline]
    pub fn run_verified(
        &self,
        soft: &mut SoftNic,
        frame: &[u8],
        cmpt: &[u8],
        out: &mut [Option<u128>],
    ) -> u32 {
        self.run_verified_at(soft, frame, cmpt, out, 1, 0)
    }

    /// Degraded execution, row-major: the completion is untrusted and
    /// never read; every slot is cleared, then the recomputable ones are
    /// filled from frame bytes. Held equal to the reference `execute_degraded`
    /// by the equivalence suites.
    #[inline]
    pub fn run_degraded(&self, soft: &mut SoftNic, frame: &[u8], out: &mut [Option<u128>]) {
        self.run_degraded_partial_at(soft, frame, 0, out, 1, 0)
    }

    /// Selective degraded re-serve: slots whose bit is set in `keep`
    /// retain their already-validated value; every other slot is
    /// cleared and recomputed from frame bytes (device-only fields come
    /// out `None`). `keep = 0` is full degraded execution, which is how
    /// the datapath serves a packet whose completion it will not read.
    pub fn run_degraded_partial_at(
        &self,
        soft: &mut SoftNic,
        frame: &[u8],
        keep: u128,
        out: &mut [Option<u128>],
        stride: usize,
        idx: usize,
    ) {
        for s in 0..self.slots {
            if keep & (1u128 << s) == 0 {
                out[s * stride + idx] = None;
            }
        }
        let parsed = ParsedFrame::parse(frame);
        let mut memo = ShimMemo::default();
        for insn in &self.degraded {
            if keep & (1u128 << insn.dst) != 0 {
                continue;
            }
            out[insn.dst as usize * stride + idx] =
                exec_shim(soft, insn, parsed.as_ref(), frame.len(), &mut memo);
        }
    }

    /// TX deparse: serialize the hint register file into descriptor
    /// bytes. Zeroes the descriptor first (unwritten slots must read as
    /// zero, as in a freshly allocated descriptor), then
    /// runs the `deparse` store stream.
    #[inline]
    pub fn run_deparse(&self, hints: &[u128], desc: &mut [u8]) {
        desc.fill(0);
        for insn in &self.deparse {
            exec_store(insn, hints, desc);
        }
    }

    /// Serialize to the container format documented in DESIGN.md:
    /// magic, version, slot count, then the instruction sections as
    /// `u16 count ++ count × 6-byte cells`. RX-only programs encode as
    /// version 1 (three sections, bit-compatible with older readers);
    /// programs carrying a TX deparse stream encode as version 2 with a
    /// fourth section.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            8 + 6
                * (self.trusted.len()
                    + self.verified.len()
                    + self.degraded.len()
                    + self.deparse.len()),
        );
        out.extend_from_slice(b"ODBC");
        let version = if self.deparse.is_empty() { 1 } else { 2 };
        out.push(version);
        out.push(self.slots as u8);
        let mut sections = vec![&self.trusted, &self.verified, &self.degraded];
        if version == 2 {
            sections.push(&self.deparse);
        }
        for section in sections {
            out.extend_from_slice(&(section.len() as u16).to_le_bytes());
            for insn in section.iter() {
                out.extend_from_slice(&insn.encode());
            }
        }
        out
    }

    /// FNV-1a content digest of the encoded container — the value a
    /// manifest pins so a consumer can check the plan bytecode it loads
    /// is the one that was negotiated.
    pub fn digest(&self) -> u64 {
        crate::codegen::manifest::fnv64(&self.encode())
    }

    /// Parse the container format back; `None` on any structural
    /// mismatch. `hw_len` is recomputed from the trusted section's
    /// load prefix. Accepts version 1 (RX-only) and version 2 (with a
    /// deparse section).
    pub fn decode(bytes: &[u8]) -> Option<PlanProgram> {
        if bytes.len() < 6 || &bytes[..4] != b"ODBC" || !(bytes[4] == 1 || bytes[4] == 2) {
            return None;
        }
        let n_sections = if bytes[4] == 2 { 4 } else { 3 };
        let slots = bytes[5] as usize;
        let mut pos = 6;
        let mut sections: [Vec<BcInsn>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for section in sections.iter_mut().take(n_sections) {
            let count = u16::from_le_bytes([*bytes.get(pos)?, *bytes.get(pos + 1)?]) as usize;
            pos += 2;
            for _ in 0..count {
                let cell: [u8; 6] = bytes.get(pos..pos + 6)?.try_into().ok()?;
                section.push(BcInsn::decode(cell));
                pos += 6;
            }
        }
        if pos != bytes.len() {
            return None;
        }
        let [trusted, verified, degraded, deparse] = sections;
        let hw_len = trusted
            .iter()
            .take_while(|i| i.op != op::SHIM && i.op != op::SHIM_CHECK)
            .count();
        Some(PlanProgram {
            trusted,
            hw_len,
            verified,
            degraded,
            slots,
            deparse,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insn_cell_roundtrips() {
        let insn = BcInsn {
            op: op::LD_BITS,
            dst: 7,
            a: 0x1234,
            b: 0x00FF,
        };
        assert_eq!(BcInsn::decode(insn.encode()), insn);
    }

    #[test]
    fn shim_codes_roundtrip() {
        for op in [
            ShimOp::RssHash,
            ShimOp::IpChecksum,
            ShimOp::L4Checksum,
            ShimOp::VlanTci,
            ShimOp::PktLen,
            ShimOp::PacketType,
            ShimOp::IpId,
            ShimOp::PayloadOffset,
            ShimOp::FlowTag,
            ShimOp::KvsKeyHash,
            ShimOp::QueueHint,
            ShimOp::RxStatus,
            ShimOp::Unsupported,
        ] {
            assert_eq!(shim_from_code(shim_code(op)), op);
        }
    }

    #[test]
    fn program_container_roundtrips() {
        let prog = PlanProgram {
            trusted: vec![
                BcInsn {
                    op: op::LD_BE4,
                    dst: 0,
                    a: 0,
                    b: 4,
                },
                BcInsn {
                    op: op::SHIM,
                    dst: 1,
                    a: shim_code(ShimOp::VlanTci),
                    b: 0,
                },
            ],
            hw_len: 1,
            verified: vec![BcInsn {
                op: op::SHIM_CHECK,
                dst: 0,
                a: shim_code(ShimOp::PktLen),
                b: 16,
            }],
            degraded: vec![BcInsn {
                op: op::SHIM,
                dst: 1,
                a: shim_code(ShimOp::VlanTci),
                b: 0,
            }],
            slots: 2,
            deparse: Vec::new(),
        };
        let bytes = prog.encode();
        assert_eq!(&bytes[..4], b"ODBC");
        assert_eq!(bytes[4], 1, "RX-only programs stay on the v1 container");
        assert_eq!(PlanProgram::decode(&bytes), Some(prog));
        // Truncated and corrupted containers are rejected, not panics.
        assert_eq!(PlanProgram::decode(&bytes[..bytes.len() - 1]), None);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(PlanProgram::decode(&bad), None);
    }

    #[test]
    fn specialized_loads_match_generic_bit_reads() {
        let cmpt: Vec<u8> = (0u8..32).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        for (opc, off, b, bits_off, bits_w) in [
            (op::LD_BE1, 3u16, 1u16, 24u32, 8u16),
            (op::LD_BE2, 4, 2, 32, 16),
            (op::LD_BE4, 8, 4, 64, 32),
            (op::LD_BE8, 16, 8, 128, 64),
            (op::LD_BYTES, 1, 3, 8, 24),
            (op::LD_BYTES, 0, 16, 0, 128),
        ] {
            let insn = BcInsn {
                op: opc,
                dst: 0,
                a: off,
                b,
            };
            assert_eq!(
                exec_load(&insn, &cmpt),
                read_bits(&cmpt, bits_off, bits_w),
                "opcode {opc:#x}"
            );
        }
        let unaligned = BcInsn {
            op: op::LD_BITS,
            dst: 0,
            a: 13,
            b: 27,
        };
        assert_eq!(exec_load(&unaligned, &cmpt), read_bits(&cmpt, 13, 27));
    }

    #[test]
    fn stores_roundtrip_through_loads() {
        // Every store shape must be read back exactly by the matching
        // load — the TX deparse and RX parse halves of the same cells.
        let hints: [u128; 3] = [0xDEAD_BEEF_CAFE_F00D, 0x1234, 0x5A];
        for (st, ld, dst, a, b) in [
            (op::ST_BE1, op::LD_BE1, 2u8, 3u16, 1u16),
            (op::ST_BE2, op::LD_BE2, 1, 4, 2),
            (op::ST_BE4, op::LD_BE4, 0, 8, 4),
            (op::ST_BE8, op::LD_BE8, 0, 0, 8),
            (op::ST_BYTES, op::LD_BYTES, 0, 1, 3),
        ] {
            let mut desc = vec![0u8; 16];
            let store = BcInsn { op: st, dst, a, b };
            exec_store(&store, &hints, &mut desc);
            let load = BcInsn { op: ld, dst, a, b };
            let width_bits = b * 8;
            assert_eq!(
                exec_load(&load, &desc),
                hints[dst as usize] & width_mask(width_bits),
                "store opcode {st:#x}"
            );
        }
        // Unaligned store: 27 bits at bit offset 13.
        let mut desc = vec![0u8; 16];
        let store = BcInsn {
            op: op::ST_BITS,
            dst: 0,
            a: 13,
            b: 27,
        };
        exec_store(&store, &hints, &mut desc);
        assert_eq!(read_bits(&desc, 13, 27), hints[0] & width_mask(27));
    }

    #[test]
    fn deparse_program_roundtrips_v2_container() {
        let prog = PlanProgram {
            deparse: vec![
                BcInsn {
                    op: op::ST_BE8,
                    dst: 0,
                    a: 0,
                    b: 8,
                },
                BcInsn {
                    op: op::ST_BE2,
                    dst: 1,
                    a: 8,
                    b: 2,
                },
            ],
            slots: 0,
            ..PlanProgram::default()
        };
        let bytes = prog.encode();
        assert_eq!(bytes[4], 2, "deparse-carrying programs use v2");
        assert_eq!(PlanProgram::decode(&bytes), Some(prog.clone()));
        // run_deparse zeroes stale bytes before storing.
        let mut desc = [0xFFu8; 12];
        prog.run_deparse(&[0xABCD, 0x0042], &mut desc);
        assert_eq!(&desc[..8], &0xABCDu64.to_be_bytes());
        assert_eq!(&desc[8..10], &0x0042u16.to_be_bytes());
        assert_eq!(&desc[10..], &[0, 0], "unwritten tail must be zeroed");
    }

    #[test]
    fn load_column_matches_scalar_loads() {
        let cmpts: Vec<Vec<u8>> = (0u8..7)
            .map(|i| (0u8..16).map(|j| i.wrapping_mul(31) ^ j).collect())
            .collect();
        let insn = BcInsn {
            op: op::LD_BE4,
            dst: 0,
            a: 4,
            b: 4,
        };
        let mut out = vec![None; cmpts.len()];
        load_column(&insn, &cmpts, &mut out);
        for (c, got) in cmpts.iter().zip(&out) {
            assert_eq!(*got, Some(exec_load(&insn, c)));
        }
    }
}
