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
//! to read 32 aligned bits"), so nothing is re-derived per packet.
//!
//! One [`PlanProgram`] carries three instruction streams — `trusted`,
//! `verified`, and `degraded` — mirroring the three execution
//! dispositions of the self-healing datapath, which executes nothing
//! but this program. Every stream runs transposed: each instruction
//! runs down a whole column of rows, so dispatch is paid once per
//! field per batch. A hardware load goes through [`load_column`]; a
//! shim through [`shim_column`] and a cross-check through
//! `check_column`, both over frames [`run_rows`] parses once per row,
//! a chunk of rows at a time. How a chunk's rows are set up — primed
//! or not, cross-checked or not — is the pass's [`Rows`] kind. The rows
//! a trusted batch distrusts are re-served by [`reserve_rows`], with a
//! keep mask per row. There is no per-packet runner.
//!
//! The differential-test oracle is the tree interpreter in the
//! `opendesc-reference` crate: `tests/vm_equivalence.rs` and that
//! crate's `conformance` hold the rows the datapath delivers in each
//! disposition equal to its `execute_*` counterpart, and hold
//! [`reserve_rows`] equal to `execute_degraded_partial` under
//! arbitrary keep masks.

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
    /// them, so the datapath can run them apart from the shims), then
    /// the software shims. Slots are disjoint, so the reorder relative to
    /// intent order is invisible in the output.
    pub trusted: Vec<BcInsn>,
    /// Number of hardware-load instructions at the head of `trusted`.
    pub hw_len: usize,
    /// Verified-mode program: hardware loads, then `SHIM_CHECK`
    /// cross-checks, then software shims.
    pub verified: Vec<BcInsn>,
    /// Degraded-mode program: software shims only; the datapath clears
    /// every slot it recomputes first (device-only fields come out
    /// `None`).
    pub degraded: Vec<BcInsn>,
    /// Output slots (= accessor count = metadata columns).
    pub slots: usize,
    /// TX deparse program: `ST_*` stores serializing the hint register
    /// file into descriptor bytes (empty for RX-only plans). `dst` here
    /// is the *input* hint register, not an output slot.
    pub deparse: Vec<BcInsn>,
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
/// of a load ([`load_column`]), with the same specialization idea (the opcode
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
/// over the records has nothing left to dispatch on. Always inlined:
/// out of line, the trusted batch paid a call per hardware field.
#[inline(always)]
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

/// Run one `SHIM_CHECK` instruction down a column of at most
/// [`CHUNK_ROWS`] rows (one chunk of [`run_rows`]): each row's slot in
/// `out` holds the value loaded from its completion and is compared
/// with the SoftNIC reference masked to the slot's `b` bits. A row
/// whose reference differs takes it, and its cell of `repairs` counts
/// one more repair; a row without a reference (frame not parsed, or
/// the shim cannot compute) keeps what was loaded. A row whose slot is
/// `None` had nothing loaded — a truncated record — and takes the
/// reference as computed, which is what the degraded stream gives it;
/// that is not a repair. Out of line: a verified pass is the rare one.
#[inline(never)]
fn check_column(
    soft: &mut SoftNic,
    insn: &BcInsn,
    parsed: &[Option<ParsedFrame<'_>>],
    memos: &mut [ShimMemo],
    out: &mut [Option<u128>],
    repairs: &mut [u32],
) {
    let mut want = [None; CHUNK_ROWS];
    let want = &mut want[..parsed.len()];
    shim_column(soft, insn, parsed, memos, want);
    let mask = width_mask(insn.b);
    for ((o, w), r) in out.iter_mut().zip(&*want).zip(repairs) {
        match (*o, *w) {
            (None, w) => *o = w,
            (Some(v), Some(w)) if v != w & mask => {
                *o = Some(w & mask);
                *r += 1;
            }
            _ => {}
        }
    }
}

/// Rows one column pass holds — parsed frames here, record slices in
/// the datapath's hardware loads: the common 32-packet batch. A
/// chunk is set up whole, rows past the batch's end too, so a 64-row
/// chunk (one structural fail word) made a 32-packet batch's shim pass
/// ~4 % slower.
pub(crate) const CHUNK_ROWS: usize = 32;

/// How [`run_rows`] sets up each row before the columns run.
pub enum Rows<'a> {
    /// The trusted stream's software tail over every row: a truncated
    /// record's row (`short`) is not parsed and reads `None`, and the
    /// steering hint primes the row's memo, so software RSS steps are
    /// lookups, not Toeplitz runs.
    Trusted {
        hints: &'a [Option<u32>],
        short: &'a [bool],
    },
    /// The degraded stream over every row: each frame parsed, no memo
    /// primed. The caller has cleared every slot.
    Degraded,
    /// The verified stream's checks and shims over every row, no memo
    /// primed, each `SHIM_CHECK` through `check_column` counting the
    /// row's repairs into `repairs`. A truncated record's row, cleared
    /// by the caller and never loaded, is served as the degraded stream
    /// with `keep = 0` serves it: lowering emits the degraded stream as
    /// exactly the verified stream's checks and shims.
    Verified { repairs: &'a mut [u32] },
}

/// Run `insns` down the rows of a column-major batch — slot `s` of row
/// `r` at `meta[s * stride + r]`, `frames[r]` its frame — in chunks of
/// 32 rows, or of one row when `stride` is 1 (the one-slot batch of
/// `poll`, which so sets up one row of scratch, not a chunk).
/// A chunk parses each row's frame once and sets up its memo as `rows`
/// says, then runs each instruction down the chunk ([`shim_column`],
/// `check_column`). Rows are visited in row order by every column, so
/// a stateful shim (`flow_tag`) numbers flows as a packet-by-packet
/// pass would.
#[inline(always)]
pub fn run_rows<F: AsRef<[u8]>>(
    soft: &mut SoftNic,
    insns: &[BcInsn],
    frames: &[F],
    rows: Rows<'_>,
    meta: &mut [Option<u128>],
    stride: usize,
) {
    if stride == 1 {
        rows_in_chunks::<1, F>(soft, insns, frames, rows, meta, stride);
    } else {
        rows_in_chunks::<CHUNK_ROWS, F>(soft, insns, frames, rows, meta, stride);
    }
}

/// Re-serve the listed rows of a column-major batch (laid out as for
/// [`run_rows`]) through the degraded stream `insns`: `(row, keep)` in
/// row order, every frame parsed and no memo primed. A slot whose bit
/// is set in the row's `keep` holds its value (its shim does not run);
/// every other slot is cleared and recomputed from the frame
/// (device-only fields come out `None`). `keep = 0` serves a row whose
/// completion is not read. Unlisted rows are not touched. The listed
/// rows are scattered, so each is set up and served on its own, as a
/// one-row column per instruction whose slot it does not keep. Out of
/// line, like `check_column`, so the passes that run on every batch
/// stay small.
#[inline(never)]
pub fn reserve_rows<F: AsRef<[u8]>>(
    soft: &mut SoftNic,
    insns: &[BcInsn],
    frames: &[F],
    list: &[(usize, u128)],
    meta: &mut [Option<u128>],
    stride: usize,
) {
    let slots = meta.len() / stride;
    for &(row, keep) in list {
        for s in (0..slots).filter(|s| keep >> s & 1 == 0) {
            meta[s * stride + row] = None;
        }
        let parsed = [ParsedFrame::parse(frames[row].as_ref())];
        let mut memo = [ShimMemo::default()];
        for insn in insns.iter().filter(|i| keep >> i.dst & 1 == 0) {
            let slot = insn.dst as usize * stride + row;
            shim_column(soft, insn, &parsed, &mut memo, &mut meta[slot..=slot]);
        }
    }
}

/// [`run_rows`], `N` rows at a time. With `N` = 1 each chunk is a
/// constant one-row step.
fn rows_in_chunks<const N: usize, F: AsRef<[u8]>>(
    soft: &mut SoftNic,
    insns: &[BcInsn],
    frames: &[F],
    mut rows: Rows<'_>,
    meta: &mut [Option<u128>],
    stride: usize,
) {
    let len = frames.len();
    // `None` is `Copy`: a repeat writes one word a row, not the
    // whole 72-byte row a `const` block's repeat would.
    let mut parsed = [None; N];
    let mut memos = [ShimMemo::default(); N];
    let mut start = 0;
    while start < len {
        let end = if N == 1 {
            start + 1
        } else {
            len.min(start + N)
        };
        match &rows {
            // A full chunk reads its sideband as slices beside the rows
            // (measured faster than the per-row match below); the
            // one-row chunk of `poll()` measured faster with the match.
            Rows::Trusted { hints, short } if N > 1 => {
                let setup = parsed.iter_mut().zip(&mut memos).zip(&frames[start..end]);
                let sideband = short[start..end].iter().zip(&hints[start..end]);
                for (((p, memo), frame), (&short, &hint)) in setup.zip(sideband) {
                    *memo = ShimMemo::default();
                    *p = if short {
                        None
                    } else {
                        if let Some(h) = hint {
                            memo.prime_rss(h);
                        }
                        ParsedFrame::parse(frame.as_ref())
                    };
                }
            }
            _ => {
                for (i, (p, memo)) in (start..end).zip(parsed.iter_mut().zip(&mut memos)) {
                    *memo = ShimMemo::default();
                    *p = match &rows {
                        Rows::Trusted { short, .. } if short[i] => None,
                        Rows::Trusted { hints, .. } => {
                            if let Some(h) = hints[i] {
                                memo.prime_rss(h);
                            }
                            ParsedFrame::parse(frames[i].as_ref())
                        }
                        Rows::Degraded | Rows::Verified { .. } => {
                            ParsedFrame::parse(frames[i].as_ref())
                        }
                    };
                }
            }
        }
        let (parsed, memos) = (&parsed[..end - start], &mut memos[..end - start]);
        for insn in insns {
            let base = insn.dst as usize * stride;
            let column = base + start..base + end;
            match &mut rows {
                Rows::Verified { repairs } if insn.op == op::SHIM_CHECK => {
                    let repairs = &mut repairs[start..end];
                    check_column(soft, insn, parsed, memos, &mut meta[column], repairs);
                }
                _ => shim_column(soft, insn, parsed, memos, &mut meta[column]),
            }
        }
        start = end;
    }
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

    /// One record through [`load_column`].
    fn load_one(insn: &BcInsn, cmpt: &[u8]) -> u128 {
        let mut out = [None];
        load_column(insn, &[cmpt], &mut out);
        out[0].expect("a load always reads")
    }

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
                load_one(&insn, &cmpt),
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
        assert_eq!(load_one(&unaligned, &cmpt), read_bits(&cmpt, 13, 27));
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
                load_one(&load, &desc),
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
            assert_eq!(*got, Some(read_bits(c, 32, 32)));
        }
    }
    #[test]
    fn check_column_repairs_counts_and_serves_unloaded_rows() {
        use opendesc_softnic::testpkt;
        let frame = testpkt::udp4([10, 0, 0, 1], [10, 0, 0, 2], 1, 2, b"abc", None);
        let len = frame.len() as u128;
        let parsed = [
            ParsedFrame::parse(&frame),
            ParsedFrame::parse(&frame),
            ParsedFrame::parse(&frame),
            None,
        ];
        let mut memos = [ShimMemo::default(); 4];
        // A 4-bit `pkt_len` slot: the reference is masked to it.
        let insn = BcInsn {
            op: op::SHIM_CHECK,
            dst: 0,
            a: shim_code(ShimOp::PktLen),
            b: 4,
        };
        // Honest, lying, not loaded (truncated), no reference.
        let mut out = [Some(len & 0xF), Some(7), None, Some(9)];
        let mut repairs = [0u32, 2, 0, 0];
        let mut soft = SoftNic::new();
        check_column(
            &mut soft,
            &insn,
            &parsed,
            &mut memos,
            &mut out,
            &mut repairs,
        );
        assert_ne!(len & 0xF, len);
        assert_eq!(out, [Some(len & 0xF), Some(len & 0xF), Some(len), Some(9)]);
        assert_eq!(repairs, [0, 3, 0, 0]);
        assert_eq!(soft.shim_ops(), 3, "one op per parsed row");
    }
}
