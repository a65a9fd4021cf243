//! eBPF backend: compile hardware accessors to programs that pass the
//! verifier's bounds checks by construction (paper §4: "access to the
//! descriptor can be bounded and therefore read safely").
//!
//! Every generated program follows the same shape:
//!
//! ```text
//! r2 = ctx->meta; r3 = ctx->meta_end
//! r4 = r2 + <completion size>
//! if r4 > r3 goto short          ; bounds proof for the whole record
//! ... per-byte loads + shifts ...
//! exit                           ; r0 = field value
//! short: r0 = 0; exit
//! ```
//!
//! Fields are assembled byte-by-byte (big-endian) so no byte-swap opcode
//! is needed and any bit alignment within an 8-byte span works.

use super::CodegenError;
use crate::accessor::{Accessor, AccessorKind, AccessorSet};
use crate::lower::emit_window_load;
use opendesc_ebpf::asm::{reg, Asm};
use opendesc_ebpf::insn::{alu, jmp, size, xdp_action, Insn};
use opendesc_ebpf::xdp::ctx_off;

/// Emit the bounds-checked load of the accessor's field into `R0`
/// (branching to `short` on a short record): the window load lowering
/// emits and verifies, then this backend's shift/mask tail.
fn load_field(a: &mut Asm, acc: &Accessor, completion_bytes: u32) -> Result<(), CodegenError> {
    let lo = acc.offset_bits / 8;
    let hi = (acc.offset_bits + acc.width_bits as u32).div_ceil(8);
    let span = hi - lo;
    if span > 8 {
        return Err(CodegenError::FieldTooWide {
            name: acc.name.to_string(),
            span_bytes: span,
        });
    }
    emit_window_load(a, completion_bytes, lo, hi, "short");
    let trailing = hi * 8 - (acc.offset_bits + acc.width_bits as u32);
    if trailing > 0 {
        a.alu64_imm(alu::RSH, reg::R0, trailing as i32);
    }
    let masked_bits = span * 8 - trailing;
    if (acc.width_bits as u32) < masked_bits && acc.width_bits < 64 {
        let mask: u64 = (1u64 << acc.width_bits) - 1;
        if mask <= i32::MAX as u64 {
            a.alu64_imm(alu::AND, reg::R0, mask as i32);
        } else {
            a.lddw(reg::R5, mask);
            a.alu64_reg(alu::AND, reg::R0, reg::R5);
        }
    }
    Ok(())
}

/// Compile one hardware accessor into a standalone program that returns
/// the field value in r0 (0 when the record is too short).
fn gen_accessor_prog(acc: &Accessor, completion_bytes: u32) -> Result<Vec<Insn>, CodegenError> {
    if acc.kind != AccessorKind::Hardware {
        return Err(CodegenError::NotHardware {
            name: acc.name.to_string(),
        });
    }
    let mut a = Asm::new();
    load_field(&mut a, acc, completion_bytes)?;
    a.exit().label("short").mov64_imm(reg::R0, 0).exit();
    Ok(a.build())
}

/// Compile an XDP filter: read the accessor's field and DROP when it
/// equals `match_value`, PASS otherwise (ABORTED when the record is
/// short). This is the paper's "eBPF through XDP" consumption model: the
/// program makes a forwarding decision from NIC metadata without
/// touching packet bytes.
pub fn gen_xdp_filter(
    acc: &Accessor,
    completion_bytes: u32,
    match_value: u64,
) -> Result<Vec<Insn>, CodegenError> {
    if acc.kind != AccessorKind::Hardware {
        return Err(CodegenError::NotHardware {
            name: acc.name.to_string(),
        });
    }
    let mut a = Asm::new();
    load_field(&mut a, acc, completion_bytes)?;
    if match_value <= i32::MAX as u64 {
        a.jmp_imm(jmp::JEQ, reg::R0, match_value as i32, "drop");
    } else {
        a.lddw(reg::R5, match_value);
        a.jmp_reg(jmp::JEQ, reg::R0, reg::R5, "drop");
    }
    a.mov64_imm(reg::R0, xdp_action::PASS as i32)
        .exit()
        .label("drop")
        .mov64_imm(reg::R0, xdp_action::DROP as i32)
        .exit()
        .label("short")
        .mov64_imm(reg::R0, xdp_action::ABORTED as i32)
        .exit();
    Ok(a.build())
}

/// Compile every hardware accessor of a set; returns `(name, program)`
/// pairs.
pub fn gen_all(set: &AccessorSet) -> Result<Vec<(String, Vec<Insn>)>, CodegenError> {
    set.hardware()
        .map(|a| {
            Ok((
                a.name.to_string(),
                gen_accessor_prog(a, set.completion_bytes)?,
            ))
        })
        .collect()
}

/// The E5 comparison program: recompute the IPv4 header checksum *in
/// eBPF* from packet bytes (fully unrolled, loop-free: 10 big-endian
/// half-word loads, one's-complement sum, fold). `l3_off` is the L3
/// offset within the frame (14 without VLAN). Returns the computed fold
/// (0xFFFF-complemented sum; equals 0... is the *verify* convention) in
/// r0, or 0 when the packet is too short.
pub fn gen_ipv4_csum_prog(l3_off: u32) -> Vec<Insn> {
    let need = l3_off + 20;
    let mut a = Asm::new();
    a.ldx(size::DW, reg::R2, reg::R1, ctx_off::DATA)
        .ldx(size::DW, reg::R3, reg::R1, ctx_off::DATA_END)
        .mov64_reg(reg::R4, reg::R2)
        .alu64_imm(alu::ADD, reg::R4, need as i32)
        .jmp_reg(jmp::JGT, reg::R4, reg::R3, "short");
    // r0 = running sum.
    a.mov64_imm(reg::R0, 0);
    for w in 0..10u32 {
        let off = (l3_off + w * 2) as i16;
        // r5 = (hi << 8) | lo, big-endian halfword.
        a.ldx(size::B, reg::R5, reg::R2, off)
            .alu64_imm(alu::LSH, reg::R5, 8)
            .ldx(size::B, reg::R6, reg::R2, off + 1)
            .alu64_reg(alu::OR, reg::R5, reg::R6)
            .alu64_reg(alu::ADD, reg::R0, reg::R5);
    }
    // Fold twice: sum ≤ 10*0xFFFF so one carry fold suffices, do two for
    // safety, then complement and mask.
    for _ in 0..2 {
        a.mov64_reg(reg::R5, reg::R0)
            .alu64_imm(alu::RSH, reg::R5, 16)
            .alu64_imm(alu::AND, reg::R0, 0xFFFF)
            .alu64_reg(alu::ADD, reg::R0, reg::R5);
    }
    a.alu64_imm(alu::XOR, reg::R0, 0xFFFF)
        .alu64_imm(alu::AND, reg::R0, 0xFFFF)
        .exit()
        .label("short")
        .mov64_imm(reg::R0, 0)
        .exit();
    a.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use opendesc_ebpf::interp::Vm;
    use opendesc_ebpf::verifier::verify;
    use opendesc_ebpf::xdp::XdpContext;
    use opendesc_ir::SemanticId;

    fn run(prog: &[Insn], ctx: &XdpContext) -> u64 {
        Vm::default().run(prog, ctx).expect("vm runs").0
    }

    #[test]
    fn accessor_prog_verifies_and_reads() {
        let acc = Accessor::hardware(SemanticId(0), "rss", 0, 32);
        let prog = gen_accessor_prog(&acc, 8).unwrap();
        verify(&prog).expect("generated accessor must verify");
        let ctx = XdpContext::new(vec![], vec![0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0]);
        assert_eq!(run(&prog, &ctx), 0xDEADBEEF);
    }

    #[test]
    fn accessor_prog_handles_short_metadata() {
        let acc = Accessor::hardware(SemanticId(0), "rss", 0, 32);
        let prog = gen_accessor_prog(&acc, 8).unwrap();
        let ctx = XdpContext::new(vec![], vec![1, 2]); // too short
        assert_eq!(run(&prog, &ctx), 0, "short record takes the guard branch");
    }

    #[test]
    fn mid_record_field_reads_at_offset() {
        let acc = Accessor::hardware(SemanticId(0), "len", 32, 16);
        let prog = gen_accessor_prog(&acc, 8).unwrap();
        verify(&prog).unwrap();
        let ctx = XdpContext::new(vec![], vec![0, 0, 0, 0, 0x05, 0xDC, 0, 0]);
        assert_eq!(run(&prog, &ctx), 0x05DC);
    }

    #[test]
    fn unaligned_field_shift_and_mask() {
        // 12-bit field at bit offset 4.
        let acc = Accessor::hardware(SemanticId(0), "vid", 4, 12);
        let prog = gen_accessor_prog(&acc, 2).unwrap();
        verify(&prog).unwrap();
        let ctx = XdpContext::new(vec![], vec![0xAB, 0xCD]);
        assert_eq!(run(&prog, &ctx), 0xBCD);
    }

    #[test]
    fn sixty_four_bit_field() {
        let acc = Accessor::hardware(SemanticId(0), "ts", 0, 64);
        let prog = gen_accessor_prog(&acc, 8).unwrap();
        verify(&prog).unwrap();
        let ctx = XdpContext::new(vec![], vec![0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88]);
        assert_eq!(run(&prog, &ctx), 0x1122334455667788);
    }

    #[test]
    fn field_spanning_more_than_8_bytes_rejected() {
        let acc = Accessor::hardware(SemanticId(0), "wide", 4, 64);
        assert!(matches!(
            gen_accessor_prog(&acc, 16),
            Err(CodegenError::FieldTooWide { .. })
        ));
    }

    #[test]
    fn software_accessor_rejected() {
        let acc = Accessor::software(SemanticId(0), "vlan", 16);
        assert!(matches!(
            gen_accessor_prog(&acc, 8),
            Err(CodegenError::NotHardware { .. })
        ));
    }

    #[test]
    fn xdp_filter_drops_matching_values() {
        let acc = Accessor::hardware(SemanticId(0), "flow", 0, 32);
        let prog = gen_xdp_filter(&acc, 4, 0xBADF00D).unwrap();
        verify(&prog).expect("filter verifies");
        let bad = XdpContext::new(vec![], 0x0BADF00Du32.to_be_bytes().to_vec());
        let good = XdpContext::new(vec![], 0x11111111u32.to_be_bytes().to_vec());
        let short = XdpContext::new(vec![], vec![1]);
        assert_eq!(run(&prog, &bad), xdp_action::DROP);
        assert_eq!(run(&prog, &good), xdp_action::PASS);
        assert_eq!(run(&prog, &short), xdp_action::ABORTED);
    }

    #[test]
    fn xdp_filter_wide_match_value() {
        let acc = Accessor::hardware(SemanticId(0), "ts", 0, 64);
        let prog = gen_xdp_filter(&acc, 8, 0xDEAD_BEEF_0000_0001).unwrap();
        verify(&prog).unwrap();
        let hit = XdpContext::new(vec![], 0xDEAD_BEEF_0000_0001u64.to_be_bytes().to_vec());
        assert_eq!(run(&prog, &hit), xdp_action::DROP);
    }

    #[test]
    fn ipv4_csum_prog_verifies_and_computes() {
        let prog = gen_ipv4_csum_prog(14);
        verify(&prog).expect("unrolled checksum verifies");
        let frame = opendesc_softnic::testpkt::udp4(
            [192, 168, 0, 1],
            [192, 168, 0, 199],
            1000,
            2000,
            b"payload",
            None,
        );
        // Verify convention: summing a header including its checksum
        // folds to 0xFFFF, so the complemented result is 0.
        let ctx = XdpContext::new(frame, vec![]);
        assert_eq!(run(&prog, &ctx), 0, "valid header sums to zero");
    }

    #[test]
    fn ipv4_csum_prog_detects_corruption() {
        let prog = gen_ipv4_csum_prog(14);
        let mut frame = opendesc_softnic::testpkt::udp4(
            [192, 168, 0, 1],
            [192, 168, 0, 199],
            1000,
            2000,
            b"p",
            None,
        );
        frame[18] ^= 0x40; // corrupt an IP header byte
        let ctx = XdpContext::new(frame, vec![]);
        assert_ne!(run(&prog, &ctx), 0);
    }

    #[test]
    fn gen_all_emits_one_prog_per_hardware_accessor() {
        let set = AccessorSet {
            accessors: vec![
                Accessor::hardware(SemanticId(0), "a", 0, 32),
                Accessor::software(SemanticId(1), "b", 16),
                Accessor::hardware(SemanticId(2), "c", 32, 16),
            ],
            completion_bytes: 8,
        };
        let progs = gen_all(&set).unwrap();
        assert_eq!(progs.len(), 2);
        for (_, p) in &progs {
            verify(p).unwrap();
        }
    }

    #[test]
    fn accessor_cheaper_than_recompute() {
        // The E5 premise in miniature: reading the checksum status from
        // the descriptor takes far fewer instructions than recomputing.
        let acc = Accessor::hardware(SemanticId(0), "csum", 0, 16);
        let read = gen_accessor_prog(&acc, 8).unwrap();
        let recompute = gen_ipv4_csum_prog(14);
        assert!(
            read.len() * 3 < recompute.len(),
            "read={} recompute={}",
            read.len(),
            recompute.len()
        );
    }
}
