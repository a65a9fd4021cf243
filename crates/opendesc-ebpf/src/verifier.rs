//! Static verifier: proves a program's memory accesses are in bounds
//! before it runs.
//!
//! This is the property the paper leans on for XDP integration: "access
//! to the descriptor can be bounded and therefore read safely from an
//! eBPF program" (§4). The verifier symbolically executes the program,
//! tracking pointer provenance (context / packet / metadata / stack) and
//! the byte ranges proven readable by compare-and-branch bounds checks,
//! in the style of the kernel verifier:
//!
//! ```text
//! r2 = ctx->meta            ; PtrMeta(0)
//! r3 = ctx->meta_end        ; PtrMetaEnd
//! r4 = r2 + 8               ; PtrMeta(8)
//! if r4 > r3 goto drop      ; fall-through proves meta[0..8) readable
//! r0 = *(u32 *)(r2 + 4)     ; ok: 4 + 4 <= 8
//! ```
//!
//! Programs must be loop-free (back-edges rejected) and may not call
//! helpers — generated accessors need neither.
//!
//! The walk is depth-first and in place: one abstract state is stepped
//! along straight-line code, a conditional jump copies it once (the
//! taken arm waits on a stack, the fall-through arm continues), and an
//! `exit` resumes the most recent waiting arm. Nothing is merged or
//! pruned, so every entry→exit path is proven on its own, and
//! `states_explored` counts one per instruction visited on each path.

use crate::insn::{access_size, alu, class, jmp, srcop, Insn};
use crate::xdp::ctx_off;
use std::fmt;

/// Abstract value of a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegState {
    Uninit,
    /// Scalar; `Some(v)` when the exact value is known (constant
    /// propagation feeds pointer arithmetic).
    Scalar(Option<u64>),
    /// Pointer to the context object.
    PtrCtx,
    /// Pointer into packet data at a known byte offset.
    PtrPkt(i64),
    /// The packet end pointer.
    PtrPktEnd,
    /// Pointer into descriptor metadata at a known byte offset.
    PtrMeta(i64),
    /// The metadata end pointer.
    PtrMetaEnd,
    /// Pointer into the stack; offset relative to r10 (≤ 0).
    PtrStack(i64),
}

/// Verification failure, with the offending program counter.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifierError {
    pub pc: usize,
    pub reason: String,
}

impl fmt::Display for VerifierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verifier: pc {}: {}", self.pc, self.reason)
    }
}

impl std::error::Error for VerifierError {}

/// Statistics from a successful verification.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifierStats {
    pub states_explored: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct State {
    regs: [RegState; 11],
    /// Bytes of packet proven readable from offset 0.
    proven_pkt: i64,
    /// Bytes of metadata proven readable from offset 0.
    proven_meta: i64,
}

impl State {
    fn initial() -> State {
        let mut regs = [RegState::Uninit; 11];
        regs[1] = RegState::PtrCtx;
        regs[10] = RegState::PtrStack(0);
        State {
            regs,
            proven_pkt: 0,
            proven_meta: 0,
        }
    }
}

/// Maximum branch states to explore before declaring the program too
/// complex (mirrors the kernel's verifier budget, scaled down).
const STATE_BUDGET: usize = 100_000;

/// Verify `prog`. Returns stats on success.
pub fn verify(prog: &[Insn]) -> Result<VerifierStats, VerifierError> {
    if prog.is_empty() {
        return Err(VerifierError {
            pc: 0,
            reason: "empty program".into(),
        });
    }
    // Taken arms of the conditional jumps passed on the current path.
    let mut pending: Vec<(usize, State)> = Vec::new();
    let (mut pc, mut st) = (0, State::initial());
    let mut stats = VerifierStats::default();

    loop {
        stats.states_explored += 1;
        if stats.states_explored > STATE_BUDGET {
            return Err(VerifierError {
                pc,
                reason: "state budget exhausted (program too complex)".into(),
            });
        }
        let Some(insn) = prog.get(pc) else {
            return Err(VerifierError {
                pc,
                reason: "fall off the end of the program".into(),
            });
        };
        let err = |reason: String| VerifierError { pc, reason };
        if insn.dst > 10 || insn.src > 10 {
            return Err(err(format!(
                "invalid register r{} (only r0..r10 exist)",
                insn.dst.max(insn.src)
            )));
        }
        match insn.class() {
            class::ALU64 | class::ALU => {
                step_alu(insn, &mut st, pc)?;
                pc += 1;
            }
            class::LD => {
                if insn.is_lddw() {
                    let Some(hi) = prog.get(pc + 1) else {
                        return Err(err("truncated lddw".into()));
                    };
                    let v = (insn.imm as u32 as u64) | ((hi.imm as u32 as u64) << 32);
                    st.regs[insn.dst as usize] = RegState::Scalar(Some(v));
                    pc += 2;
                } else {
                    return Err(err(format!(
                        "unsupported load class opcode {:#04x}",
                        insn.code
                    )));
                }
            }
            class::LDX => {
                step_ldx(insn, &mut st, pc)?;
                pc += 1;
            }
            class::STX | class::ST => {
                step_store(insn, &st, pc)?;
                pc += 1;
            }
            class::JMP => {
                let op = insn.code & 0xF0;
                match op {
                    jmp::EXIT => {
                        if st.regs[0] == RegState::Uninit {
                            return Err(err("r0 not set at exit".into()));
                        }
                        // This path is proven; resume the latest waiting arm.
                        match pending.pop() {
                            Some((next, state)) => (pc, st) = (next, state),
                            None => break,
                        }
                    }
                    jmp::CALL => {
                        return Err(err(
                            "helper calls are not allowed in accessor programs".into()
                        ));
                    }
                    jmp::JA => {
                        let target = pc as i64 + 1 + insn.off as i64;
                        check_target(prog, pc, target)?;
                        pc = target as usize;
                    }
                    _ => {
                        let target = pc as i64 + 1 + insn.off as i64;
                        check_target(prog, pc, target)?;
                        // Bounds-proof pattern recognition: the taken arm
                        // is the one copy; the fall-through arm is `st`.
                        let mut taken = st;
                        if insn.code & srcop::X != 0 {
                            let (dst, src) =
                                (st.regs[insn.dst as usize], st.regs[insn.src as usize]);
                            apply_bounds_proof(op, dst, src, &mut taken, &mut st);
                        }
                        pending.push((target as usize, taken));
                        pc += 1;
                    }
                }
            }
            class::JMP32 => {
                return Err(err("jmp32 class not supported".into()));
            }
            _ => return Err(err(format!("unknown opcode {:#04x}", insn.code))),
        }
    }
    Ok(stats)
}

fn check_target(prog: &[Insn], pc: usize, target: i64) -> Result<(), VerifierError> {
    if target <= pc as i64 {
        return Err(VerifierError {
            pc,
            reason: format!("back-edge to {target}: loops are not allowed"),
        });
    }
    if target as usize >= prog.len() {
        return Err(VerifierError {
            pc,
            reason: format!("jump target {target} out of program"),
        });
    }
    Ok(())
}

/// If the comparison is `ptr OP end` (or mirrored), record the proven
/// readable prefix on the branch where `ptr ≤ end` holds.
fn apply_bounds_proof(op: u8, dst: RegState, src: RegState, taken: &mut State, fall: &mut State) {
    use RegState::*;
    // Normalize to (ptr_off, region, op) with the pointer on the left.
    let (ptr, is_meta, end_on_right, cmp) = match (dst, src) {
        (PtrPkt(k), PtrPktEnd) => (k, false, true, op),
        (PtrMeta(k), PtrMetaEnd) => (k, true, true, op),
        (PtrPktEnd, PtrPkt(k)) => (k, false, false, op),
        (PtrMetaEnd, PtrMeta(k)) => (k, true, false, op),
        _ => return,
    };
    if ptr < 0 {
        return;
    }
    // With the pointer on the left (`ptr OP end`):
    //   JGT taken ⇒ ptr > end; fall-through ⇒ ptr ≤ end (proof on fall).
    //   JLE taken ⇒ ptr ≤ end (proof on taken).
    //   JGE/JLT prove the strict variant; a strict `ptr < end` also
    //   implies `ptr ≤ end`, so the same prefix is sound.
    // With the end pointer on the left, the roles mirror.
    let proof_on_taken = match (end_on_right, cmp) {
        (true, jmp::JLE | jmp::JLT) => Some(true),
        (true, jmp::JGT | jmp::JGE) => Some(false),
        (false, jmp::JGE | jmp::JGT) => Some(true),
        (false, jmp::JLE | jmp::JLT) => Some(false),
        _ => None,
    };
    let Some(on_taken) = proof_on_taken else {
        return;
    };
    let target_state = if on_taken { taken } else { fall };
    if is_meta {
        target_state.proven_meta = target_state.proven_meta.max(ptr);
    } else {
        target_state.proven_pkt = target_state.proven_pkt.max(ptr);
    }
}

fn step_alu(insn: &Insn, st: &mut State, pc: usize) -> Result<(), VerifierError> {
    use RegState::*;
    let err = |reason: String| VerifierError { pc, reason };
    let op = insn.code & 0xF0;
    let dst = insn.dst as usize;
    if dst == 10 {
        return Err(err("r10 is read-only".into()));
    }
    let rhs: RegState = if op == alu::NEG {
        // NEG reads only dst: its source operand is ignored.
        Scalar(Some(0))
    } else if insn.code & srcop::X != 0 {
        st.regs[insn.src as usize]
    } else {
        Scalar(Some(insn.imm as i64 as u64))
    };
    if matches!(rhs, Uninit) {
        return Err(err(format!("read of uninitialized r{}", insn.src)));
    }
    let lhs = st.regs[dst];
    if lhs == Uninit && op != alu::MOV {
        // Every op but MOV reads dst.
        return Err(err(format!("read of uninitialized r{dst}")));
    }
    let is32 = insn.class() == class::ALU;
    st.regs[dst] = match op {
        alu::MOV => {
            if is32 {
                // 32-bit move truncates pointers to scalars.
                match rhs {
                    Scalar(Some(v)) => Scalar(Some(v as u32 as u64)),
                    _ => Scalar(None),
                }
            } else {
                rhs
            }
        }
        alu::ADD | alu::SUB => {
            let delta = match rhs {
                Scalar(Some(v)) => Some(v as i64),
                _ => None,
            };
            let signed = |d: i64| if op == alu::SUB { -d } else { d };
            match (lhs, delta) {
                (PtrPkt(k), Some(d)) if !is32 => PtrPkt(k + signed(d)),
                (PtrMeta(k), Some(d)) if !is32 => PtrMeta(k + signed(d)),
                (PtrStack(k), Some(d)) if !is32 => PtrStack(k + signed(d)),
                (PtrPkt(_) | PtrMeta(_) | PtrStack(_) | PtrCtx | PtrPktEnd | PtrMetaEnd, _) => {
                    return Err(err(
                        "pointer arithmetic with unbounded or 32-bit operand".into()
                    ));
                }
                (Scalar(Some(a)), Some(d)) => {
                    let v = if op == alu::SUB {
                        a.wrapping_sub(d as u64)
                    } else {
                        a.wrapping_add(d as u64)
                    };
                    Scalar(Some(if is32 { v as u32 as u64 } else { v }))
                }
                // An unknown scalar (an uninitialized dst is refused above).
                _ => Scalar(None),
            }
        }
        _ => {
            // Any other ALU op on a pointer destroys provenance; on
            // scalars it yields a scalar (constant-folded when both known).
            match (lhs, rhs) {
                (PtrPkt(_) | PtrMeta(_) | PtrStack(_) | PtrCtx | PtrPktEnd | PtrMetaEnd, _) => {
                    return Err(err("arithmetic on pointer destroys provenance".into()));
                }
                (Scalar(Some(a)), Scalar(Some(b))) => Scalar(const_alu(op, a, b, is32)),
                _ => Scalar(None),
            }
        }
    };
    Ok(())
}

fn const_alu(op: u8, a: u64, b: u64, is32: bool) -> Option<u64> {
    let v = match op {
        alu::ADD => a.wrapping_add(b),
        alu::SUB => a.wrapping_sub(b),
        alu::MUL => a.wrapping_mul(b),
        alu::DIV => a.checked_div(b).unwrap_or(0),
        alu::MOD => a.checked_rem(b).unwrap_or(a),
        alu::OR => a | b,
        alu::AND => a & b,
        alu::XOR => a ^ b,
        alu::LSH => a.wrapping_shl(b as u32 & 63),
        alu::RSH => a.wrapping_shr(b as u32 & 63),
        alu::ARSH => ((a as i64) >> (b as u32 & 63)) as u64,
        alu::NEG => (a as i64).wrapping_neg() as u64,
        _ => return None,
    };
    Some(if is32 { v as u32 as u64 } else { v })
}

fn step_ldx(insn: &Insn, st: &mut State, pc: usize) -> Result<(), VerifierError> {
    use RegState::*;
    let err = |reason: String| VerifierError { pc, reason };
    let sz = access_size(insn.code) as i64;
    let base = st.regs[insn.src as usize];
    let off = insn.off as i64;
    let dst = insn.dst as usize;
    if dst == 10 {
        return Err(err("r10 is read-only".into()));
    }
    st.regs[dst] = match base {
        PtrCtx => {
            if sz != 8 {
                return Err(err("context fields must be read with 8-byte loads".into()));
            }
            match insn.off {
                ctx_off::DATA => PtrPkt(0),
                ctx_off::DATA_END => PtrPktEnd,
                ctx_off::META => PtrMeta(0),
                ctx_off::META_END => PtrMetaEnd,
                o => return Err(err(format!("invalid context offset {o}"))),
            }
        }
        PtrPkt(k) => {
            if k + off < 0 || k + off + sz > st.proven_pkt {
                return Err(err(format!(
                    "packet access at offset {} of {sz} bytes exceeds proven bound {}",
                    k + off,
                    st.proven_pkt
                )));
            }
            Scalar(None)
        }
        PtrMeta(k) => {
            if k + off < 0 || k + off + sz > st.proven_meta {
                return Err(err(format!(
                    "metadata access at offset {} of {sz} bytes exceeds proven bound {}",
                    k + off,
                    st.proven_meta
                )));
            }
            Scalar(None)
        }
        PtrStack(k) => {
            let lo = k + off;
            if lo < -512 || lo + sz > 0 {
                return Err(err(format!("stack access at {lo} out of [-512, 0)")));
            }
            Scalar(None)
        }
        PtrPktEnd | PtrMetaEnd => {
            return Err(err("dereference of an end pointer".into()));
        }
        Scalar(_) => return Err(err("dereference of a scalar".into())),
        Uninit => return Err(err(format!("read of uninitialized r{}", insn.src))),
    };
    Ok(())
}

fn step_store(insn: &Insn, st: &State, pc: usize) -> Result<(), VerifierError> {
    use RegState::*;
    let err = |reason: String| VerifierError { pc, reason };
    if insn.class() == class::STX && st.regs[insn.src as usize] == Uninit {
        return Err(err(format!("store of uninitialized r{}", insn.src)));
    }
    let sz = access_size(insn.code) as i64;
    match st.regs[insn.dst as usize] {
        PtrStack(k) => {
            let lo = k + insn.off as i64;
            if lo < -512 || lo + sz > 0 {
                return Err(err(format!("stack store at {lo} out of [-512, 0)")));
            }
            Ok(())
        }
        PtrPkt(_) | PtrMeta(_) | PtrCtx | PtrPktEnd | PtrMetaEnd => {
            Err(err("stores are only allowed to the stack".into()))
        }
        Scalar(_) => Err(err("store through a scalar".into())),
        Uninit => Err(err(format!("store through uninitialized r{}", insn.dst))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{reg, Asm};
    use crate::insn::{size, xdp_action};
    use crate::interp::{Vm, VmError};
    use crate::xdp::XdpContext;

    /// A correct bounded metadata read: prove 8 bytes, read a u32 at +4.
    fn bounded_meta_read() -> Vec<Insn> {
        let mut a = Asm::new();
        a.ldx(size::DW, reg::R2, reg::R1, ctx_off::META)
            .ldx(size::DW, reg::R3, reg::R1, ctx_off::META_END)
            .mov64_reg(reg::R4, reg::R2)
            .alu64_imm(alu::ADD, reg::R4, 8)
            .jmp_reg(jmp::JGT, reg::R4, reg::R3, "drop")
            .ldx(size::W, reg::R0, reg::R2, 4)
            .exit()
            .label("drop")
            .mov64_imm(reg::R0, xdp_action::DROP as i32)
            .exit();
        a.build()
    }

    #[test]
    fn accepts_bounded_metadata_read() {
        verify(&bounded_meta_read()).expect("bounded read verifies");
    }

    #[test]
    fn rejects_unchecked_metadata_read() {
        let mut a = Asm::new();
        a.ldx(size::DW, reg::R2, reg::R1, ctx_off::META)
            .ldx(size::W, reg::R0, reg::R2, 4)
            .exit();
        let e = verify(&a.build()).unwrap_err();
        assert!(e.reason.contains("proven bound"), "{e}");
    }

    #[test]
    fn rejects_read_past_proven_bound() {
        // Proves 8 bytes but reads at offset 6 with 4 bytes (needs 10).
        let mut a = Asm::new();
        a.ldx(size::DW, reg::R2, reg::R1, ctx_off::META)
            .ldx(size::DW, reg::R3, reg::R1, ctx_off::META_END)
            .mov64_reg(reg::R4, reg::R2)
            .alu64_imm(alu::ADD, reg::R4, 8)
            .jmp_reg(jmp::JGT, reg::R4, reg::R3, "drop")
            .ldx(size::W, reg::R0, reg::R2, 6)
            .exit()
            .label("drop")
            .mov64_imm(reg::R0, 1)
            .exit();
        let e = verify(&a.build()).unwrap_err();
        assert!(e.reason.contains("exceeds proven bound"), "{e}");
    }

    #[test]
    fn proof_applies_to_correct_branch_jle() {
        // `if ptr+8 <= end goto ok` — proof lives on the TAKEN branch.
        let mut a = Asm::new();
        a.ldx(size::DW, reg::R2, reg::R1, ctx_off::META)
            .ldx(size::DW, reg::R3, reg::R1, ctx_off::META_END)
            .mov64_reg(reg::R4, reg::R2)
            .alu64_imm(alu::ADD, reg::R4, 8)
            .jmp_reg(jmp::JLE, reg::R4, reg::R3, "ok")
            .mov64_imm(reg::R0, 1)
            .exit()
            .label("ok")
            .ldx(size::DW, reg::R0, reg::R2, 0)
            .exit();
        verify(&a.build()).expect("JLE taken-branch proof");
    }

    #[test]
    fn mirrored_comparison_also_proves() {
        // `if end >= ptr+8 goto ok`.
        let mut a = Asm::new();
        a.ldx(size::DW, reg::R2, reg::R1, ctx_off::META)
            .ldx(size::DW, reg::R3, reg::R1, ctx_off::META_END)
            .mov64_reg(reg::R4, reg::R2)
            .alu64_imm(alu::ADD, reg::R4, 8)
            .jmp_reg(jmp::JGE, reg::R3, reg::R4, "ok")
            .mov64_imm(reg::R0, 1)
            .exit()
            .label("ok")
            .ldx(size::DW, reg::R0, reg::R2, 0)
            .exit();
        verify(&a.build()).expect("mirrored JGE proof");
    }

    #[test]
    fn rejects_loops() {
        let mut a = Asm::new();
        a.label("top").mov64_imm(reg::R0, 0).ja("top");
        let e = verify(&a.build()).unwrap_err();
        assert!(e.reason.contains("back-edge"), "{e}");
    }

    #[test]
    fn rejects_helper_calls() {
        let mut a = Asm::new();
        a.raw(Insn::new(class::JMP | jmp::CALL, 0, 0, 0, 6))
            .mov64_imm(reg::R0, 0)
            .exit();
        let e = verify(&a.build()).unwrap_err();
        assert!(e.reason.contains("helper"), "{e}");
    }

    #[test]
    fn rejects_uninitialized_register_use() {
        let mut a = Asm::new();
        a.mov64_reg(reg::R0, reg::R5).exit();
        let e = verify(&a.build()).unwrap_err();
        assert!(e.reason.contains("uninitialized"), "{e}");
    }

    #[test]
    fn rejects_neg_of_an_uninitialized_register() {
        // `neg` reads its destination, so neither program may pass.
        let mut a = Asm::new();
        a.alu64_imm(alu::NEG, reg::R0, 0).exit();
        let e = verify(&a.build()).unwrap_err();
        assert_eq!(e.pc, 0);
        assert!(e.reason.contains("uninitialized r0"), "{e}");

        let mut a = Asm::new();
        a.alu64_imm(alu::NEG, reg::R3, 0)
            .mov64_reg(reg::R0, reg::R3)
            .exit();
        let e = verify(&a.build()).unwrap_err();
        assert_eq!(e.pc, 0);
        assert!(e.reason.contains("uninitialized r3"), "{e}");
    }

    #[test]
    fn neg_ignores_its_source_and_folds() {
        // An X-source `neg` with an unset source is fine, and -(-8) is a
        // known 8 that pointer arithmetic may use.
        let mut a = Asm::new();
        a.ldx(size::DW, reg::R2, reg::R1, ctx_off::META)
            .ldx(size::DW, reg::R3, reg::R1, ctx_off::META_END)
            .mov64_imm(reg::R5, -8)
            .alu64_reg(alu::NEG, reg::R5, reg::R7)
            .mov64_reg(reg::R4, reg::R2)
            .alu64_reg(alu::ADD, reg::R4, reg::R5)
            .jmp_reg(jmp::JGT, reg::R4, reg::R3, "d")
            .ldx(size::DW, reg::R0, reg::R2, 0)
            .exit()
            .label("d")
            .mov64_imm(reg::R0, 1)
            .exit();
        let stats = verify(&a.build()).expect("neg of a known constant");
        assert_eq!(stats.states_explored, 7 + 2 + 2);
    }

    #[test]
    fn rejects_missing_r0() {
        let mut a = Asm::new();
        a.exit();
        let e = verify(&a.build()).unwrap_err();
        assert!(e.reason.contains("r0"), "{e}");
    }

    #[test]
    fn rejects_packet_store() {
        let mut a = Asm::new();
        a.ldx(size::DW, reg::R2, reg::R1, ctx_off::DATA)
            .mov64_imm(reg::R0, 0)
            .stx(size::B, reg::R2, 0, reg::R0)
            .exit();
        let e = verify(&a.build()).unwrap_err();
        assert!(e.reason.contains("stack"), "{e}");
    }

    #[test]
    fn allows_stack_spill_and_reload() {
        let mut a = Asm::new();
        a.mov64_imm(reg::R2, 7)
            .stx(size::DW, reg::R10, -8, reg::R2)
            .ldx(size::DW, reg::R0, reg::R10, -8)
            .exit();
        verify(&a.build()).unwrap();
    }

    #[test]
    fn rejects_stack_out_of_range() {
        let mut a = Asm::new();
        a.mov64_imm(reg::R0, 0)
            .stx(size::DW, reg::R10, -520, reg::R0)
            .exit();
        let e = verify(&a.build()).unwrap_err();
        assert!(e.reason.contains("stack"), "{e}");
    }

    #[test]
    fn rejects_bad_ctx_offset() {
        let mut a = Asm::new();
        a.ldx(size::DW, reg::R0, reg::R1, 12).exit();
        let e = verify(&a.build()).unwrap_err();
        assert!(e.reason.contains("context offset"), "{e}");
    }

    #[test]
    fn rejects_pointer_arithmetic_with_unknown_scalar() {
        let mut a = Asm::new();
        a.ldx(size::DW, reg::R2, reg::R1, ctx_off::META)
            .ldx(size::DW, reg::R3, reg::R1, ctx_off::META_END)
            .mov64_reg(reg::R5, reg::R2)
            .alu64_imm(alu::ADD, reg::R5, 4)
            .jmp_reg(jmp::JGT, reg::R5, reg::R3, "d")
            // r6 = unknown scalar read from metadata; r2 += r6 is unsound.
            .ldx(size::W, reg::R6, reg::R2, 0)
            .alu64_reg(alu::ADD, reg::R2, reg::R6)
            .ldx(size::B, reg::R0, reg::R2, 0)
            .exit()
            .label("d")
            .mov64_imm(reg::R0, 1)
            .exit();
        let e = verify(&a.build()).unwrap_err();
        assert!(e.reason.contains("pointer arithmetic"), "{e}");
    }

    #[test]
    fn verified_programs_never_fault_at_runtime() {
        // Soundness spot-check: run the verified bounded reader against
        // metadata both large enough and too small; neither faults.
        let prog = bounded_meta_read();
        verify(&prog).unwrap();
        let vm = Vm::default();
        let big = XdpContext::new(vec![], vec![9u8; 16]);
        let small = XdpContext::new(vec![], vec![9u8; 4]);
        assert!(vm.run(&prog, &big).is_ok());
        let (r0, _) = vm.run(&prog, &small).unwrap();
        assert_eq!(r0, xdp_action::DROP, "small metadata takes the drop branch");
    }

    #[test]
    fn rejected_program_would_fault() {
        // The converse: a program the verifier rejects actually faults in
        // the VM when metadata is short — demonstrating the rejection is
        // not spurious.
        let mut a = Asm::new();
        a.ldx(size::DW, reg::R2, reg::R1, ctx_off::META)
            .ldx(size::W, reg::R0, reg::R2, 4)
            .exit();
        let prog = a.build();
        assert!(verify(&prog).is_err());
        let vm = Vm::default();
        let small = XdpContext::new(vec![], vec![0u8; 2]);
        assert!(matches!(
            vm.run(&prog, &small),
            Err(VmError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn constant_folding_supports_computed_offsets() {
        // r5 = 2; r5 <<= 2 (=8); prove 16; read at r2+r5 via ADD.
        let mut a = Asm::new();
        a.ldx(size::DW, reg::R2, reg::R1, ctx_off::META)
            .ldx(size::DW, reg::R3, reg::R1, ctx_off::META_END)
            .mov64_reg(reg::R4, reg::R2)
            .alu64_imm(alu::ADD, reg::R4, 16)
            .jmp_reg(jmp::JGT, reg::R4, reg::R3, "d")
            .mov64_imm(reg::R5, 2)
            .alu64_imm(alu::LSH, reg::R5, 2)
            .alu64_reg(alu::ADD, reg::R2, reg::R5)
            .ldx(size::DW, reg::R0, reg::R2, 0)
            .exit()
            .label("d")
            .mov64_imm(reg::R0, 1)
            .exit();
        verify(&a.build()).expect("known-constant pointer arithmetic allowed");
    }
}
