//! Program builder: assemble eBPF instruction sequences with symbolic
//! labels, so codegen never hand-computes jump offsets.

use crate::insn::{alu, class, jmp, mode, size, srcop, Insn};

/// Register aliases.
pub mod reg {
    /// Return value / exit code.
    pub const R0: u8 = 0;
    /// First argument: context pointer.
    pub const R1: u8 = 1;
    pub const R2: u8 = 2;
    pub const R3: u8 = 3;
    pub const R4: u8 = 4;
    pub const R5: u8 = 5;
    pub const R6: u8 = 6;
    pub const R7: u8 = 7;
    pub const R8: u8 = 8;
    pub const R9: u8 = 9;
    /// Frame pointer (read-only).
    pub const R10: u8 = 10;
}

/// A pending jump awaiting label resolution.
struct Fixup {
    insn_idx: usize,
    label: &'static str,
}

/// eBPF program assembler. Labels are the generator's own literals, and
/// a program has a handful: they are kept in a list, not hashed.
#[derive(Default)]
pub struct Asm {
    insns: Vec<Insn>,
    labels: Vec<(&'static str, usize)>,
    fixups: Vec<Fixup>,
}

impl Asm {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current instruction count.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Make room for `n` more instructions. Called on an assembler that
    /// [`build`](Asm::build) just emptied, it sizes the next program
    /// exactly, so the vector `build` hands out is never regrown.
    pub fn reserve(&mut self, n: usize) -> &mut Self {
        self.insns.reserve_exact(n);
        self
    }

    /// Define a label at the current position (a redefinition wins).
    pub fn label(&mut self, name: &'static str) -> &mut Self {
        self.labels.push((name, self.insns.len()));
        self
    }

    /// Raw instruction append.
    pub fn raw(&mut self, i: Insn) -> &mut Self {
        self.insns.push(i);
        self
    }

    // -------------------------------------------------------------- moves

    /// `dst = imm` (64-bit, sign-extended 32-bit immediate).
    pub fn mov64_imm(&mut self, dst: u8, imm: i32) -> &mut Self {
        self.raw(Insn::new(
            class::ALU64 | alu::MOV | srcop::K,
            dst,
            0,
            0,
            imm,
        ))
    }

    /// `dst = src` (64-bit).
    pub fn mov64_reg(&mut self, dst: u8, src: u8) -> &mut Self {
        self.raw(Insn::new(
            class::ALU64 | alu::MOV | srcop::X,
            dst,
            src,
            0,
            0,
        ))
    }

    /// `dst = imm64` (two-slot LDDW).
    pub fn lddw(&mut self, dst: u8, imm: u64) -> &mut Self {
        self.raw(Insn::new(
            class::LD | mode::IMM | size::DW,
            dst,
            0,
            0,
            imm as u32 as i32,
        ));
        self.raw(Insn::new(0, 0, 0, 0, (imm >> 32) as u32 as i32))
    }

    // ---------------------------------------------------------------- alu

    /// 64-bit ALU op with immediate.
    pub fn alu64_imm(&mut self, op: u8, dst: u8, imm: i32) -> &mut Self {
        self.raw(Insn::new(class::ALU64 | op | srcop::K, dst, 0, 0, imm))
    }

    /// 64-bit ALU op with register source.
    pub fn alu64_reg(&mut self, op: u8, dst: u8, src: u8) -> &mut Self {
        self.raw(Insn::new(class::ALU64 | op | srcop::X, dst, src, 0, 0))
    }

    /// 32-bit ALU op with immediate (zero-extends the destination).
    pub fn alu32_imm(&mut self, op: u8, dst: u8, imm: i32) -> &mut Self {
        self.raw(Insn::new(class::ALU | op | srcop::K, dst, 0, 0, imm))
    }

    // ------------------------------------------------------------- memory

    /// `dst = *(size*)(src + off)`.
    pub fn ldx(&mut self, sz: u8, dst: u8, src: u8, off: i16) -> &mut Self {
        self.raw(Insn::new(class::LDX | mode::MEM | sz, dst, src, off, 0))
    }

    /// `*(size*)(dst + off) = src`.
    pub fn stx(&mut self, sz: u8, dst: u8, off: i16, src: u8) -> &mut Self {
        self.raw(Insn::new(class::STX | mode::MEM | sz, dst, src, off, 0))
    }

    /// `*(size*)(dst + off) = imm`.
    pub fn st(&mut self, sz: u8, dst: u8, off: i16, imm: i32) -> &mut Self {
        self.raw(Insn::new(class::ST | mode::MEM | sz, dst, 0, off, imm))
    }

    // --------------------------------------------------------------- jumps

    /// Unconditional jump to `label`.
    pub fn ja(&mut self, label: &'static str) -> &mut Self {
        self.fixups.push(Fixup {
            insn_idx: self.insns.len(),
            label,
        });
        self.raw(Insn::new(class::JMP | jmp::JA, 0, 0, 0, 0))
    }

    /// Conditional jump `if dst OP imm goto label`.
    pub fn jmp_imm(&mut self, op: u8, dst: u8, imm: i32, label: &'static str) -> &mut Self {
        self.fixups.push(Fixup {
            insn_idx: self.insns.len(),
            label,
        });
        self.raw(Insn::new(class::JMP | op | srcop::K, dst, 0, 0, imm))
    }

    /// Conditional jump `if dst OP src goto label`.
    pub fn jmp_reg(&mut self, op: u8, dst: u8, src: u8, label: &'static str) -> &mut Self {
        self.fixups.push(Fixup {
            insn_idx: self.insns.len(),
            label,
        });
        self.raw(Insn::new(class::JMP | op | srcop::X, dst, src, 0, 0))
    }

    /// Program exit (returns r0).
    pub fn exit(&mut self) -> &mut Self {
        self.raw(Insn::new(class::JMP | jmp::EXIT, 0, 0, 0, 0))
    }

    /// Resolve labels and hand over the finished program, leaving the
    /// assembler empty (its label and fixup lists keep their capacity,
    /// so one assembler can build many programs).
    ///
    /// # Panics
    /// Panics on undefined labels (a codegen bug, not a user error).
    pub fn build(&mut self) -> Vec<Insn> {
        for f in &self.fixups {
            let target = (self.labels.iter().rev())
                .find_map(|(name, at)| (*name == f.label).then_some(*at))
                .unwrap_or_else(|| panic!("undefined label `{}`", f.label));
            // Offset is relative to the instruction after the jump.
            self.insns[f.insn_idx].off = (target as i64 - f.insn_idx as i64 - 1) as i16;
        }
        self.fixups.clear();
        self.labels.clear();
        std::mem::take(&mut self.insns)
    }
}

/// Disassemble a program for documentation/debugging.
pub fn disasm(prog: &[Insn]) -> String {
    let mut out = String::new();
    let mut skip = false;
    for (i, insn) in prog.iter().enumerate() {
        if skip {
            skip = false;
            out.push_str(&format!("{i:4}: (lddw hi)\n"));
            continue;
        }
        out.push_str(&format!("{i:4}: {insn}\n"));
        if insn.is_lddw() {
            skip = true;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::jmp;

    #[test]
    fn forward_label_resolution() {
        let mut a = Asm::new();
        a.mov64_imm(reg::R0, 1)
            .jmp_imm(jmp::JEQ, reg::R0, 1, "done")
            .mov64_imm(reg::R0, 99)
            .label("done")
            .exit();
        let prog = a.build();
        assert_eq!(prog.len(), 4);
        // jeq at index 1 must skip index 2: off = 3 - 1 - 1 = 1.
        assert_eq!(prog[1].off, 1);
    }

    #[test]
    fn backward_label_resolution() {
        let mut a = Asm::new();
        a.label("top").mov64_imm(reg::R0, 0).ja("top");
        let prog = a.build();
        assert_eq!(prog[1].off, -2);
    }

    #[test]
    #[should_panic(expected = "undefined label")]
    fn undefined_label_panics() {
        let mut a = Asm::new();
        a.ja("nowhere");
        a.build();
    }

    #[test]
    fn a_reused_assembler_builds_exact_programs() {
        let mut a = Asm::new();
        for n in [3usize, 5] {
            a.reserve(n).mov64_imm(reg::R0, 0);
            for _ in 2..n {
                a.jmp_imm(jmp::JEQ, reg::R0, 1, "done");
            }
            a.label("done").exit();
            let prog = a.build();
            assert_eq!((prog.len(), prog.capacity()), (n, n));
            assert_eq!(
                prog[1].off as usize,
                n - 3,
                "labels of the last program resolve"
            );
            assert!(a.is_empty());
        }
    }

    #[test]
    fn lddw_takes_two_slots() {
        let mut a = Asm::new();
        a.lddw(reg::R1, 0x1122334455667788);
        let prog = a.build();
        assert_eq!(prog.len(), 2);
        assert_eq!(prog[0].imm as u32, 0x55667788);
        assert_eq!(prog[1].imm as u32, 0x11223344);
    }

    #[test]
    fn disasm_renders_each_insn() {
        let mut a = Asm::new();
        a.mov64_imm(reg::R0, 2).exit();
        let d = disasm(&a.build());
        assert!(d.contains("mov64 r0, 2"), "{d}");
        assert!(d.contains("exit"), "{d}");
    }
}
