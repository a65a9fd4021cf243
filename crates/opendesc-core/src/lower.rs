//! Plan lowering: `RxPlan` → plan bytecode + verified eBPF programs.
//!
//! Lowering runs once per compilation and produces two executable forms
//! of the same plan:
//!
//! 1. A [`PlanProgram`] (see [`crate::vm`]) — the compact register
//!    bytecode the datapath actually runs. Each hardware accessor's
//!    load strategy (alignment, width class, offset) is resolved here,
//!    at compile time, into a specialized opcode.
//! 2. One eBPF program per ≤8-byte *window* of every hardware field
//!    ([`EbpfFieldProg`]), each carrying the canonical bounds-check
//!    prologue. Every window program must pass the `opendesc-ebpf`
//!    verifier before lowering succeeds — so a plan whose completion
//!    layout would read out of bounds is rejected *here*, and the
//!    `PlanCache` never serves an unproven plan.
//!
//! The eBPF form is also executable (byte-identical to the bytecode's
//! loads, proven by `tests/vm_equivalence.rs`), which is what makes the
//! verifier's acceptance meaningful: it proves the same loads the VM
//! performs, not a parallel reimplementation.

use crate::accessor::{Accessor, AccessorSet};
use crate::plan::RxPlan;
use crate::vm::{op, shim_code, BcInsn, PlanProgram};
use opendesc_ebpf::asm::{reg, Asm};
use opendesc_ebpf::insn::{alu, jmp, size, Insn};
use opendesc_ebpf::xdp::{ctx_off, XdpContext};
use opendesc_ebpf::{Vm, VmError};
use opendesc_ir::bits::width_mask;
use std::borrow::Cow;
use std::fmt;

/// Why a plan could not be lowered.
#[derive(Debug, Clone, PartialEq)]
pub enum LowerError {
    /// More output slots than the bytecode's `u128` slot masks address.
    TooManyFields { fields: usize },
    /// A field's offset or width does not fit the 16-bit operands.
    OperandRange { name: String },
    /// The eBPF verifier rejected a lowered window program — the plan
    /// would read outside the completion record it declares.
    Verify {
        name: String,
        pc: usize,
        reason: String,
    },
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::TooManyFields { fields } => {
                write!(f, "plan has {fields} fields; the bytecode addresses 128")
            }
            LowerError::OperandRange { name } => {
                write!(f, "field {name}: offset/width exceeds 16-bit operands")
            }
            LowerError::Verify { name, pc, reason } => {
                write!(f, "verifier rejected {name} at pc {pc}: {reason}")
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// One ≤8-byte window of a hardware field, as a verified eBPF program
/// returning the window's raw big-endian bytes in r0.
#[derive(Debug, Clone)]
pub struct EbpfWindow {
    /// Bit position of the window's low end within the field's byte
    /// span: `8 * (span_end − window_end)`.
    pub shift: u32,
    pub prog: Vec<Insn>,
}

/// The eBPF form of one hardware field: its windows plus the combine
/// parameters that reassemble the field value host-side.
#[derive(Debug, Clone)]
pub struct EbpfFieldProg {
    /// The accessor's name.
    pub name: Cow<'static, str>,
    /// Output slot (accessor index) the field fills.
    pub acc_idx: usize,
    pub width_bits: u16,
    /// Bits below the field inside its byte span (discarded on combine).
    pub trailing: u32,
    pub windows: Vec<EbpfWindow>,
}

impl EbpfFieldProg {
    /// Execute every window against `cmpt` through the eBPF VM and
    /// combine into the field value — bit-identical to the bytecode
    /// load of the same accessor. A record shorter than the declared
    /// completion size takes each window's guard branch and combines
    /// to 0.
    pub fn run(&self, vm: &Vm, cmpt: &[u8]) -> Result<u128, VmError> {
        let ctx = XdpContext::new(Vec::new(), cmpt.to_vec());
        let mut value: u128 = 0;
        for w in &self.windows {
            let (r0, _) = vm.run(&w.prog, &ctx)?;
            let t = r0 as u128;
            if w.shift >= self.trailing {
                let sh = w.shift - self.trailing;
                if sh < 128 {
                    value |= t << sh;
                }
            } else {
                value |= t >> (self.trailing - w.shift);
            }
        }
        Ok(value & width_mask(self.width_bits))
    }
}

/// A fully-lowered plan: the bytecode the datapath runs plus the
/// verifier-accepted eBPF form of every hardware field.
#[derive(Debug, Clone)]
pub struct LoweredPlan {
    pub prog: PlanProgram,
    pub ebpf: Vec<EbpfFieldProg>,
    /// Aggregate verifier states explored proving all windows — nonzero
    /// iff the verifier actually ran (and accepted) the lowered plan.
    pub verifier_states: u64,
}

/// Emit the load every generated eBPF program starts with: bounds-check
/// the whole completion record (branching to `short` when it is shorter
/// than `completion_bytes`), then big-endian byte-accumulate
/// `[start, end)` into r0. Leaves the metadata pointer in r2; r3–r5 are
/// scratch.
pub(crate) fn emit_window_load(
    a: &mut Asm,
    completion_bytes: u32,
    start: u32,
    end: u32,
    short: &'static str,
) {
    a.ldx(size::DW, reg::R2, reg::R1, ctx_off::META)
        .ldx(size::DW, reg::R3, reg::R1, ctx_off::META_END)
        .mov64_reg(reg::R4, reg::R2)
        .alu64_imm(alu::ADD, reg::R4, completion_bytes as i32)
        .jmp_reg(jmp::JGT, reg::R4, reg::R3, short)
        .mov64_imm(reg::R0, 0);
    for i in start..end {
        a.alu64_imm(alu::LSH, reg::R0, 8)
            .ldx(size::B, reg::R5, reg::R2, i as i16)
            .alu64_reg(alu::OR, reg::R0, reg::R5);
    }
}

/// One window program: the shared load, returning the raw window bytes
/// (0 for a short record). Assembled in `a`, which the whole plan
/// shares, into a vector of exactly its length: the six-instruction
/// prologue, three per byte, then `exit` and the three-instruction
/// `short` arm.
fn gen_window(a: &mut Asm, completion_bytes: u32, start: u32, end: u32) -> Vec<Insn> {
    a.reserve(9 + 3 * (end - start) as usize);
    emit_window_load(a, completion_bytes, start, end, "short");
    a.exit().label("short").mov64_imm(reg::R0, 0).exit();
    a.build()
}

/// Lower one hardware accessor's byte span into verified windows.
fn gen_field(a: &mut Asm, acc: &Accessor, acc_idx: usize, completion_bytes: u32) -> EbpfFieldProg {
    let lo = acc.offset_bits / 8;
    let hi = (acc.offset_bits + acc.width_bits as u32).div_ceil(8);
    let trailing = hi * 8 - (acc.offset_bits + acc.width_bits as u32);
    let mut windows = Vec::with_capacity((hi - lo).div_ceil(8) as usize);
    let mut s = lo;
    while s < hi {
        let e = (s + 8).min(hi);
        windows.push(EbpfWindow {
            shift: 8 * (hi - e),
            prog: gen_window(a, completion_bytes, s, e),
        });
        s = e;
    }
    EbpfFieldProg {
        name: acc.name.clone(),
        acc_idx,
        width_bits: acc.width_bits,
        trailing,
        windows,
    }
}

/// Pick the specialized load opcode for one accessor. The alignment
/// classification mirrors `Accessor`'s private fast path: byte-aligned
/// whole-byte widths take direct big-endian loads, everything else the
/// bit-exact path.
fn load_insn(acc: &Accessor, dst: u8) -> Result<BcInsn, LowerError> {
    let range_err = || LowerError::OperandRange {
        name: acc.name.to_string(),
    };
    let aligned = acc.offset_bits.is_multiple_of(8)
        && acc.width_bits.is_multiple_of(8)
        && acc.width_bits <= 128;
    if aligned {
        let off: u16 = (acc.offset_bits / 8).try_into().map_err(|_| range_err())?;
        let bytes = acc.width_bits / 8;
        let opc = match bytes {
            1 => op::LD_BE1,
            2 => op::LD_BE2,
            4 => op::LD_BE4,
            8 => op::LD_BE8,
            _ => op::LD_BYTES,
        };
        Ok(BcInsn {
            op: opc,
            dst,
            a: off,
            b: bytes,
        })
    } else {
        let off: u16 = acc.offset_bits.try_into().map_err(|_| range_err())?;
        Ok(BcInsn {
            op: op::LD_BITS,
            dst,
            a: off,
            b: acc.width_bits,
        })
    }
}

/// Lower a compiled plan to bytecode and verified eBPF. Fails if any
/// operand does not fit the instruction encoding or if the verifier
/// rejects any window program — a rejected plan is never executable.
pub fn lower(set: &AccessorSet, plan: &RxPlan) -> Result<LoweredPlan, LowerError> {
    let slots = plan.steps.len();
    if slots > 128 {
        return Err(LowerError::TooManyFields { fields: slots });
    }

    let mut trusted = Vec::with_capacity(slots);
    for &acc_idx in &plan.hw {
        trusted.push(load_insn(&set.accessors[acc_idx], acc_idx as u8)?);
    }
    let hw_len = trusted.len();
    for &(acc_idx, sop) in &plan.sw {
        trusted.push(BcInsn {
            op: op::SHIM,
            dst: acc_idx as u8,
            a: shim_code(sop),
            b: 0,
        });
    }

    let mut verified = Vec::with_capacity(hw_len + plan.hw_check.len() + plan.sw.len());
    verified.extend_from_slice(&trusted[..hw_len]);
    for &(acc_idx, sop) in &plan.hw_check {
        verified.push(BcInsn {
            op: op::SHIM_CHECK,
            dst: acc_idx as u8,
            a: shim_code(sop),
            b: set.accessors[acc_idx].width_bits,
        });
    }
    verified.extend_from_slice(&trusted[hw_len..]);

    let degraded = plan
        .degraded
        .iter()
        .map(|&(acc_idx, sop)| BcInsn {
            op: op::SHIM,
            dst: acc_idx as u8,
            a: shim_code(sop),
            b: 0,
        })
        .collect();

    let mut a = Asm::new();
    let ebpf: Vec<EbpfFieldProg> = (plan.hw.iter())
        .map(|&i| gen_field(&mut a, &set.accessors[i], i, set.completion_bytes))
        .collect();

    // The safety gate: every window of every hardware field must carry a
    // verifier-accepted bounds proof for the completion it reads. A
    // window is named only when the verifier refuses it.
    let mut verifier_states = 0u64;
    for f in &ebpf {
        for (j, w) in f.windows.iter().enumerate() {
            let stats = opendesc_ebpf::verify(&w.prog).map_err(|e| LowerError::Verify {
                name: format!("{}#w{j}", f.name),
                pc: e.pc,
                reason: e.reason,
            })?;
            verifier_states += stats.states_explored as u64;
        }
    }

    Ok(LoweredPlan {
        prog: PlanProgram {
            trusted,
            hw_len,
            verified,
            degraded,
            slots,
            deparse: Vec::new(),
        },
        ebpf,
        verifier_states,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Compiler;
    use crate::intent::Intent;
    use opendesc_ir::{names, SemanticId, SemanticRegistry};
    use opendesc_nicsim::models;

    fn compiled_for(model: opendesc_nicsim::NicModel) -> crate::compiler::CompiledInterface {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("lower")
            .want(&mut reg, names::RSS_HASH)
            .want(&mut reg, names::PKT_LEN)
            .want(&mut reg, names::VLAN_TCI)
            .want(&mut reg, names::PACKET_TYPE)
            .want(&mut reg, names::KVS_KEY_HASH)
            .build();
        Compiler::default()
            .compile_model(&model, &intent, &mut reg)
            .unwrap()
    }

    #[test]
    fn lowered_streams_mirror_the_plan() {
        for model in [
            models::e1000e(),
            models::ixgbe(),
            models::mlx5(),
            models::qdma_default(),
        ] {
            let iface = compiled_for(model);
            let low = lower(&iface.accessors, &iface.plan).expect("real models lower");
            let p = &low.prog;
            assert_eq!(p.slots, iface.plan.steps.len());
            assert_eq!(p.hw_len, iface.plan.hw.len());
            assert_eq!(p.trusted.len(), iface.plan.hw.len() + iface.plan.sw.len());
            assert_eq!(
                p.verified.len(),
                iface.plan.hw.len() + iface.plan.hw_check.len() + iface.plan.sw.len()
            );
            assert_eq!(p.degraded.len(), iface.plan.degraded.len());
            // A verified batch serves a truncated row with its checks
            // and shims: they must be the degraded stream's shims.
            let ops = |insns: &[BcInsn]| {
                let mut ops: Vec<_> = insns.iter().map(|i| (i.dst, i.a)).collect();
                ops.sort();
                ops
            };
            assert_eq!(ops(&p.verified[p.hw_len..]), ops(&p.degraded));
            assert_eq!(low.ebpf.len(), iface.plan.hw.len());
            assert!(low.verifier_states > 0 || low.ebpf.is_empty());
        }
    }

    #[test]
    fn ebpf_field_progs_match_accessor_reads() {
        let vm = Vm::default();
        for model in [models::e1000e(), models::mlx5(), models::qdma_default()] {
            let iface = compiled_for(model);
            let low = lower(&iface.accessors, &iface.plan).unwrap();
            let cmpt: Vec<u8> = (0..iface.accessors.completion_bytes)
                .map(|i| (i as u8).wrapping_mul(151) ^ 0xA7)
                .collect();
            for f in &low.ebpf {
                let want = iface.accessors.accessors[f.acc_idx].read(&cmpt);
                let got = f.run(&vm, &cmpt).expect("verified program runs");
                assert_eq!(got, want, "{} field {}", iface.nic_name, f.name);
            }
        }
    }

    #[test]
    fn bench7_verifier_states_are_pinned() {
        // Every window has one bounds check, so the verifier visits each
        // of its 9 + 3·bytes instructions once: the states of a plan are
        // the instructions of its windows, and each is exact-capacity.
        let pinned = [
            ("e1000-legacy", 45),
            ("e1000e", 45),
            ("ixgbe", 96),
            ("ice", 66),
            ("mlx5", 123),
            ("qdma", 117),
        ];
        let mut states = Vec::new();
        for model in models::catalog() {
            let mut reg = SemanticRegistry::with_builtins();
            let intent = [
                names::RSS_HASH,
                names::VLAN_TCI,
                names::PKT_LEN,
                names::PACKET_TYPE,
                names::PAYLOAD_OFFSET,
                names::KVS_KEY_HASH,
                names::IP_CHECKSUM,
            ]
            .iter()
            .fold(Intent::builder("bench7"), |b, s| b.want(&mut reg, s))
            .build();
            let iface = Compiler::default()
                .compile_model(&model, &intent, &mut reg)
                .unwrap();
            let low = lower(&iface.accessors, &iface.plan).unwrap();
            let windows = low.ebpf.iter().flat_map(|f| &f.windows);
            for w in windows.clone() {
                assert_eq!(w.prog.capacity(), w.prog.len(), "{}", model.name);
            }
            let insns: usize = windows.map(|w| w.prog.len()).sum();
            assert_eq!(low.verifier_states, insns as u64, "{}", model.name);
            states.push((model.name.clone(), low.verifier_states));
        }
        let pinned: Vec<_> = pinned.iter().map(|&(n, s)| (n.to_string(), s)).collect();
        assert_eq!(states, pinned);
    }

    #[test]
    fn out_of_bounds_plan_is_rejected_by_the_verifier() {
        // A layout lying about its completion size: the field lives at
        // bytes [8, 12) but the record is declared 8 bytes long. The
        // bytecode would read past the record; the verifier refuses to
        // prove the window and lowering fails.
        let set = AccessorSet {
            accessors: vec![Accessor::hardware(SemanticId(0), "liar", 64, 32)],
            completion_bytes: 8,
        };
        let reg = SemanticRegistry::with_builtins();
        let plan = RxPlan::compile(&set, &reg);
        let err = lower(&set, &plan).unwrap_err();
        match err {
            LowerError::Verify { name, reason, .. } => {
                assert!(name.starts_with("liar"), "{name}");
                assert!(reason.contains("exceeds proven bound"), "{reason}");
            }
            other => panic!("expected Verify rejection, got {other:?}"),
        }
    }

    #[test]
    fn unaligned_wide_field_windows_combine_exactly() {
        // 128-bit field at bit offset 4: spans 17 bytes → three windows
        // (8 + 8 + 1) with nonzero trailing; the combine must be
        // bit-exact against the generic accessor read.
        let set = AccessorSet {
            accessors: vec![Accessor::hardware(SemanticId(0), "wide", 4, 128)],
            completion_bytes: 20,
        };
        let reg = SemanticRegistry::with_builtins();
        let plan = RxPlan::compile(&set, &reg);
        let low = lower(&set, &plan).unwrap();
        assert_eq!(low.ebpf[0].windows.len(), 3);
        let cmpt: Vec<u8> = (0u8..20).map(|i| i.wrapping_mul(73) ^ 0x11).collect();
        let vm = Vm::default();
        assert_eq!(
            low.ebpf[0].run(&vm, &cmpt).unwrap(),
            set.accessors[0].read(&cmpt)
        );
    }
}
