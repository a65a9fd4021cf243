//! Differential soundness testing: the verifier's acceptance must imply
//! the VM cannot fault.
//!
//! Random programs are generated from a pool of plausible instruction
//! shapes (register moves, ALU ops, context loads, bounded and unbounded
//! memory accesses, forward jumps, exits). For every program the
//! verifier *accepts*, the VM is run against adversarial contexts
//! (empty, short, large) and must terminate without a memory fault.
//! This is the soundness property the paper's XDP story rests on.

#![cfg(test)]

use crate::insn::{alu, class, jmp, mode, size, srcop, Insn};
use crate::interp::{Vm, VmError};
use crate::verifier::verify;
use crate::xdp::{ctx_off, XdpContext};
use proptest::prelude::*;

/// One random instruction, biased toward verifier-passable shapes.
fn arb_insn() -> impl Strategy<Value = Vec<Insn>> {
    // Registers 0..=5 keep the state space small; r1 starts as ctx.
    let reg = 0u8..6;
    prop_oneof![
        // mov imm
        (reg.clone(), any::<i16>()).prop_map(|(d, v)| vec![Insn::new(
            class::ALU64 | alu::MOV | srcop::K,
            d,
            0,
            0,
            v as i32
        )]),
        // mov reg
        (reg.clone(), reg.clone()).prop_map(|(d, s)| vec![Insn::new(
            class::ALU64 | alu::MOV | srcop::X,
            d,
            s,
            0,
            0
        )]),
        // alu imm (add/sub/and/or/lsh/rsh/neg)
        (
            reg.clone(),
            prop_oneof![
                Just(alu::ADD),
                Just(alu::SUB),
                Just(alu::AND),
                Just(alu::OR),
                Just(alu::LSH),
                Just(alu::RSH),
                Just(alu::NEG)
            ],
            0i32..64
        )
            .prop_map(|(d, op, v)| vec![Insn::new(
                class::ALU64 | op | srcop::K,
                d,
                0,
                0,
                v
            )]),
        // load a context pointer field
        (
            reg.clone(),
            prop_oneof![
                Just(ctx_off::DATA),
                Just(ctx_off::DATA_END),
                Just(ctx_off::META),
                Just(ctx_off::META_END),
                Just(4i16),
                Just(12) // invalid offsets too
            ]
        )
            .prop_map(|(d, off)| vec![Insn::new(
                class::LDX | mode::MEM | size::DW,
                d,
                1,
                off,
                0
            )]),
        // memory load via arbitrary register (often unsound → rejected)
        (
            reg.clone(),
            reg.clone(),
            -4i16..16,
            prop_oneof![Just(size::B), Just(size::H), Just(size::W), Just(size::DW)]
        )
            .prop_map(|(d, s, off, sz)| vec![Insn::new(
                class::LDX | mode::MEM | sz,
                d,
                s,
                off,
                0
            )]),
        // stack store + load pair
        (reg.clone(), -64i16..-8).prop_map(|(s, off)| vec![
            Insn::new(class::STX | mode::MEM | size::DW, 10, s, off, 0),
            Insn::new(class::LDX | mode::MEM | size::DW, s, 10, off, 0),
        ]),
        // forward conditional jump over 1 insn
        (
            reg.clone(),
            prop_oneof![Just(jmp::JEQ), Just(jmp::JGT), Just(jmp::JNE)],
            any::<i32>()
        )
            .prop_map(|(d, op, v)| vec![
                Insn::new(class::JMP | op | srcop::K, d, 0, 1, v),
                Insn::new(class::ALU64 | alu::MOV | srcop::K, 0, 0, 0, 7),
            ]),
        // pointer-vs-end comparison (the bounds-proof shape)
        (reg.clone(), reg.clone()).prop_map(|(d, s)| vec![
            Insn::new(class::JMP | jmp::JGT | srcop::X, d, s, 1, 0),
            Insn::new(class::ALU64 | alu::MOV | srcop::K, 0, 0, 0, 1)
        ]),
    ]
}

/// Σ over `pc` of the number of entry→`pc` paths of a loop-free program
/// (an `lddw` is one instruction): how many instruction visits it takes
/// to walk every path on its own.
fn path_visits(prog: &[Insn]) -> u64 {
    let mut paths = vec![0u64; prog.len() + 2];
    paths[0] = 1;
    let mut visits = 0;
    for (pc, insn) in prog.iter().enumerate() {
        let n = paths[pc];
        if n == 0 {
            continue;
        }
        visits += n;
        let target = (pc as i64 + 1 + insn.off as i64) as usize;
        match (insn.class(), insn.code & 0xF0) {
            (class::LD, _) if insn.is_lddw() => paths[pc + 2] += n,
            (class::JMP, jmp::EXIT) => {}
            (class::JMP, jmp::JA) => paths[target] += n,
            (class::JMP, _) => {
                paths[target] += n;
                paths[pc + 1] += n;
            }
            _ => paths[pc + 1] += n,
        }
    }
    visits
}

fn arb_program() -> impl Strategy<Value = Vec<Insn>> {
    proptest::collection::vec(arb_insn(), 1..12).prop_map(|chunks| {
        let mut prog: Vec<Insn> = vec![
            // r0 initialized so EXIT is always legal if reached.
            Insn::new(class::ALU64 | alu::MOV | srcop::K, 0, 0, 0, 0),
        ];
        for c in chunks {
            prog.extend(c);
        }
        prog.push(Insn::new(class::JMP | jmp::EXIT, 0, 0, 0, 0));
        prog
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// SOUNDNESS: if the verifier accepts, the VM never reports a memory
    /// fault on any input.
    #[test]
    fn verified_programs_never_fault(prog in arb_program()) {
        if verify(&prog).is_err() {
            // Rejected programs are out of scope here (completeness is
            // not claimed, soundness is).
            return Ok(());
        }
        let vm = Vm { insn_budget: 100_000 };
        for (pkt, meta) in [
            (vec![], vec![]),
            (vec![0u8; 1], vec![0u8; 1]),
            (vec![0xFF; 64], vec![0xAA; 8]),
            (vec![0x00; 2048], vec![0x55; 64]),
        ] {
            let ctx = XdpContext::new(pkt.clone(), meta.clone());
            match vm.run(&prog, &ctx) {
                Ok(_) => {}
                Err(e @ (VmError::OutOfBounds { .. } | VmError::ReadOnly { .. })) => {
                    panic!(
                        "VERIFIER UNSOUND: accepted program faulted with {e}\n{}",
                        crate::asm::disasm(&prog)
                    );
                }
                Err(VmError::Timeout) => {
                    panic!("verified program looped (back-edge slipped through)");
                }
                Err(other) => {
                    panic!("verified program hit {other} — verifier/VM disagree on validity");
                }
            }
        }
    }

    /// The walk is pinned: an accepted program was proven one path at a
    /// time, one state per instruction visited, with nothing merged or
    /// skipped.
    #[test]
    fn states_explored_counts_every_path(prog in arb_program()) {
        if let Ok(stats) = verify(&prog) {
            prop_assert_eq!(stats.states_explored as u64, path_visits(&prog));
        }
    }

    /// The verifier itself never panics on arbitrary instruction bytes.
    #[test]
    fn verifier_total_on_random_code(raw in proptest::collection::vec(any::<[u8; 8]>(), 1..64)) {
        let prog: Vec<Insn> = raw.iter().map(Insn::decode).collect();
        let _ = verify(&prog); // must not panic
    }

    /// The VM never panics either: any error is a clean `VmError`.
    #[test]
    fn vm_total_on_random_code(raw in proptest::collection::vec(any::<[u8; 8]>(), 1..64)) {
        let prog: Vec<Insn> = raw.iter().map(Insn::decode).collect();
        let vm = Vm { insn_budget: 10_000 };
        let ctx = XdpContext::new(vec![0u8; 32], vec![0u8; 16]);
        let _ = vm.run(&prog, &ctx); // must not panic
    }
}
