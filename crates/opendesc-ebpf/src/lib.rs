//! # opendesc-ebpf — eBPF substrate: ISA, assembler, verifier, VM
//!
//! Stands in for the kernel's XDP/eBPF machinery: OpenDesc-generated
//! descriptor accessors are emitted as eBPF programs, statically checked
//! by the [`verifier`] (pointer provenance + compare-and-branch bounds
//! proofs, kernel-style), and executed by the [`interp`] VM against an
//! XDP-like context whose `meta`/`meta_end` window exposes the raw NIC
//! completion record.
pub mod asm;
pub mod insn;
pub mod interp;
pub mod verifier;
pub mod xdp;

pub use asm::{disasm, reg, Asm};
pub use insn::{alu, class, jmp, mode, size, srcop, xdp_action, Insn};
pub use interp::{Vm, VmError, VmStats};
pub use verifier::{verify, RegState, VerifierError, VerifierStats};
pub use xdp::{base, ctx_off, XdpContext};

#[cfg(test)]
mod fuzz_tests;
