//! # opendesc-reference — what the product is held equal to
//!
//! One P4 contract yields several executable forms — host accessors,
//! plan bytecode, verifier-gated eBPF, the device's own writeback — and
//! the equivalence suites hold them bit-identical. The simplest
//! statement of each form lives here, outside the product: this crate
//! depends on the product crates, so none of them can depend on it, and
//! `cargo build` is what proves no datapath calls an oracle.
//!
//! * the tree interpreter over an [`RxPlan`] — [`execute_into_primed`],
//!   [`execute_verified`], [`execute_degraded`],
//!   [`execute_degraded_partial`] — the oracle of every
//!   `PlanProgram::run_*` runner (`tests/vm_equivalence.rs`,
//!   `tests/batched_equivalence.rs`, [`conformance`]);
//! * [`tx_descriptor`], the find-by-semantic descriptor serializer the
//!   TX deparse bytecode is compared against
//!   (`tests/tx_equivalence.rs`, [`conformance`]);
//! * [`conformance`], the differential fuzzer that mints NIC models at
//!   random and cross-checks every form on identical bytes (E20,
//!   `tests/conformance_fuzz.rs`, `tests/corpus_replay.rs`);
//! * the contract interpreter ([`interp`] over [`value`]), which
//!   executes a `CmptDeparser` or `DescParser` statement by statement,
//!   and [`device`] on top of it: what the P4 text says a queue must
//!   write for a frame and emit for a descriptor — the oracle of the
//!   simulated NIC's table-driven writeback and descriptor parse
//!   (`tests/device_oracle.rs`, `tests/alignment.rs`,
//!   `tests/tx_device_modes.rs`).

pub mod conformance;
pub mod device;
pub mod interp;
pub mod value;

use opendesc_core::{AccessorSet, PlanStep, RxPlan};
use opendesc_ir::bits::{width_mask, write_bits};
use opendesc_ir::txpath::DescriptorLayout;
use opendesc_ir::SemanticId;
use opendesc_softnic::wire::ParsedFrame;
use opendesc_softnic::{ShimMemo, ShimOp, SoftNic};

/// One software step: `None` when the frame does not parse or lacks the
/// layers the shim needs.
fn shim(
    soft: &mut SoftNic,
    op: ShimOp,
    parsed: Option<&ParsedFrame<'_>>,
    frame_len: usize,
    memo: &mut ShimMemo,
) -> Option<u128> {
    parsed
        .and_then(|p| soft.exec_op(op, p, frame_len, memo))
        .map(|v| v as u128)
}

/// Execute the plan for one packet into `out[..steps.len()]`, step by
/// step in intent order. Hardware steps always produce `Some`; software
/// steps produce `None` when the shim cannot compute — the same
/// contract as `AccessorSet::read_packet`. `rss_hint` primes the shim
/// memo with the completion's RSS sideband the way the datapath does,
/// so software `rss_hash`/`queue_hint` steps become memo hits.
pub fn execute_into_primed(
    plan: &RxPlan,
    set: &AccessorSet,
    soft: &mut SoftNic,
    frame: &[u8],
    cmpt: &[u8],
    rss_hint: Option<u32>,
    out: &mut [Option<u128>],
) {
    let parsed = if plan.needs_parse() {
        ParsedFrame::parse(frame)
    } else {
        None
    };
    let mut memo = ShimMemo::default();
    if let Some(h) = rss_hint {
        memo.prime_rss(h);
    }
    for step in &plan.steps {
        match *step {
            PlanStep::Hardware { acc_idx } => {
                out[acc_idx] = Some(set.accessors[acc_idx].read(cmpt));
            }
            PlanStep::Software { acc_idx, op } => {
                out[acc_idx] = shim(soft, op, parsed.as_ref(), frame.len(), &mut memo);
            }
        }
    }
}

/// Degraded execution: the completion is untrusted and never read.
/// Every software-recomputable field — including those the layout
/// normally provides in hardware — is recomputed from the frame;
/// device-only fields (timestamps, crypto contexts) come out `None`.
/// The shim memo is *not* primed: the device sideband is as untrusted
/// as the completion.
pub fn execute_degraded(plan: &RxPlan, soft: &mut SoftNic, frame: &[u8], out: &mut [Option<u128>]) {
    execute_degraded_partial(plan, soft, frame, 0, out)
}

/// Selective degraded re-serve: slots whose bit is set in `keep` retain
/// the value already in `out` — fields the validator affirmatively
/// proved, or software values that never touched the completion —
/// and every other slot is cleared, then recomputed from the frame if
/// it can be. `keep = 0` is exactly [`execute_degraded`]; slots past
/// the 128-bit mask are never kept.
pub fn execute_degraded_partial(
    plan: &RxPlan,
    soft: &mut SoftNic,
    frame: &[u8],
    keep: u128,
    out: &mut [Option<u128>],
) {
    let kept = |i: usize| keep.checked_shr(i as u32).is_some_and(|k| k & 1 != 0);
    for (i, slot) in out[..plan.steps.len()].iter_mut().enumerate() {
        if !kept(i) {
            *slot = None;
        }
    }
    let parsed = ParsedFrame::parse(frame);
    let mut memo = ShimMemo::default();
    for &(acc_idx, op) in &plan.degraded {
        if !kept(acc_idx) {
            out[acc_idx] = shim(soft, op, parsed.as_ref(), frame.len(), &mut memo);
        }
    }
}

/// Verified execution: hardware fields are read from the completion
/// *and* cross-checked against the SoftNIC reference; on mismatch the
/// software value wins (masked to the slot width, since that is all the
/// hardware field could ever carry). Software steps run unprimed.
/// Returns how many hardware fields were repaired.
pub fn execute_verified(
    plan: &RxPlan,
    set: &AccessorSet,
    soft: &mut SoftNic,
    frame: &[u8],
    cmpt: &[u8],
    out: &mut [Option<u128>],
) -> u32 {
    let parsed = if !plan.sw.is_empty() || !plan.hw_check.is_empty() {
        ParsedFrame::parse(frame)
    } else {
        None
    };
    let mut memo = ShimMemo::default();
    for &acc_idx in &plan.hw {
        out[acc_idx] = Some(set.accessors[acc_idx].read(cmpt));
    }
    let mut repaired = 0;
    for &(acc_idx, op) in &plan.hw_check {
        let want = shim(soft, op, parsed.as_ref(), frame.len(), &mut memo)
            .map(|v| width_mask(set.accessors[acc_idx].width_bits) & v);
        if let Some(w) = want {
            if out[acc_idx] != Some(w) {
                out[acc_idx] = Some(w);
                repaired += 1;
            }
        }
    }
    for &(acc_idx, op) in &plan.sw {
        out[acc_idx] = shim(soft, op, parsed.as_ref(), frame.len(), &mut memo);
    }
    repaired
}

/// Serialize a TX descriptor for `layout` from `(semantic, value)`
/// hints: each slot that names a semantic takes the first hint for it,
/// every other bit stays zero, and hints the layout has no slot for are
/// ignored (the driver handles those in software).
pub fn tx_descriptor(layout: &DescriptorLayout, values: &[(SemanticId, u128)]) -> Vec<u8> {
    let mut desc = vec![0u8; layout.size_bytes() as usize];
    for slot in &layout.slots {
        if let Some((_, v)) = values.iter().find(|(s, _)| Some(*s) == slot.semantic) {
            write_bits(&mut desc, slot.offset_bits, slot.width_bits, *v);
        }
    }
    desc
}
