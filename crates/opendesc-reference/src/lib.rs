//! # opendesc-reference — what the product is held equal to
//!
//! One P4 contract yields several executable forms — host accessors,
//! plan bytecode, verifier-gated eBPF, the device's own writeback — and
//! the equivalence suites hold them bit-identical. The simplest
//! statement of each form lives here, outside the product: this crate
//! depends on the product crates, so none of them can depend on it, and
//! `cargo build` is what proves no datapath calls an oracle.
//!
//! * [`read_packet`], the per-packet SoftNIC reference: the accessor
//!   table read field by field, every software field recomputed from
//!   the frame — what the tree interpreter is held equal to
//!   (`tests/plan_oracle.rs`, `tests/alignment.rs`, [`conformance`]);
//! * the tree interpreter over an [`RxPlan`] — [`execute_into_primed`],
//!   [`execute_verified`], [`execute_degraded`],
//!   [`execute_degraded_partial`] — the oracle of what the datapath
//!   delivers in each disposition ([`serve`] polls one hand-made
//!   completion through it; `tests/vm_equivalence.rs`,
//!   `tests/batched_equivalence.rs`, [`conformance`]) and of its
//!   re-serve, `vm::reserve_rows`, under arbitrary keep masks;
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

use opendesc_core::{
    AccessorKind, AccessorSet, CompiledRx, MetricRegistry, MetricValue, OpenDescDriver, PlanStep,
    QueueHealth, RxPlan, ValidationMode, ValidationStats,
};
use opendesc_ir::bits::{read_bits, width_mask, write_bits};
use opendesc_ir::txpath::DescriptorLayout;
use opendesc_ir::{SemanticId, SemanticRegistry};
use opendesc_nicsim::{FaultConfig, SimNic};
use opendesc_softnic::wire::ParsedFrame;
use opendesc_softnic::{ShimMemo, ShimOp, SoftNic};
use std::sync::Arc;

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

/// Read one packet's metadata through the accessor table alone:
/// hardware fields from the completion, software fields recomputed from
/// the frame, each shim looked up by its semantic's name. Returns
/// values in accessor order (`None` when a software shim cannot
/// compute, e.g. non-IP traffic).
pub fn read_packet(
    set: &AccessorSet,
    reg: &SemanticRegistry,
    soft: &mut SoftNic,
    frame: &[u8],
    cmpt: &[u8],
) -> Vec<Option<u128>> {
    let parsed = ParsedFrame::parse(frame);
    let mut memo = ShimMemo::default();
    (set.accessors.iter())
        .map(|a| match a.kind {
            AccessorKind::Hardware => Some(a.read(cmpt)),
            AccessorKind::Software => {
                let op = ShimOp::from_name(reg.name(a.semantic));
                shim(soft, op, parsed.as_ref(), frame.len(), &mut memo)
            }
        })
        .collect()
}

/// Execute the plan for one packet into `out[..steps.len()]`, step by
/// step in intent order. Hardware steps always produce `Some`; software
/// steps produce `None` when the shim cannot compute — the same
/// contract as [`read_packet`]. `rss_hint` primes the shim
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

/// The disposition [`serve`] polls its row under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// `Structural` mode on a `Healthy` queue.
    Trusted,
    /// `Full` mode on a `Healthy` queue: every checkable hardware field
    /// is cross-checked.
    Verified,
    /// A queue that replayed completions until it was demoted to
    /// `Degraded`: the completion is not read.
    Degraded,
}

/// One row an attached driver delivered, as [`serve`] reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct Polled {
    /// The row's slots, in accessor order.
    pub row: Vec<Option<u128>>,
    /// What the poll added to the queue's validation counters.
    pub stats: ValidationStats,
    /// SoftNIC ops the poll ran: what it added to the queue's
    /// `softnic.shim_ops` counter.
    pub shim_ops: u64,
}

/// The queue's `softnic.shim_ops` counter, read through its metrics.
fn shim_ops(drv: &OpenDescDriver) -> u64 {
    let mut reg = MetricRegistry::new();
    drv.register_metrics(&mut reg, "q");
    match reg.get("q.softnic.shim_ops") {
        Some(&MetricValue::Counter(ops)) => ops,
        other => panic!("no shim-op counter: {other:?}"),
    }
}

/// What the product delivers for one hand-made completion: attach `rx`
/// to `nic`, bring the queue to the disposition `how` names, post
/// `(frame, cmpt)` with `rss_hint` as its steering sideband
/// ([`SimNic::post_completion`]) and poll it as the one row of a
/// four-slot batch. `None` when the device refuses to attach `rx`.
///
/// # Panics
/// Panics if the queue does not deliver exactly the posted row, or
/// does not demote within 64 replayed completions.
pub fn serve(
    nic: SimNic,
    rx: &Arc<CompiledRx>,
    how: Served,
    frame: &[u8],
    cmpt: &[u8],
    rss_hint: Option<u32>,
) -> Option<Polled> {
    let mut drv = OpenDescDriver::attach_shared(nic, Arc::clone(rx)).ok()?;
    let mut batch = drv.make_batch(4);
    match how {
        Served::Trusted => {}
        Served::Verified => drv.set_validation_mode(ValidationMode::Full),
        Served::Degraded => {
            let replay = FaultConfig::builder().duplicate_chance(1.0).build();
            drv.nic.set_faults(replay.expect("a valid chance")).unwrap();
            for _ in 0..64 {
                if drv.health() == QueueHealth::Degraded {
                    break;
                }
                drv.deliver(frame).unwrap();
                while drv.poll_batch_into(&mut batch) > 0 {}
            }
            assert_eq!(drv.health(), QueueHealth::Degraded, "replays demote");
            drv.nic.set_faults(FaultConfig::default()).unwrap();
        }
    }
    let (before, ops_before) = (drv.validation_stats(), shim_ops(&drv));
    drv.nic.post_completion(frame, cmpt, rss_hint).unwrap();
    assert_eq!(drv.poll_batch_into(&mut batch), 1, "the posted row");
    assert_eq!(drv.completion(&batch, 0), Some(cmpt), "read in its slot");
    let after = drv.validation_stats();
    let row = (0..batch.semantics().len())
        .map(|field| batch.value_at(field, 0))
        .collect();
    let stats = ValidationStats {
        accepted: after.accepted - before.accepted,
        truncated: after.truncated - before.truncated,
        duplicates: after.duplicates - before.duplicates,
        stale: after.stale - before.stale,
        structural_failures: after.structural_failures - before.structural_failures,
        repaired_fields: after.repaired_fields - before.repaired_fields,
        degraded_packets: after.degraded_packets - before.degraded_packets,
    };
    let shim_ops = shim_ops(&drv) - ops_before;
    Some(Polled {
        row,
        stats,
        shim_ops,
    })
}

/// Rewrite each structurally checked hardware field of `cmpt` to a
/// value its check accepts for a `frame_len`-byte frame
/// ([`FieldCheck::passing_value`]), so a trusted poll delivers the
/// record as read instead of re-serving it. Fields past the end of a
/// short record are left alone.
///
/// [`FieldCheck::passing_value`]: opendesc_core::FieldCheck::passing_value
pub fn pass_checks(rx: &CompiledRx, frame_len: usize, cmpt: &mut [u8]) {
    for &(i, width, check) in &rx.validator().checks {
        let offset = rx.accessors.accessors[i].offset_bits;
        if (offset + width as u32).div_ceil(8) as usize > cmpt.len() {
            continue;
        }
        let ok = check.passing_value(read_bits(cmpt, offset, width), width, frame_len);
        write_bits(cmpt, offset, width, ok);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opendesc_core::Intent;
    use opendesc_ir::path::CompletionPath;
    use opendesc_ir::{enumerate_paths, extract, names, DEFAULT_MAX_PATHS};
    use opendesc_p4::typecheck::parse_and_check;
    use opendesc_softnic::testpkt;

    fn mlx5_mini_path() -> (CompletionPath, SemanticRegistry) {
        let src = r#"
            header mini_t {
                @semantic("rss_hash") bit<32> rss;
                @semantic("pkt_len") bit<16> byte_cnt;
                @semantic("rx_status") bit<8> op_own;
                bit<8> pad0;
            }
            struct ctx_t { bit<1> c; }
            struct m_t { mini_t mini; }
            control C(cmpt_out o, in ctx_t ctx, in m_t m) {
                apply { o.emit(m.mini); }
            }
        "#;
        let (checked, d) = parse_and_check(src);
        assert!(!d.has_errors());
        let mut reg = SemanticRegistry::with_builtins();
        let cfg = extract(&checked, "C", &mut reg).unwrap();
        let mut paths = enumerate_paths(&cfg, DEFAULT_MAX_PATHS).unwrap();
        (paths.remove(0), reg)
    }

    fn accessors(path: &CompletionPath, reg: &mut SemanticRegistry, sem: &str) -> AccessorSet {
        AccessorSet::synthesize(path, &Intent::builder("i").want(reg, sem).build())
    }

    #[test]
    fn software_shim_recomputes_from_frame() {
        let (path, mut reg) = mlx5_mini_path();
        let set = accessors(&path, &mut reg, names::VLAN_TCI);
        let frame = testpkt::udp4([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, b"x", Some(0x0ABC));
        let vals = read_packet(&set, &reg, &mut SoftNic::new(), &frame, &[0u8; 8]);
        assert_eq!(vals, vec![Some(0x0ABC)]);
    }

    #[test]
    fn software_shim_returns_none_when_incomputable() {
        let (path, mut reg) = mlx5_mini_path();
        let set = accessors(&path, &mut reg, names::TIMESTAMP);
        let frame = testpkt::udp4([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, b"x", None);
        let vals = read_packet(&set, &reg, &mut SoftNic::new(), &frame, &[0u8; 8]);
        assert_eq!(vals, vec![None]);
    }
}
