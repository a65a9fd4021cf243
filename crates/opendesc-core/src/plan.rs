//! Compiled RX shim plans: the step-level IR of a compiled interface.
//!
//! `AccessorSet` tells *where* each semantic comes from; an [`RxPlan`]
//! lowers that, once, at `Compiler::compile` time, into how the hot loop
//! obtains it: hardware steps index straight into the accessor table and
//! software steps carry a pre-resolved [`ShimOp`] — no per-packet
//! registry lookup or match-on-name.
//!
//! A plan is data. The driver runs its bytecode form (lowered by
//! [`mod@crate::lower`], executed by [`crate::vm`]); the tree
//! interpreter that states the same semantics step by step is the
//! differential-test oracle and lives in the `opendesc-reference`
//! crate, which this crate cannot depend on.

use crate::accessor::{AccessorKind, AccessorSet};
use opendesc_ir::semantics::SemanticRegistry;
use opendesc_softnic::ShimOp;

/// One step of a compiled plan; the index is the accessor's position in
/// the [`AccessorSet`] (and therefore the metadata slot it fills).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStep {
    /// Constant-time read of accessor `acc_idx` from the completion.
    Hardware { acc_idx: usize },
    /// SoftNIC shim, pre-lowered to its op.
    Software { acc_idx: usize, op: ShimOp },
}

/// The compiled per-packet execution plan of one interface.
#[derive(Debug, Clone, Default)]
pub struct RxPlan {
    /// All steps, in accessor (= intent field) order.
    pub steps: Vec<PlanStep>,
    /// Accessor indices of the hardware steps, for columnar batch reads.
    pub hw: Vec<usize>,
    /// `(accessor index, op)` of the software steps.
    pub sw: Vec<(usize, ShimOp)>,
    /// Every accessor the SoftNIC can recompute from frame bytes —
    /// hardware and software steps alike, except a hardware `flow_tag`,
    /// whose numbering is the device's. This is the degraded-mode
    /// execution list: when the completion cannot be trusted, these ops
    /// produce every recomputable value without reading it.
    pub degraded: Vec<(usize, ShimOp)>,
    /// Hardware steps with a software reference — the verify-mode
    /// cross-check list (subset of `hw`; device-only semantics like
    /// timestamps, and a device's flow tags, have no reference and
    /// cannot be checked).
    pub hw_check: Vec<(usize, ShimOp)>,
}

impl RxPlan {
    /// Lower an accessor set. Called once per compilation; the returned
    /// plan is reused for every packet.
    pub fn compile(set: &AccessorSet, reg: &SemanticRegistry) -> RxPlan {
        let mut steps = Vec::with_capacity(set.accessors.len());
        let mut hw = Vec::new();
        let mut sw = Vec::new();
        let mut degraded = Vec::new();
        let mut hw_check = Vec::new();
        for (acc_idx, a) in set.accessors.iter().enumerate() {
            let op = ShimOp::from_name(reg.name(a.semantic));
            // A device numbers flows in its own table, which the host's
            // cannot reproduce: a hardware `flow_tag` is device-only,
            // like `timestamp` — read as-is, never cross-checked or
            // recomputed.
            let recomputable = match a.kind {
                AccessorKind::Hardware => !matches!(op, ShimOp::Unsupported | ShimOp::FlowTag),
                AccessorKind::Software => op != ShimOp::Unsupported,
            };
            match a.kind {
                AccessorKind::Hardware => {
                    steps.push(PlanStep::Hardware { acc_idx });
                    hw.push(acc_idx);
                    if recomputable {
                        hw_check.push((acc_idx, op));
                    }
                }
                AccessorKind::Software => {
                    steps.push(PlanStep::Software { acc_idx, op });
                    sw.push((acc_idx, op));
                }
            }
            if recomputable {
                degraded.push((acc_idx, op));
            }
        }
        RxPlan {
            steps,
            hw,
            sw,
            degraded,
            hw_check,
        }
    }

    /// Whether any step needs the frame parsed (pure-hardware plans skip
    /// the parse entirely).
    #[inline]
    pub fn needs_parse(&self) -> bool {
        !self.sw.is_empty()
    }

    /// Bitmask of software-step slots whose already-computed values may
    /// be *kept* across a degraded re-serve: software values were never
    /// read from the (now-distrusted) completion. When the trusted pass
    /// was primed with the device's RSS sideband (`hinted`), the
    /// `rss_hash`/`queue_hint` slots are excluded — the hint is device
    /// data and is as untrusted as the failing completion.
    pub(crate) fn keep_sw_mask(&self, hinted: bool) -> u128 {
        let mut mask = 0u128;
        for &(acc_idx, op) in &self.sw {
            if acc_idx >= 128 {
                continue;
            }
            if hinted && matches!(op, ShimOp::RssHash | ShimOp::QueueHint) {
                continue;
            }
            mask |= 1u128 << acc_idx;
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Compiler;
    use crate::intent::Intent;
    use opendesc_ir::names;
    use opendesc_nicsim::models;

    fn compiled_for(model: opendesc_nicsim::NicModel) -> crate::compiler::CompiledInterface {
        let mut reg = opendesc_ir::SemanticRegistry::with_builtins();
        let intent = Intent::from_p4(crate::intent::FIG1_INTENT_P4, &mut reg).unwrap();
        Compiler::default()
            .compile_model(&model, &intent, &mut reg)
            .unwrap()
    }

    #[test]
    fn plan_partitions_hw_and_sw_steps() {
        let iface = compiled_for(models::e1000e());
        let plan = &iface.plan;
        assert_eq!(plan.steps.len(), iface.accessors.accessors.len());
        assert_eq!(plan.hw.len(), iface.accessors.hardware().count());
        assert_eq!(plan.sw.len(), iface.accessors.software().count());
        assert!(plan.needs_parse(), "e1000e needs RSS + KVS shims");
        // Every software step carries a concrete (supported) op.
        for (_, op) in &plan.sw {
            assert_ne!(*op, ShimOp::Unsupported);
        }
    }

    #[test]
    fn pure_hardware_plan_skips_parsing() {
        let iface = compiled_for(models::mlx5());
        assert!(iface.accessors.software().count() == 0);
        assert!(!iface.plan.needs_parse());
    }

    #[test]
    fn keep_sw_mask_excludes_hint_fed_slots_when_primed() {
        let mut reg = opendesc_ir::SemanticRegistry::with_builtins();
        let intent = Intent::builder("mask")
            .want(&mut reg, names::RSS_HASH)
            .want(&mut reg, names::QUEUE_HINT)
            .want(&mut reg, names::VLAN_TCI)
            .build();
        let iface = Compiler::default()
            .compile_model(&models::e1000_legacy(), &intent, &mut reg)
            .unwrap();
        let plan = &iface.plan;
        assert!(
            plan.sw.len() >= 2,
            "legacy e1000 computes rss_hash and queue_hint in software"
        );
        let unhinted = plan.keep_sw_mask(false);
        let hinted = plan.keep_sw_mask(true);
        for &(acc_idx, op) in &plan.sw {
            let bit = 1u128 << acc_idx;
            assert_ne!(unhinted & bit, 0, "unhinted keeps every sw slot");
            let hint_fed = matches!(op, ShimOp::RssHash | ShimOp::QueueHint);
            assert_eq!(
                hinted & bit == 0,
                hint_fed,
                "hinted mask drops exactly the hint-fed slots"
            );
        }
    }
}
