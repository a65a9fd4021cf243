//! The descriptor hook — §4's future-work item made concrete: "we want
//! to enable the use of the accessors in DPDK by enabling a hook on the
//! descriptor, much like XDP is doing for kernel drivers".
//!
//! A [`HookDriver`] runs a user callback on every `(frame, completion)`
//! pair *before* any generic metadata conversion, with the compiled
//! accessor set in hand. Packets the hook drops never pay for mbuf
//! construction — the early-drop economics that make XDP fast, at the
//! DPDK layer.

use crate::accessor::AccessorSet;
use crate::compiler::CompiledInterface;
use crate::datapath::RxPacket;
use opendesc_ir::SemanticRegistry;
use opendesc_nicsim::nic::{NicError, SimNic};
use opendesc_softnic::SoftNic;

/// Verdict returned by a descriptor hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookVerdict {
    /// Continue to full metadata assembly and application delivery.
    Pass,
    /// Drop before any further per-packet work.
    Drop,
}

/// Per-queue hook statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct HookStats {
    pub passed: u64,
    pub dropped: u64,
    /// Completions shorter than the negotiated record, dropped before
    /// the hook could read past their end.
    pub short: u64,
}

/// A driver with an XDP-style early hook on the raw descriptor.
pub struct HookDriver<F>
where
    F: FnMut(&[u8], &[u8], &AccessorSet, &SemanticRegistry) -> HookVerdict,
{
    pub nic: SimNic,
    pub iface: CompiledInterface,
    hook: F,
    soft: SoftNic,
    pub stats: HookStats,
}

impl<F> HookDriver<F>
where
    F: FnMut(&[u8], &[u8], &AccessorSet, &SemanticRegistry) -> HookVerdict,
{
    /// Attach, programming the compiled context; an interface whose
    /// completion path that context does not select is refused
    /// ([`SimNic::configure_path`]).
    pub fn attach(mut nic: SimNic, iface: CompiledInterface, hook: F) -> Result<Self, NicError> {
        nic.configure_path(iface.context.as_ref(), iface.path.id)?;
        Ok(HookDriver {
            nic,
            iface,
            hook,
            soft: SoftNic::new(),
            stats: HookStats::default(),
        })
    }

    /// Wire side.
    pub fn deliver(&mut self, frame: &[u8]) -> Result<(), NicError> {
        self.nic.deliver(frame)
    }

    /// Poll until the hook passes a packet (or the queue drains).
    /// Dropped packets cost only the hook invocation — no metadata
    /// assembly, no shim computation. A truncated completion never
    /// reaches the hook: its accessors would read past the end.
    pub fn poll(&mut self) -> Option<RxPacket> {
        loop {
            let (frame, cmpt) = self.nic.receive()?;
            if cmpt.len() < self.iface.accessors.completion_bytes as usize {
                self.stats.short += 1;
                continue;
            }
            match (self.hook)(&frame, &cmpt, &self.iface.accessors, &self.iface.reg) {
                HookVerdict::Drop => {
                    self.stats.dropped += 1;
                    continue;
                }
                HookVerdict::Pass => {
                    self.stats.passed += 1;
                    let values = self.iface.accessors.read_packet(
                        &self.iface.reg,
                        &mut self.soft,
                        &frame,
                        &cmpt,
                    );
                    let meta = self
                        .iface
                        .accessors
                        .accessors
                        .iter()
                        .zip(values)
                        .map(|(a, v)| (a.semantic, v))
                        .collect();
                    return Some(RxPacket { frame, meta });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Compiler;
    use crate::intent::Intent;
    use opendesc_ir::names;
    use opendesc_nicsim::{models, PktGen, Workload};

    fn compiled() -> (CompiledInterface, SemanticRegistry) {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("hook")
            .want(&mut reg, names::RSS_HASH)
            .want(&mut reg, names::PKT_LEN)
            .build();
        let c = Compiler::default()
            .compile_model(&models::mlx5(), &intent, &mut reg)
            .unwrap();
        (c, reg)
    }

    #[test]
    fn hook_filters_on_descriptor_metadata_only() {
        let (iface, reg) = compiled();
        let rss = reg.id(names::RSS_HASH).unwrap();
        let nic = SimNic::new(models::mlx5(), 512).unwrap();
        // Drop every packet whose NIC-computed RSS hash is even — read
        // straight from the completion, never touching frame bytes.
        let mut drv = HookDriver::attach(nic, iface, move |_frame, cmpt, acc, _reg| {
            let h = acc.for_semantic(rss).unwrap().read(cmpt);
            if h % 2 == 0 {
                HookVerdict::Drop
            } else {
                HookVerdict::Pass
            }
        })
        .unwrap();

        let mut gen = PktGen::new(Workload {
            flows: 64,
            ..Workload::default()
        });
        for _ in 0..200 {
            drv.deliver(&gen.next_frame()).unwrap();
        }
        let mut soft = SoftNic::new();
        while let Some(pkt) = drv.poll() {
            let h = soft.compute_by_name(names::RSS_HASH, &pkt.frame).unwrap();
            assert_eq!(h % 2, 1, "only odd-hash packets may pass");
        }
        assert_eq!(drv.stats.passed + drv.stats.dropped, 200);
        assert!(drv.stats.dropped > 40, "{:?}", drv.stats);
        assert!(drv.stats.passed > 40, "{:?}", drv.stats);
    }

    #[test]
    fn pass_all_hook_equals_plain_driver() {
        let (iface, _) = compiled();
        let nic = SimNic::new(models::mlx5(), 64).unwrap();
        let mut hook_drv =
            HookDriver::attach(nic, iface.clone(), |_, _, _, _| HookVerdict::Pass).unwrap();
        let nic2 = SimNic::new(models::mlx5(), 64).unwrap();
        let mut plain = crate::datapath::OpenDescDriver::attach(nic2, iface).unwrap();

        let mut g1 = PktGen::new(Workload::default());
        let mut g2 = PktGen::new(Workload::default());
        for _ in 0..20 {
            hook_drv.deliver(&g1.next_frame()).unwrap();
            plain.deliver(&g2.next_frame()).unwrap();
        }
        for _ in 0..20 {
            assert_eq!(hook_drv.poll().unwrap().meta, plain.poll().unwrap().meta);
        }
    }

    /// A device that truncates completions cannot make the hook read
    /// past the end: at 100 % every frame is counted short, at 50 % the
    /// rest pass with the values a fault-free driver serves.
    #[test]
    fn truncated_completions_are_counted_not_read() {
        use opendesc_nicsim::FaultConfig;
        for model in [
            models::e1000e(),
            models::ixgbe(),
            models::mlx5(),
            models::qdma_default(),
        ] {
            let mut reg = SemanticRegistry::with_builtins();
            let intent = Intent::builder("hook")
                .want(&mut reg, names::RSS_HASH)
                .want(&mut reg, names::PKT_LEN)
                .build();
            let iface = Compiler::default()
                .compile_model(&model, &intent, &mut reg)
                .unwrap();
            for chance in [1.0, 0.5] {
                let nic = SimNic::new(model.clone(), 64).unwrap();
                let mut drv = HookDriver::attach(nic, iface.clone(), |_, cmpt, acc, _| {
                    for a in &acc.accessors {
                        if a.kind == crate::accessor::AccessorKind::Hardware {
                            a.read(cmpt);
                        }
                    }
                    HookVerdict::Pass
                })
                .unwrap();
                let faults = FaultConfig::builder().truncate_chance(chance).seed(19);
                drv.nic.set_faults(faults.build().unwrap()).unwrap();
                let clean = SimNic::new(model.clone(), 64).unwrap();
                let mut plain =
                    crate::datapath::OpenDescDriver::attach(clean, iface.clone()).unwrap();
                let frames = PktGen::new(Workload::default()).batch(40);
                for f in &frames {
                    drv.deliver(f).unwrap();
                    plain.deliver(f).unwrap();
                }
                let mut expected: Vec<RxPacket> = Vec::new();
                while let Some(p) = plain.poll() {
                    expected.push(p);
                }
                while let Some(got) = drv.poll() {
                    let want = expected.iter().find(|p| p.frame == got.frame);
                    assert_eq!(Some(&got.meta), want.map(|p| &p.meta), "{}", model.name);
                }
                let HookStats { passed, short, .. } = drv.stats;
                assert_eq!(passed + short, 40, "{} at {chance}", model.name);
                assert_eq!(short, drv.nic.stats.truncated, "{}", model.name);
                assert!(short > 0 && (chance < 1.0 || passed == 0));
            }
        }
    }

    #[test]
    fn drop_all_hook_delivers_nothing() {
        let (iface, _) = compiled();
        let nic = SimNic::new(models::mlx5(), 64).unwrap();
        let mut drv = HookDriver::attach(nic, iface, |_, _, _, _| HookVerdict::Drop).unwrap();
        let mut gen = PktGen::new(Workload::default());
        for _ in 0..10 {
            drv.deliver(&gen.next_frame()).unwrap();
        }
        assert!(drv.poll().is_none());
        assert_eq!(drv.stats.dropped, 10);
    }
}
