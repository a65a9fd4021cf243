//! The paper's baseline datapaths, which E3 compares the product against.
//! They are comparison points, not part of the product.
//!
//! * [`GenericMbufDriver`] — the DPDK-style generic layer the paper's §2
//!   motivates against: the driver copies *every* field of the active
//!   completion layout into a generic mbuf through flag-driven
//!   indirection, and the application reads its subset back through a
//!   dynamic lookup. Nothing is specialized to the application's intent.
//! * [`LcdDriver`] — the netmap-style least common denominator: buffer
//!   pointer + length only; every requested semantic is recomputed in
//!   software per packet, even when the NIC already computed it.
//!
//! Both deliberately implement the *same* externally visible behaviour
//! as [`OpenDescDriver`](opendesc_core::OpenDescDriver) so the E3
//! comparison is apples to apples.

use opendesc_core::{Intent, RxPacket};
use opendesc_ir::bits::read_bits;
use opendesc_ir::path::FieldSlot;
use opendesc_ir::semantics::SemanticRegistry;
use opendesc_ir::SemanticId;
use opendesc_nicsim::nic::{NicError, SimNic};
use opendesc_softnic::SoftNic;

/// A DPDK `rte_mbuf`-like generic metadata record: fixed flag word plus a
/// dynamic field area filled by the driver's translation layer.
#[derive(Debug, Clone, Default)]
pub struct GenericMbuf {
    /// Bit i set ⇔ dynamic field i valid (offload flags).
    pub flags: u64,
    /// `(semantic, value)` in layout order — the "indirection layer that
    /// copies metadata based on numerous configuration flags" (§2).
    pub fields: Vec<(SemanticId, u128)>,
}

impl GenericMbuf {
    /// Application-side lookup: scan the dynamic fields.
    #[inline]
    pub fn get(&self, sem: SemanticId) -> Option<u128> {
        self.fields
            .iter()
            .enumerate()
            .find(|(i, (s, _))| *s == sem && self.flags & (1 << i) != 0)
            .map(|(_, (_, v))| *v)
    }
}

/// The generic (DPDK-like) datapath.
pub struct GenericMbufDriver {
    pub nic: SimNic,
    intent: Intent,
    reg: SemanticRegistry,
    soft: SoftNic,
    /// The active layout's slots, captured at attach time. The driver
    /// iterates them dynamically per packet — the genericity cost.
    slots: Vec<FieldSlot>,
}

impl GenericMbufDriver {
    /// Attach to a NIC already configured with some context (the generic
    /// layer does not select layouts; it consumes whatever is active).
    pub fn attach(nic: SimNic, intent: Intent, reg: SemanticRegistry) -> Result<Self, NicError> {
        let slots = nic
            .active_path()
            .map(|p| p.slots.clone())
            .unwrap_or_default();
        Ok(GenericMbufDriver {
            nic,
            intent,
            reg,
            soft: SoftNic::new(),
            slots,
        })
    }

    pub fn deliver(&mut self, frame: &[u8]) -> Result<(), NicError> {
        self.nic.deliver(frame)
    }

    /// Driver half: extract *all* metadata into a generic mbuf
    /// (`sk_buff`/`rte_mbuf` behaviour), then application half: read the
    /// intent's fields back via the flag-checked dynamic lookup.
    pub fn poll(&mut self) -> Option<RxPacket> {
        let (frame, cmpt) = self.nic.receive()?;
        // --- driver translation layer: copy everything ---
        let mut mbuf = GenericMbuf::default();
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(sem) = slot.semantic else { continue };
            // Generic layer cannot specialize: bit-exact reads always.
            let v = read_bits(&cmpt, slot.offset_bits, slot.width_bits);
            mbuf.fields.push((sem, v));
            mbuf.flags |= 1 << (i.min(63));
        }
        // --- application: dynamic lookups + software fallback ---
        let meta = self
            .intent
            .fields
            .iter()
            .map(|f| {
                let v = mbuf.get(f.semantic).or_else(|| {
                    self.soft
                        .compute(&self.reg, f.semantic, &frame)
                        .map(|v| v as u128)
                });
                (f.semantic, v)
            })
            .collect();
        Some(RxPacket { frame, meta })
    }
}

/// The least-common-denominator datapath: completions are ignored beyond
/// packet delivery; all metadata is recomputed in software.
pub struct LcdDriver {
    pub nic: SimNic,
    intent: Intent,
    reg: SemanticRegistry,
    soft: SoftNic,
}

impl LcdDriver {
    pub fn attach(nic: SimNic, intent: Intent, reg: SemanticRegistry) -> Self {
        LcdDriver {
            nic,
            intent,
            reg,
            soft: SoftNic::new(),
        }
    }

    pub fn deliver(&mut self, frame: &[u8]) -> Result<(), NicError> {
        self.nic.deliver(frame)
    }

    pub fn poll(&mut self) -> Option<RxPacket> {
        let (frame, _cmpt) = self.nic.receive()?;
        let meta = self
            .intent
            .fields
            .iter()
            .map(|f| {
                let v = self
                    .soft
                    .compute(&self.reg, f.semantic, &frame)
                    .map(|v| v as u128);
                (f.semantic, v)
            })
            .collect();
        Some(RxPacket { frame, meta })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opendesc_core::{Compiler, OpenDescDriver};
    use opendesc_ir::names;
    use opendesc_nicsim::models;
    use opendesc_softnic::testpkt;

    fn frame() -> Vec<u8> {
        testpkt::udp4(
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            7,
            9,
            b"hello world",
            Some(0x0064),
        )
    }

    fn compiled_pair() -> (OpenDescDriver, GenericMbufDriver, LcdDriver) {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("i")
            .want(&mut reg, names::RSS_HASH)
            .want(&mut reg, names::VLAN_TCI)
            .want(&mut reg, names::PKT_LEN)
            .build();
        let model = models::mlx5();
        let compiled = Compiler::default()
            .compile_model(&model, &intent, &mut reg)
            .unwrap();
        let ctx = compiled.context.clone().unwrap();

        let od =
            OpenDescDriver::attach(SimNic::new(model.clone(), 256).unwrap(), compiled).unwrap();

        let mut nic2 = SimNic::new(model.clone(), 256).unwrap();
        nic2.configure(ctx.clone()).unwrap();
        let gen = GenericMbufDriver::attach(nic2, intent.clone(), reg.clone()).unwrap();

        let mut nic3 = SimNic::new(model, 256).unwrap();
        nic3.configure(ctx).unwrap();
        let lcd = LcdDriver::attach(nic3, intent, reg);
        (od, gen, lcd)
    }

    #[test]
    fn all_three_datapaths_agree_on_values() {
        let (mut od, mut gen, mut lcd) = compiled_pair();
        let f = frame();
        od.deliver(&f).unwrap();
        gen.deliver(&f).unwrap();
        lcd.deliver(&f).unwrap();
        let a = od.poll().unwrap();
        let b = gen.poll().unwrap();
        let c = lcd.poll().unwrap();
        assert_eq!(a.meta, b.meta, "opendesc vs generic-mbuf");
        assert_eq!(a.meta, c.meta, "opendesc vs least-common-denominator");
    }

    #[test]
    fn generic_mbuf_flag_lookup() {
        let mut m = GenericMbuf::default();
        m.fields.push((SemanticId(3), 42));
        // Flag not set: invisible.
        assert_eq!(m.get(SemanticId(3)), None);
        m.flags = 1;
        assert_eq!(m.get(SemanticId(3)), Some(42));
        assert_eq!(m.get(SemanticId(9)), None);
    }

    #[test]
    fn generic_driver_copies_all_slots() {
        let (_, mut gen, _) = compiled_pair();
        gen.deliver(&frame()).unwrap();
        // Internal check: the mini-CQE carries 3 semantics; the generic
        // layer copies all of them even though only rss/len are wanted
        // from it. (Behavioural proxy: poll succeeds and slot list is
        // the full layout.)
        assert!(gen.slots.iter().filter(|s| s.semantic.is_some()).count() >= 3);
        assert!(gen.poll().is_some());
    }

    #[test]
    fn lcd_ignores_completion_content() {
        let (_, _, mut lcd) = compiled_pair();
        // Even with fault-corrupted completions the LCD values are
        // unaffected (it never reads them).
        lcd.nic
            .set_faults(
                opendesc_nicsim::FaultConfig::builder()
                    .corrupt_chance(1.0)
                    .seed(3)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        lcd.deliver(&frame()).unwrap();
        let pkt = lcd.poll().unwrap();
        let mut soft = SoftNic::new();
        let reg = SemanticRegistry::with_builtins();
        let want = soft
            .compute(&reg, reg.id(names::RSS_HASH).unwrap(), &pkt.frame)
            .unwrap() as u128;
        assert_eq!(pkt.get(reg.id(names::RSS_HASH).unwrap()), Some(want));
    }
}
