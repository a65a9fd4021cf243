//! TX compilation: align the host's transmit intent with the descriptor
//! layouts the NIC's `DescParser` accepts (paper §3 channel ①, §5
//! "synthesizing the complete driver datapath").
//!
//! Mirrors the RX pipeline: enumerate descriptor layouts, select by the
//! same Eq. 1 shape (software cost of offload hints the layout cannot
//! carry + descriptor DMA footprint), then lower the chosen layout to
//! deparse bytecode that serializes hint values at its fixed offsets
//! ([`lower_tx`]). Offloads the layout cannot request are applied by
//! the driver in software before posting — using the same softnic
//! fix-ups the device itself uses, so the wire frame is identical
//! either way.
//!
//! There is one submission pipeline: [`TxQueue::submit_from`] is the
//! only code here that applies a fix-up, fills the hint registers, runs
//! the deparse bytecode or posts a descriptor, and [`TxDriver::send`] is
//! its one-slot case.

use crate::compiler::{check_contract, CompileError};
use crate::intent::Intent;
use crate::select::{SelectError, Selector};
use crate::vm::{op, BcInsn, PlanProgram};
use opendesc_ir::semantics::{names, SemanticRegistry};
use opendesc_ir::txpath::{enumerate_tx_layouts, DescriptorLayout};
use opendesc_ir::{Assignment, SemanticId};
use opendesc_nicsim::nic::{NicError, SimNic};
use opendesc_nicsim::ring::RingError;
use opendesc_p4::typecheck::CheckedProgram;
use opendesc_softnic::fixup;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The product of TX compilation.
#[derive(Debug, Clone)]
pub struct CompiledTx {
    pub nic_name: String,
    pub layout: DescriptorLayout,
    /// H2C context steering the queue onto this layout: a layout no
    /// context reaches never wins.
    pub context: Assignment,
    /// Requested TX semantics the layout cannot carry: the driver must
    /// perform these in software before posting.
    pub software: BTreeSet<SemanticId>,
    /// Names of the `software` semantics, resolved once at compile time
    /// so reporting them never re-walks the registry.
    software_names: Vec<Cow<'static, str>>,
    pub layouts_considered: usize,
}

impl CompiledTx {
    /// Names of software-fallback features (precomputed at compile time).
    pub fn software_features(&self) -> &[Cow<'static, str>] {
        &self.software_names
    }
}

/// Select the best TX layout for an intent (Eq. 1 over descriptor
/// layouts). Structural semantics (`buf_addr`, `buf_len`) are implicitly
/// required: a layout missing them cannot describe a transmit at all.
pub fn compile_tx(
    selector: &Selector,
    contract_src: &str,
    parser_name: &str,
    nic_name: &str,
    intent: &Intent,
    reg: &mut SemanticRegistry,
) -> Result<CompiledTx, CompileError> {
    let checked = check_contract(contract_src)?;
    compile_tx_checked(selector, &checked, parser_name, nic_name, intent, reg)
}

/// [`compile_tx`] over an already checked contract.
pub fn compile_tx_checked(
    selector: &Selector,
    checked: &CheckedProgram,
    parser_name: &str,
    nic_name: &str,
    intent: &Intent,
    reg: &mut SemanticRegistry,
) -> Result<CompiledTx, CompileError> {
    let layouts = enumerate_tx_layouts(checked, parser_name, reg)
        .map_err(|d| CompileError::Extract(d.summary()))?;
    if layouts.is_empty() {
        return Err(CompileError::Select(SelectError::NoPaths));
    }

    let mut req = intent.req();
    let buf_addr = reg.intern(names::BUF_ADDR);
    let buf_len = reg.intern(names::BUF_LEN);
    req.insert(buf_addr);
    req.insert(buf_len);

    // Score each layout with the same objective shape as RX. A layout no
    // context reaches never wins.
    let mut best: Option<(f64, &DescriptorLayout, Assignment, BTreeSet<SemanticId>)> = None;
    for l in &layouts {
        let Ok(context) = l.solve_context() else {
            continue;
        };
        let missing: BTreeSet<SemanticId> = req
            .iter()
            .filter(|s| !l.consumes.contains(s))
            .copied()
            .collect();
        let soft_cost: f64 = missing
            .iter()
            .map(|s| reg.cost(*s).eval(selector.avg_pkt_len))
            .sum();
        let objective = soft_cost + selector.beta_ns_per_byte * l.size_bytes() as f64;
        if objective.is_finite() && best.as_ref().is_none_or(|(o, ..)| objective < *o) {
            best = Some((objective, l, context, missing));
        }
    }
    let Some((_, layout, context, missing)) = best else {
        let uncomputable = req
            .iter()
            .filter(|s| reg.cost(**s).is_infinite())
            .map(|s| reg.name(*s).to_string())
            .collect();
        return Err(CompileError::Select(SelectError::Unsatisfiable {
            uncomputable,
        }));
    };
    // buf_addr/len are never "software" work — they were required above
    // to force infinite cost when absent; remove them from the fallback
    // set now that the layout is known to carry them.
    let software: BTreeSet<SemanticId> = missing
        .into_iter()
        .filter(|s| *s != buf_addr && *s != buf_len)
        .collect();
    let software_names = (software.iter())
        .map(|s| reg.info(*s).name.clone())
        .collect();
    Ok(CompiledTx {
        nic_name: nic_name.to_string(),
        context,
        layout: layout.clone(),
        software,
        software_names,
        layouts_considered: layouts.len(),
    })
}

/// TX offload requests for one frame.
#[derive(Debug, Clone, Copy, Default)]
pub struct TxRequest {
    /// Insert the IPv4 header checksum.
    pub ip_csum: bool,
    /// Insert the L4 checksum.
    pub l4_csum: bool,
    /// Insert an 802.1Q tag with this TCI.
    pub vlan: Option<u16>,
}

/// Canonical TX hint register file for the deparse bytecode. Every
/// compiled TX plan stores from the same five registers, so the batched
/// submit path fills one stack array per frame and runs the program —
/// no per-layout dispatch, no name lookups.
pub mod txreg {
    /// DMA address of the frame buffer.
    pub const BUF_ADDR: usize = 0;
    /// Frame length in bytes.
    pub const BUF_LEN: usize = 1;
    /// VLAN TCI to insert (0 = none).
    pub const VLAN: usize = 2;
    /// Request IPv4 header checksum insertion (0/1).
    pub const IP_CSUM: usize = 3;
    /// Request L4 checksum insertion (0/1).
    pub const L4_CSUM: usize = 4;
    /// Register file size.
    pub const COUNT: usize = 5;
}

/// Lower a compiled TX layout to deparse bytecode over the canonical
/// [`txreg`] register file: one store per descriptor slot, with the
/// store shape (aligned width vs. arbitrary bit field) resolved here,
/// once, instead of per packet. Slots whose semantic is outside the
/// canonical file are skipped — the layout may carry them, but this
/// driver never sets them, and their bytes stay zero.
pub fn lower_tx(compiled: &CompiledTx, reg: &SemanticRegistry) -> PlanProgram {
    let canonical = [
        (reg.id(names::BUF_ADDR), txreg::BUF_ADDR),
        (reg.id(names::BUF_LEN), txreg::BUF_LEN),
        (reg.id(names::TX_VLAN_INSERT), txreg::VLAN),
        (reg.id(names::TX_IP_CSUM), txreg::IP_CSUM),
        (reg.id(names::TX_L4_CSUM), txreg::L4_CSUM),
    ];
    let mut deparse = Vec::new();
    for slot in &compiled.layout.slots {
        let (off, width) = (slot.offset_bits, slot.width_bits);
        let Some(dst) = canonical
            .iter()
            .find_map(|(id, r)| (id.is_some() && *id == slot.semantic).then_some(*r as u8))
        else {
            continue;
        };
        let insn = if off % 8 == 0 {
            let byte = (off / 8) as u16;
            match width {
                8 => BcInsn {
                    op: op::ST_BE1,
                    dst,
                    a: byte,
                    b: 1,
                },
                16 => BcInsn {
                    op: op::ST_BE2,
                    dst,
                    a: byte,
                    b: 2,
                },
                32 => BcInsn {
                    op: op::ST_BE4,
                    dst,
                    a: byte,
                    b: 4,
                },
                64 => BcInsn {
                    op: op::ST_BE8,
                    dst,
                    a: byte,
                    b: 8,
                },
                w if w % 8 == 0 => BcInsn {
                    op: op::ST_BYTES,
                    dst,
                    a: byte,
                    b: w / 8,
                },
                w => BcInsn {
                    op: op::ST_BITS,
                    dst,
                    a: off as u16,
                    b: w,
                },
            }
        } else {
            BcInsn {
                op: op::ST_BITS,
                dst,
                a: off as u16,
                b: width,
            }
        };
        deparse.push(insn);
    }
    PlanProgram {
        deparse,
        ..PlanProgram::default()
    }
}

/// A fully-lowered TX artifact: the Eq. 1 layout match plus its deparse
/// bytecode and the software/hardware disposition of each offload,
/// resolved once at compile time. Shareable across queues behind an
/// `Arc`, like `CompiledRx`.
#[derive(Debug, Clone)]
pub struct CompiledTxPlan {
    pub tx: CompiledTx,
    /// Deparse program over the [`txreg`] register file.
    pub prog: PlanProgram,
    /// VLAN insertion must happen in driver software.
    pub sw_vlan: bool,
    /// IPv4 checksum must be filled in driver software.
    pub sw_ip_csum: bool,
    /// L4 checksum must be filled in driver software.
    pub sw_l4_csum: bool,
}

impl CompiledTxPlan {
    /// Lower a compiled TX layout into a plan.
    pub fn new(tx: CompiledTx, reg: &SemanticRegistry) -> CompiledTxPlan {
        let id = |n: &str| reg.id(n).expect("builtin semantic");
        let prog = lower_tx(&tx, reg);
        CompiledTxPlan {
            sw_vlan: tx.layout.slot_for(id(names::TX_VLAN_INSERT)).is_none(),
            sw_ip_csum: tx.layout.slot_for(id(names::TX_IP_CSUM)).is_none(),
            sw_l4_csum: tx.layout.slot_for(id(names::TX_L4_CSUM)).is_none(),
            prog,
            tx,
        }
    }
}

/// A transmit batch: `cap` separate frame buffers (each reserves 4 bytes
/// of VLAN headroom so software tag insertion never reallocates), a
/// length column and a request column. Reused across submissions:
/// [`TxQueue::submit`] exchanges each buffer it places for the one the
/// device has finished with, so the batch always owns `cap` buffers and
/// `clear` frees none of them.
pub struct TxBatch {
    bufs: Vec<Vec<u8>>,
    lens: Vec<u32>,
    reqs: Vec<TxRequest>,
    max_frame: usize,
}

impl TxBatch {
    /// A batch of up to `cap` frames of up to `max_frame` bytes each.
    pub fn new(cap: usize, max_frame: usize) -> TxBatch {
        TxBatch {
            bufs: vec![vec![0u8; max_frame + 4]; cap],
            lens: Vec::with_capacity(cap),
            reqs: Vec::with_capacity(cap),
            max_frame,
        }
    }

    pub fn capacity(&self) -> usize {
        self.bufs.len()
    }

    pub fn len(&self) -> usize {
        self.lens.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Drop all frames; the buffers stay allocated.
    pub fn clear(&mut self) {
        self.lens.clear();
        self.reqs.clear();
    }

    /// Copy a frame into the next buffer — the only time the host
    /// copies it. `false` when the batch is full or the frame exceeds
    /// `max_frame`.
    #[inline]
    pub fn push(&mut self, frame: &[u8], req: TxRequest) -> bool {
        if self.lens.len() == self.bufs.len() || frame.len() > self.max_frame {
            return false;
        }
        self.bufs[self.lens.len()][..frame.len()].copy_from_slice(frame);
        self.lens.push(frame.len() as u32);
        self.reqs.push(req);
        true
    }

    /// The `i`-th frame as pushed, while the batch still owns it. Once
    /// `submit` has placed it the device owns its buffer and this is
    /// empty; frames a full ring left unplaced read back untouched.
    #[inline]
    pub fn frame(&self, i: usize) -> &[u8] {
        &self.bufs[i][..self.lens[i] as usize]
    }

    /// The `i`-th offload request.
    pub fn request(&self, i: usize) -> TxRequest {
        self.reqs[i]
    }
}

/// Counters for one batched TX queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct TxQueueStats {
    /// Frames submitted to the ring.
    pub frames: u64,
    /// Doorbells rung (one per non-empty submit).
    pub doorbells: u64,
    /// Software fix-ups applied (per offload, not per frame).
    pub sw_fixups: u64,
    /// Submits that could not place every frame (ring back-pressure).
    pub stalls: u64,
}

/// The batched, allocation-free, copy-free transmit path. `attach`
/// pre-allocates one DMA buffer per ring entry; `submit` then cycles
/// through them round-robin, reclaiming lazily from the NIC's consumed
/// count — no completion queue walk, no locks, no per-send allocation.
/// A frame buffer has one owner at a time: the batch until `submit`
/// exchanges it into a DMA slot, the device until the slot's descriptor
/// is consumed, then the batch again when the slot is next chosen. The
/// doorbell rings once per batch.
pub struct TxQueue {
    plan: Arc<CompiledTxPlan>,
    /// Pre-allocated DMA slots, one per ring entry.
    slots: Vec<u64>,
    /// Frame bytes each DMA slot was sized for; a batch must match it.
    max_frame: usize,
    /// Frames submitted since attach.
    submitted: u64,
    /// NIC consumed-count at attach (the NIC may be shared with other
    /// traffic before this queue exists).
    cons_base: u64,
    pub stats: TxQueueStats,
}

impl TxQueue {
    /// Attach to a NIC: program the H2C context and pre-allocate DMA
    /// buffers sized for `max_frame` plus VLAN headroom. The queue
    /// assumes exclusive use of the NIC's TX ring.
    pub fn attach(nic: &mut SimNic, plan: Arc<CompiledTxPlan>, max_frame: usize) -> TxQueue {
        nic.configure_tx(plan.tx.context.clone());
        let zero = vec![0u8; max_frame + 4];
        let slots = (0..nic.tx_ring.capacity())
            .map(|_| nic.host_mem.alloc(&zero))
            .collect();
        TxQueue {
            plan,
            slots,
            max_frame,
            submitted: 0,
            cons_base: nic.tx_completed(),
            stats: TxQueueStats::default(),
        }
    }

    /// The plan this queue executes.
    pub fn plan(&self) -> &Arc<CompiledTxPlan> {
        &self.plan
    }

    /// Live-swap the queue onto a new compiled TX plan and reprogram
    /// the H2C context — the transmit twin of the RX drain-and-flip.
    /// The caller must have quiesced the queue first
    /// ([`in_flight`](TxQueue::in_flight) = 0): descriptors written
    /// under the outgoing layout must not be consumed under the
    /// incoming context.
    pub fn set_plan(&mut self, nic: &mut SimNic, plan: Arc<CompiledTxPlan>) {
        nic.configure_tx(plan.tx.context.clone());
        self.plan = plan;
    }

    /// Descriptors posted but not yet consumed by the device.
    pub fn in_flight(&self, nic: &SimNic) -> u64 {
        self.submitted - (nic.tx_completed() - self.cons_base)
    }

    /// Submit as many frames from the batch as the ring can take right
    /// now; returns the count placed. Software fix-ups run in the
    /// batch's buffers (in place), each buffer is then exchanged into
    /// its DMA slot, the deparse bytecode writes each descriptor
    /// straight into its ring slot, and the doorbell rings once at the
    /// end. `Ok(n)` short of the batch only ever means a full ring.
    pub fn submit(&mut self, nic: &mut SimNic, batch: &mut TxBatch) -> Result<usize, NicError> {
        self.submit_from(nic, batch, 0)
    }

    /// [`submit`](TxQueue::submit) starting at batch index `from` — the
    /// resubmission path after ring back-pressure; frames a submit did
    /// not place are untouched. A batch built for another frame size
    /// than the queue was attached for cannot trade buffers with its
    /// DMA slots and is a `BadConfig`: nothing fixed up, posted, counted
    /// or rung.
    pub fn submit_from(
        &mut self,
        nic: &mut SimNic,
        batch: &mut TxBatch,
        from: usize,
    ) -> Result<usize, NicError> {
        if batch.max_frame != self.max_frame {
            return Err(NicError::BadConfig(format!(
                "a batch of {}-byte frame slots cannot feed a queue attached with {}-byte ones",
                batch.max_frame, self.max_frame
            )));
        }
        let free = self.slots.len() as u64 - self.in_flight(nic);
        let pending = batch.len().saturating_sub(from);
        let room = (pending as u64).min(free) as usize;
        let plan = Arc::clone(&self.plan);
        let desc_bytes = plan.tx.layout.size_bytes() as usize;
        let mut n = 0;
        for i in from..from + room {
            let req = batch.reqs[i];
            let mut len = batch.lens[i] as usize;
            let buf = batch.bufs[i].as_mut_slice();
            if let Some(tci) = req.vlan {
                // A priority tag (TCI 0) never rides the descriptor:
                // the hint encoding reserves 0 for "none" (`txreg::VLAN`).
                if plan.sw_vlan || tci == 0 {
                    if let Some(nl) = fixup::insert_vlan_in_slice(buf, len, tci) {
                        len = nl;
                        self.stats.sw_fixups += 1;
                    }
                }
            }
            if req.ip_csum && plan.sw_ip_csum && fixup::fill_ipv4_checksum(&mut buf[..len]) {
                self.stats.sw_fixups += 1;
            }
            if req.l4_csum && plan.sw_l4_csum && fixup::fill_l4_checksum(&mut buf[..len]) {
                self.stats.sw_fixups += 1;
            }
            // The slot's last descriptor was consumed (`free` counted
            // it), so the buffer that comes back is the batch's again.
            let dma = self.slots[(self.submitted % self.slots.len() as u64) as usize];
            if !nic.host_mem.swap(dma, &mut batch.bufs[i]) {
                let why = format!("TX DMA slot {dma:#x} is no longer a registered buffer");
                return Err(NicError::BadConfig(why));
            }
            batch.lens[i] = 0;
            let hints: [u128; txreg::COUNT] = [
                dma as u128,
                len as u128,
                match req.vlan {
                    Some(t) if !plan.sw_vlan => t as u128,
                    _ => 0,
                },
                (req.ip_csum && !plan.sw_ip_csum) as u128,
                (req.l4_csum && !plan.sw_l4_csum) as u128,
            ];
            nic.tx_ring
                .produce_with(desc_bytes, |desc| plan.prog.run_deparse(&hints, desc))
                .map_err(NicError::Ring)?;
            self.submitted += 1;
            n += 1;
        }
        if n > 0 {
            nic.ring_tx_doorbell();
            self.stats.doorbells += 1;
            self.stats.frames += n as u64;
        }
        if n < pending {
            self.stats.stalls += 1;
        }
        Ok(n)
    }
}

/// Frame bytes each of the driver's DMA slots (and its one-slot batch)
/// holds.
const DRIVER_SLOT_BYTES: usize = 2048;

/// The generated transmit half of the driver: a [`TxQueue`] fed one
/// frame at a time, so `send` is the one-slot case of the batched
/// submission path and nothing else.
pub struct TxDriver {
    queue: TxQueue,
    batch: TxBatch,
    reg: SemanticRegistry,
}

impl TxDriver {
    /// Attach to a NIC (see [`TxQueue::attach`]).
    pub fn attach(
        nic: &mut SimNic,
        compiled: CompiledTx,
        reg: SemanticRegistry,
    ) -> Result<TxDriver, NicError> {
        let plan = Arc::new(CompiledTxPlan::new(compiled, &reg));
        let queue = TxQueue::attach(nic, plan, DRIVER_SLOT_BYTES);
        let batch = TxBatch::new(1, DRIVER_SLOT_BYTES);
        Ok(TxDriver { queue, batch, reg })
    }

    /// The registry this driver was compiled against.
    pub fn registry(&self) -> &SemanticRegistry {
        &self.reg
    }

    /// The compiled TX artifact this driver executes.
    pub fn compiled(&self) -> &CompiledTx {
        &self.queue.plan().tx
    }

    /// Send one frame with one doorbell. A frame longer than the
    /// driver's slot is a `BadConfig`; a ring with no free entry is
    /// `RingError::Full`. Neither posts anything.
    pub fn send(&mut self, nic: &mut SimNic, frame: &[u8], req: TxRequest) -> Result<(), NicError> {
        self.batch.clear();
        if !self.batch.push(frame, req) {
            let why = format!("a {}-byte frame exceeds the driver's slot", frame.len());
            return Err(NicError::BadConfig(why));
        }
        match self.queue.submit(nic, &mut self.batch)? {
            0 => Err(NicError::Ring(RingError::Full)),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opendesc_nicsim::models;
    use opendesc_softnic::checksum::{verify_ipv4_checksum, verify_l4_checksum};
    use opendesc_softnic::testpkt;
    use opendesc_softnic::wire::ParsedFrame;

    fn zeroed_frame() -> Vec<u8> {
        let mut f = testpkt::udp4([10, 7, 0, 1], [10, 7, 0, 2], 50, 60, b"send me", None);
        f[24] = 0;
        f[25] = 0;
        f[40] = 0;
        f[41] = 0;
        f
    }

    fn tx_intent(reg: &mut SemanticRegistry) -> Intent {
        Intent::builder("tx")
            .want(reg, names::TX_L4_CSUM)
            .want(reg, names::TX_VLAN_INSERT)
            .build()
    }

    #[test]
    fn qdma_tx_selects_extended_layout_for_offload_intent() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = tx_intent(&mut reg);
        let model = models::qdma_default();
        let compiled = compile_tx(
            &Selector::default(),
            &model.p4_source,
            "DescParser",
            &model.name,
            &intent,
            &mut reg,
        )
        .unwrap();
        assert_eq!(compiled.layouts_considered, 2);
        assert_eq!(
            compiled.layout.size_bytes(),
            16,
            "extended layout carries the hints"
        );
        assert!(compiled.software.is_empty());
        // Context selects desc_size = 16.
        assert_eq!(compiled.context.values().next(), Some(&16));
    }

    #[test]
    fn plain_intent_prefers_small_descriptor() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("plain").build(); // just buf_addr/len
        let model = models::qdma_default();
        let compiled = compile_tx(
            &Selector::default(),
            &model.p4_source,
            "DescParser",
            &model.name,
            &intent,
            &mut reg,
        )
        .unwrap();
        assert_eq!(compiled.layout.size_bytes(), 12, "12B base layout suffices");
    }

    #[test]
    fn hardware_offload_end_to_end() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = tx_intent(&mut reg);
        let model = models::qdma_default();
        let compiled = compile_tx(
            &Selector::default(),
            &model.p4_source,
            "DescParser",
            &model.name,
            &intent,
            &mut reg,
        )
        .unwrap();
        let mut nic = SimNic::new(model, 16).unwrap();
        let mut tx = TxDriver::attach(&mut nic, compiled, reg).unwrap();

        tx.send(
            &mut nic,
            &zeroed_frame(),
            TxRequest {
                l4_csum: true,
                vlan: Some(0x0077),
                ..Default::default()
            },
        )
        .unwrap();
        let sent = nic.process_tx();
        assert_eq!(sent.len(), 1);
        let wire = &sent[0];
        let p = ParsedFrame::parse(wire).unwrap();
        assert_eq!(p.vlan_tci, Some(0x0077), "NIC inserted the tag");
        assert!(verify_l4_checksum(&p), "NIC filled the L4 checksum");
        assert_eq!(nic.tx_stats.frames, 1);
    }

    #[test]
    fn software_fallback_produces_identical_wire_frame() {
        // e1000e TX carries only the IP-csum hint: L4 csum and VLAN must
        // fall back to driver software. The wire frame must be
        // byte-identical to the hardware-offload result.
        let mut reg_hw = SemanticRegistry::with_builtins();
        let intent_hw = tx_intent(&mut reg_hw);
        let qdma = models::qdma_default();
        let ctx_hw = compile_tx(
            &Selector::default(),
            &qdma.p4_source,
            "DescParser",
            &qdma.name,
            &intent_hw,
            &mut reg_hw,
        )
        .unwrap();
        let mut nic_hw = SimNic::new(qdma, 16).unwrap();
        let mut tx_hw = TxDriver::attach(&mut nic_hw, ctx_hw, reg_hw).unwrap();

        let mut reg_sw = SemanticRegistry::with_builtins();
        let intent_sw = tx_intent(&mut reg_sw);
        let e1000e = models::e1000e();
        let ctx_sw = compile_tx(
            &Selector::default(),
            &e1000e.p4_source,
            "DescParser",
            &e1000e.name,
            &intent_sw,
            &mut reg_sw,
        )
        .unwrap();
        assert!(
            !ctx_sw.software.is_empty(),
            "e1000e must report software TX features: {:?}",
            ctx_sw.software_features()
        );
        let mut nic_sw = SimNic::new(e1000e, 16).unwrap();
        let mut tx_sw = TxDriver::attach(&mut nic_sw, ctx_sw, reg_sw).unwrap();

        let req = TxRequest {
            l4_csum: true,
            vlan: Some(0x0123),
            ..Default::default()
        };
        tx_hw.send(&mut nic_hw, &zeroed_frame(), req).unwrap();
        tx_sw.send(&mut nic_sw, &zeroed_frame(), req).unwrap();
        let a = nic_hw.process_tx().remove(0);
        let b = nic_sw.process_tx().remove(0);
        assert_eq!(
            a, b,
            "hardware offload and software fallback diverge on the wire"
        );
    }

    #[test]
    fn ip_csum_offload_on_e1000e() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("t")
            .want(&mut reg, names::TX_IP_CSUM)
            .build();
        let model = models::e1000e();
        let compiled = compile_tx(
            &Selector::default(),
            &model.p4_source,
            "DescParser",
            &model.name,
            &intent,
            &mut reg,
        )
        .unwrap();
        assert!(
            compiled.software.is_empty(),
            "e1000e carries the IP-csum hint"
        );
        let mut nic = SimNic::new(model, 16).unwrap();
        let mut tx = TxDriver::attach(&mut nic, compiled, reg).unwrap();
        tx.send(
            &mut nic,
            &zeroed_frame(),
            TxRequest {
                ip_csum: true,
                ..Default::default()
            },
        )
        .unwrap();
        let wire = nic.process_tx().remove(0);
        assert!(verify_ipv4_checksum(&wire[14..34]));
    }

    #[test]
    fn missing_parser_is_select_error() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("t").build();
        let model = models::mlx5(); // no TX parser in this model
        let err = compile_tx(
            &Selector::default(),
            &model.p4_source,
            "DescParser",
            &model.name,
            &intent,
            &mut reg,
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::Extract(_)));
    }

    #[test]
    fn batched_queue_rings_one_doorbell_and_respects_ring_capacity() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = tx_intent(&mut reg);
        let model = models::qdma_default();
        let compiled = compile_tx(
            &Selector::default(),
            &model.p4_source,
            "DescParser",
            &model.name,
            &intent,
            &mut reg,
        )
        .unwrap();
        let mut nic = SimNic::new(model, 8).unwrap();
        let plan = Arc::new(CompiledTxPlan::new(compiled, &reg));
        let mut q = TxQueue::attach(&mut nic, plan, 256);

        let mut batch = TxBatch::new(16, 256);
        for _ in 0..12 {
            assert!(batch.push(
                &zeroed_frame(),
                TxRequest {
                    l4_csum: true,
                    vlan: Some(0x0042),
                    ..Default::default()
                },
            ));
        }
        // Ring holds 8: first submit places 8, rings once, stalls.
        let placed = q.submit(&mut nic, &mut batch).unwrap();
        assert_eq!(placed, 8);
        assert_eq!(q.stats.doorbells, 1);
        assert_eq!(q.stats.stalls, 1);
        assert_eq!(q.in_flight(&nic), 8);
        // The device owns the placed frames' buffers: they read back
        // empty, not as whatever the buffers that came back last held.
        for i in 0..8 {
            assert!(batch.frame(i).is_empty(), "placed frame {i}");
        }
        // Device drains; the remaining 4 go out after completions free
        // ring slots (submit skips already-placed frames via a fresh
        // batch here for simplicity).
        assert_eq!(nic.process_tx_drain(), 8);
        assert_eq!(q.in_flight(&nic), 0);
        // Only the placed prefix was fixed up and handed over; 8..12
        // are still pristine copies and can be re-pushed as-is.
        for i in 8..12 {
            assert_eq!(batch.frame(i), zeroed_frame(), "unplaced frame {i}");
        }
        let mut rest = TxBatch::new(4, 256);
        for i in 8..12 {
            assert!(rest.push(batch.frame(i), batch.request(i)));
        }
        let placed = q.submit(&mut nic, &mut rest).unwrap();
        assert_eq!(placed, 4);
        assert_eq!(q.stats.doorbells, 2);
        assert_eq!(nic.process_tx_drain(), 4);
        assert_eq!(nic.tx_stats.frames, 12);
        assert_eq!(nic.tx_stats.parse_rejects, 0);
        assert_eq!(nic.tx_stats.bad_buffers, 0);
    }

    #[test]
    fn a_batch_built_for_other_slots_is_refused_whole() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = tx_intent(&mut reg);
        let model = models::e1000e(); // VLAN and L4 csum are software work
        let compiled = compile_tx(
            &Selector::default(),
            &model.p4_source,
            "DescParser",
            &model.name,
            &intent,
            &mut reg,
        )
        .unwrap();
        let mut nic = SimNic::new(model, 8).unwrap();
        let plan = Arc::new(CompiledTxPlan::new(compiled, &reg));
        let mut q = TxQueue::attach(&mut nic, plan, 64);
        let req = TxRequest {
            l4_csum: true,
            vlan: Some(0x0042),
            ..Default::default()
        };
        // Larger and smaller than the queue's DMA slots: neither can
        // trade buffers with them, so neither is touched at all.
        for max_frame in [256, 60] {
            let mut batch = TxBatch::new(4, max_frame);
            assert!(batch.push(&zeroed_frame(), req));
            let err = q.submit(&mut nic, &mut batch).unwrap_err();
            let NicError::BadConfig(why) = err else {
                panic!("expected BadConfig, got {err:?}");
            };
            assert!(why.contains(&max_frame.to_string()) && why.contains("64"));
            assert_eq!(batch.frame(0), zeroed_frame(), "nothing fixed up");
        }
        assert_eq!(q.in_flight(&nic), 0, "nothing posted");
        let s = q.stats;
        assert_eq!((s.frames, s.doorbells, s.sw_fixups, s.stalls), (0, 0, 0, 0));
        assert!(nic.process_tx().is_empty());
        // With a matching batch, `Ok(n < pending)` means a full ring and
        // nothing else: a device drain always makes the next call place
        // something, so a resubmission loop cannot spin.
        let mut batch = TxBatch::new(12, 64);
        while batch.push(&zeroed_frame(), req) {}
        let mut from = 0;
        let mut drains = 0;
        while from < batch.len() {
            let n = q.submit_from(&mut nic, &mut batch, from).unwrap();
            assert!(n > 0, "a drained ring took nothing");
            from += n;
            drains += nic.process_tx_drain();
        }
        assert_eq!((drains, q.stats.stalls, q.stats.doorbells), (12, 1, 2));
        assert_eq!(nic.tx_stats.bad_buffers, 0);
    }

    #[test]
    fn priority_tag_is_inserted_on_every_model() {
        // TCI 0 is a legal 802.1Q priority tag, but a descriptor's VLAN
        // hint reads 0 as "none": the tag must go in by software even
        // where the layout carries the hint, so every model emits the
        // same tagged frame.
        let req = TxRequest {
            vlan: Some(0),
            ..Default::default()
        };
        let want = fixup::insert_vlan(&zeroed_frame(), 0).unwrap();
        for model in [
            models::e1000_legacy(),
            models::e1000e(),
            models::ice(),
            models::qdma_default(),
        ] {
            let mut reg = SemanticRegistry::with_builtins();
            let intent = tx_intent(&mut reg);
            let name = model.name.clone();
            let compiled = compile_tx(
                &Selector::default(),
                &model.p4_source,
                "DescParser",
                &name,
                &intent,
                &mut reg,
            )
            .unwrap();
            let mut nic = SimNic::new(model, 16).unwrap();
            let mut tx = TxDriver::attach(&mut nic, compiled, reg).unwrap();
            tx.send(&mut nic, &zeroed_frame(), req).unwrap();
            assert_eq!(nic.process_tx(), vec![want.clone()], "{name}");
            assert_eq!(tx.queue.stats.sw_fixups, 1, "{name}: inserted by software");
        }
    }
}
