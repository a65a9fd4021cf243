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
/// device finished with last, so the batch always owns `cap` buffers,
/// the next [`push`](TxBatch::push) writes into one still warm from the
/// device's read, and `clear` frees none of them.
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
    /// empty; frames a submit did not place (a full ring, a freed DMA
    /// address) read back untouched.
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
/// pre-allocates one DMA buffer per ring entry into a free stack;
/// `submit` reclaims lazily from the NIC's consumed count — no
/// completion queue walk, no locks, no per-send allocation — and takes
/// the buffer the device consumed last, so the buffers in circulation
/// are as many as the deepest backlog, not the ring. A frame buffer has
/// one owner at a time: the batch until `submit` exchanges it into a
/// DMA buffer, the device until that descriptor is consumed, then the
/// free stack, then the batch again when a submit pops it. The doorbell
/// rings once per batch.
pub struct TxQueue {
    plan: Arc<CompiledTxPlan>,
    /// DMA addresses no descriptor in flight points at; the top is the
    /// one the device consumed last.
    free: Vec<u64>,
    /// The DMA address each descriptor went out with, at its descriptor
    /// number modulo the ring size.
    posted: Vec<u64>,
    /// Frame bytes each DMA buffer was sized for; a batch must match it.
    max_frame: usize,
    /// Frames submitted since attach.
    submitted: u64,
    /// Descriptors whose addresses are back on `free`.
    reclaimed: u64,
    /// Descriptors the NIC's TX ring had produced at attach (the NIC may
    /// be shared with other traffic before this queue exists).
    base: u64,
    pub stats: TxQueueStats,
}

impl TxQueue {
    /// Attach to a NIC: program the H2C context and pre-allocate DMA
    /// buffers sized for `max_frame` plus VLAN headroom. From here on
    /// the queue must be the TX ring's only producer; a submit that
    /// finds another one's descriptors is refused.
    pub fn attach(nic: &mut SimNic, plan: Arc<CompiledTxPlan>, max_frame: usize) -> TxQueue {
        nic.configure_tx(plan.tx.context.clone());
        let zero = vec![0u8; max_frame + 4];
        let entries = nic.tx_ring.capacity();
        let free = (0..entries).map(|_| nic.host_mem.alloc(&zero)).collect();
        TxQueue {
            plan,
            free,
            posted: vec![0; entries],
            max_frame,
            submitted: 0,
            reclaimed: 0,
            base: nic.tx_completed() + nic.tx_ring.len() as u64,
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
        self.submitted.saturating_sub(self.consumed(nic))
    }

    /// This queue's descriptors the device has consumed: the ring is
    /// FIFO, so everything produced before attach goes first.
    fn consumed(&self, nic: &SimNic) -> u64 {
        nic.tx_completed().saturating_sub(self.base)
    }

    /// Submit as many frames from the batch as the ring can take right
    /// now; returns the count placed. Software fix-ups run in the
    /// batch's buffers (in place), each buffer is then exchanged into
    /// a free DMA buffer, the deparse bytecode writes each descriptor
    /// straight into its ring slot, and the doorbell rings once at the
    /// end. `Ok(n)` short of the batch only ever means a full ring.
    pub fn submit(&mut self, nic: &mut SimNic, batch: &mut TxBatch) -> Result<usize, NicError> {
        self.submit_from(nic, batch, 0)
    }

    /// [`submit`](TxQueue::submit) starting at batch index `from` — the
    /// resubmission path after ring back-pressure; frames a submit did
    /// not place are untouched.
    ///
    /// Refused whole, with nothing fixed up, posted, counted or rung:
    /// a batch built for another frame size than the queue was attached
    /// for (it cannot trade buffers with the DMA buffers), a descriptor
    /// longer than the ring's slots, and a ring another producer has
    /// posted to since attach (its consumed descriptors are not this
    /// queue's to reclaim). A DMA address freed under the queue is a
    /// `BadConfig` too, but only from that frame on: what this call
    /// placed before it is posted, rung and counted, the frame and every
    /// later one stay in the batch as pushed, and the address leaves the
    /// pool.
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
        let plan = Arc::clone(&self.plan);
        let desc_bytes = plan.tx.layout.size_bytes() as usize;
        let slot = nic.tx_ring.slot_size();
        if desc_bytes > slot {
            return Err(NicError::Ring(RingError::EntryTooLarge {
                len: desc_bytes,
                slot,
            }));
        }
        let produced = nic.tx_completed() + nic.tx_ring.len() as u64;
        let foreign = produced - self.base - self.submitted;
        if foreign > 0 {
            return Err(NicError::BadConfig(format!(
                "{foreign} TX descriptors on the ring were posted by another producer"
            )));
        }
        // Consumed descriptors give their addresses back in the order
        // the device took them, so the top of the stack is the warmest.
        let mask = self.posted.len() - 1;
        let done = self.consumed(nic);
        for d in self.reclaimed..done {
            self.free.push(self.posted[d as usize & mask]);
        }
        self.reclaimed = done;
        let pending = batch.len().saturating_sub(from);
        let room = pending.min(self.free.len()).min(nic.tx_ring.free());
        let mut dead = None;
        let mut n = 0;
        for i in from..from + room {
            let Some(dma) = self.free.pop() else { break };
            let req = batch.reqs[i];
            let mut len = batch.lens[i] as usize;
            let buf = batch.bufs[i].as_mut_slice();
            // A priority tag (TCI 0) never rides the descriptor: the
            // hint encoding reserves 0 for "none" (`txreg::VLAN`).
            let sw_vlan = req.vlan.filter(|&tci| plan.sw_vlan || tci == 0);
            let sw_ip = req.ip_csum && plan.sw_ip_csum;
            let sw_l4 = req.l4_csum && plan.sw_l4_csum;
            if sw_vlan.is_some() || sw_ip || sw_l4 {
                // Fix-ups write the frame in place, so only once its
                // buffer is sure to move: a frame that cannot go out is
                // left as pushed.
                if nic.host_mem.buf_capacity(dma) != Some(buf.len()) {
                    dead = Some(dma);
                    break;
                }
                if let Some(nl) = sw_vlan.and_then(|tci| fixup::insert_vlan_in_slice(buf, len, tci))
                {
                    len = nl;
                    self.stats.sw_fixups += 1;
                }
                if sw_ip && fixup::fill_ipv4_checksum(&mut buf[..len]) {
                    self.stats.sw_fixups += 1;
                }
                if sw_l4 && fixup::fill_l4_checksum(&mut buf[..len]) {
                    self.stats.sw_fixups += 1;
                }
            }
            // No descriptor in flight points at `dma`, so the buffer that
            // comes back is the batch's again.
            if !nic.host_mem.swap(dma, &mut batch.bufs[i]) {
                dead = Some(dma);
                break;
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
                .expect("room and the slot size were checked before the first swap");
            self.posted[self.submitted as usize & mask] = dma;
            self.submitted += 1;
            n += 1;
        }
        if n > 0 {
            nic.ring_tx_doorbell();
            self.stats.doorbells += 1;
            self.stats.frames += n as u64;
        }
        if let Some(dma) = dead {
            return Err(NicError::BadConfig(format!(
                "TX DMA buffer {dma:#x} is no longer registered; {n} frames before it were posted"
            )));
        }
        if n < pending {
            self.stats.stalls += 1;
        }
        Ok(n)
    }
}

/// Frame bytes each of the driver's DMA buffers (and its one-slot
/// batch) holds.
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
    use opendesc_nicsim::models::{self, NicModel};
    use opendesc_softnic::checksum::{verify_ipv4_checksum, verify_l4_checksum};
    use opendesc_softnic::testpkt;
    use opendesc_softnic::wire::ParsedFrame;
    use std::collections::{HashMap, VecDeque};

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
        // Larger and smaller than the queue's DMA buffers: neither can
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

    /// A queue for [`tx_intent`] on a `ring`-entry NIC of `model`.
    fn queue_on(model: NicModel, ring: usize, max_frame: usize) -> (SimNic, TxQueue) {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = tx_intent(&mut reg);
        let compiled = compile_tx(
            &Selector::default(),
            &model.p4_source,
            "DescParser",
            &model.name,
            &intent,
            &mut reg,
        )
        .unwrap();
        let mut nic = SimNic::new(model, ring).unwrap();
        let plan = Arc::new(CompiledTxPlan::new(compiled, &reg));
        let q = TxQueue::attach(&mut nic, plan, max_frame);
        (nic, q)
    }

    #[test]
    fn a_ring_another_producer_posted_to_is_refused() {
        let (mut nic, mut q) = queue_on(models::e1000e(), 8, 64);
        let req = TxRequest {
            l4_csum: true,
            vlan: Some(0x0042),
            ..Default::default()
        };
        let mut batch = TxBatch::new(2, 64);
        assert!(batch.push(&zeroed_frame(), req));
        assert_eq!(q.submit(&mut nic, &mut batch).unwrap(), 1);
        let before = q.stats;
        // A descriptor this queue never posted, consumed or not: its
        // position carries no address of the queue's to reclaim.
        nic.post_tx(&[0u8; 12]).unwrap();
        for drained in [false, true] {
            if drained {
                assert_eq!(nic.process_tx_drain(), 1, "the queue's frame went out");
            }
            let mut batch = TxBatch::new(2, 64);
            assert!(batch.push(&zeroed_frame(), req));
            let err = q.submit(&mut nic, &mut batch).unwrap_err();
            let NicError::BadConfig(why) = err else {
                panic!("expected BadConfig, got {err:?}");
            };
            assert!(why.starts_with("1 TX descriptors"), "{why}");
            assert_eq!(batch.frame(0), zeroed_frame(), "nothing fixed up");
            let s = q.stats;
            assert_eq!(
                (s.frames, s.doorbells, s.sw_fixups, s.stalls),
                (
                    before.frames,
                    before.doorbells,
                    before.sw_fixups,
                    before.stalls
                ),
                "nothing counted"
            );
            assert_eq!(
                nic.tx_ring.len(),
                if drained { 0 } else { 2 },
                "nothing posted"
            );
            assert!(q.in_flight(&nic) <= 1);
        }
        assert_eq!(nic.tx_stats.descs, 2);
    }

    #[test]
    fn a_freed_dma_address_fails_closed_from_that_frame_on() {
        // e1000e fixes VLAN and L4 up in software, so the address is
        // checked before the frame is touched; qdma carries both, so the
        // exchange itself refuses.
        for model in [models::e1000e(), models::qdma_default()] {
            let name = model.name.clone();
            let (mut nic, mut q) = queue_on(model, 8, 64);
            let req = TxRequest {
                l4_csum: true,
                vlan: Some(0x0042),
                ..Default::default()
            };
            let frames: Vec<Vec<u8>> = (0..6u8)
                .map(|k| {
                    let mut f = zeroed_frame();
                    *f.last_mut().unwrap() = k;
                    f
                })
                .collect();
            let want: Vec<Vec<u8>> = (frames.iter())
                .map(|f| {
                    let mut w = fixup::insert_vlan(f, 0x0042).unwrap();
                    fixup::fill_l4_checksum(&mut w);
                    w
                })
                .collect();
            let mut batch = TxBatch::new(6, 64);
            for f in &frames {
                assert!(batch.push(f, req));
            }
            // The third address the next submit takes.
            let dead = q.free[q.free.len() - 3];
            assert!(nic.host_mem.free(dead));
            let err = q.submit(&mut nic, &mut batch).unwrap_err();
            let NicError::BadConfig(why) = err else {
                panic!("{name}: expected BadConfig, got {err:?}");
            };
            assert!(why.contains(&format!("{dead:#x}")), "{name}: {why}");
            // The two frames before it are posted, rung and counted;
            // no ring slot was claimed for the rest.
            let s = q.stats;
            assert_eq!((s.frames, s.doorbells, s.stalls), (2, 1, 0), "{name}");
            assert_eq!((q.in_flight(&nic), nic.tx_ring.len()), (2, 2), "{name}");
            for i in 0..2 {
                assert!(batch.frame(i).is_empty(), "{name}: placed frame {i}");
            }
            for (i, frame) in frames.iter().enumerate().skip(2) {
                assert_eq!(batch.frame(i), frame, "{name}: frame {i} was touched");
            }
            assert_eq!(nic.process_tx(), want[..2], "{name}");
            // The rest goes out from the failed frame on, none of it
            // empty, and the dead address has left the pool.
            assert_eq!(q.submit_from(&mut nic, &mut batch, 2).unwrap(), 4);
            assert!(!q.free.contains(&dead), "{name}");
            assert_eq!(q.free.len() as u64 + q.in_flight(&nic), 7, "{name}");
            assert_eq!(nic.process_tx(), want[2..], "{name}");
            assert_eq!((q.stats.frames, q.stats.doorbells), (6, 2), "{name}");
            assert_eq!(nic.tx_stats.bad_buffers, 0, "{name}");
        }
    }

    #[test]
    fn submit_takes_the_address_the_device_consumed_last() {
        let (mut nic, mut q) = queue_on(models::qdma_default(), 8, 64);
        let buf_addr = SemanticRegistry::with_builtins().id(names::BUF_ADDR);
        let at = q.plan().tx.layout.slot_for(buf_addr.unwrap());
        let (off, width) = at.map(|s| (s.offset_bits, s.width_bits)).unwrap();
        let mut batch = TxBatch::new(5, 64);
        // The test plays the device, reading each descriptor's address.
        // Its model of the free stack holds the addresses it has seen
        // consumed and no later descriptor took, the last consumed on
        // top; below them the queue keeps addresses never posted, which
        // the model does not name.
        let mut warm: Vec<u64> = Vec::new();
        // Per posted descriptor, in order: the address the model expects
        // and how many descriptors the device had consumed by then.
        let mut expect: VecDeque<(Option<u64>, u64)> = VecDeque::new();
        let mut last_use: HashMap<u64, u64> = HashMap::new();
        let (mut consumed, mut predicted) = (0u64, 0);
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..400 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            batch.clear();
            for _ in 0..rng % 6 {
                batch.push(&zeroed_frame(), TxRequest::default());
            }
            let n = q.submit(&mut nic, &mut batch).unwrap();
            for _ in 0..n {
                expect.push_back((warm.pop(), consumed));
            }
            for _ in 0..(rng >> 8) % 5 {
                let Some(desc) = nic.tx_ring.consume() else {
                    break;
                };
                let addr = opendesc_ir::bits::read_bits(desc, off, width) as u64;
                let (want, posted_at) = expect.pop_front().unwrap();
                if let Some(want) = want {
                    assert_eq!(addr, want, "step {step}: not the address consumed last");
                    predicted += 1;
                }
                if let Some(prev) = last_use.insert(addr, consumed) {
                    assert!(
                        prev < posted_at,
                        "step {step}: {addr:#x} posted while descriptor {prev} still held it"
                    );
                }
                warm.push(addr);
                consumed += 1;
            }
        }
        assert!(
            predicted > 200,
            "the model named only {predicted} addresses"
        );
        assert!(last_use.len() <= 8, "more addresses than ring entries");
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
