//! The simulated NIC: executes a model's contract against live traffic.
//!
//! `SimNic` wires together the offload engine, the completion ring, the
//! DMA cost model, and — crucially — the *contract itself*, in the one
//! form the compiler also reads: the enumerated completion paths and TX
//! descriptor layouts. The device treats the programmed layout the way
//! the host's compiled plan does — as a fact resolved once per context,
//! not per packet. In both directions the layout is the first
//! enumerated one whose guards all hold under the programmed context
//! (`select_layout`), and a queue whose context selects none serves
//! nothing: `deliver` refuses with [`NicError::NoPathForContext`], and
//! TX rejects every descriptor.
//!
//! [`SimNic::configure`] / [`SimNic::reprogram_queue`] pick the active
//! completion path and compile the offload program against it: only the
//! semantics its slots carry (a value the layout has no slot for is
//! never computed), each op holding the slots it writes, so a delivered
//! frame's values go from the offload engine straight into the
//! completion bytes; [`SimNic::configure_tx`] does the same for the TX
//! descriptor layout (see [`crate::tx`]). What the contract's P4 text
//! says the bytes must be is checked outside the product, by
//! `opendesc-reference`'s interpreters.

use crate::dma::{DmaConfig, DmaMeter};
use crate::hostmem::HostMem;
use crate::models::NicModel;
use crate::offload::{MetaRecord, OffloadEngine, OffloadProgram};
use crate::ring::{DescRing, RingError};
use opendesc_ir::{
    enumerate_paths, enumerate_tx_layouts, extract, Assignment, Cfg, CompletionPath, Cond,
    DescriptorLayout, SemanticId, SemanticRegistry, DEFAULT_MAX_PATHS,
};
use opendesc_p4::typecheck::{parse_and_check, CheckedProgram};
use opendesc_p4::types::Ty;
use opendesc_softnic::wire::ParsedFrame;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// The layout a context selects, in either direction: the first of
/// `guards` (one conjunction per enumerated layout, in enumeration
/// order) whose conditions all evaluate to true under `ctx`. An opaque
/// condition evaluates to nothing, so a layout behind one is never
/// selected.
pub(crate) fn select_layout<'a>(
    guards: impl IntoIterator<Item = &'a [Cond]>,
    ctx: &Assignment,
) -> Option<usize> {
    guards
        .into_iter()
        .position(|g| g.iter().all(|c| c.eval(ctx) == Some(true)))
}

/// Fault injection knobs (in the smoltcp spirit: exercise the unhappy
/// paths deterministically). Every class defaults off; prefer
/// [`FaultConfig::builder`] so adding fault classes never changes the
/// behavior of existing configurations.
///
/// Probabilities outside \[0,1\] are rejected by
/// [`SimNic::set_faults`] and the builder — out-of-range values would
/// silently saturate in the rand comparison instead of failing loudly.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Probability \[0,1\] of dropping a frame before processing.
    pub drop_chance: f64,
    /// Probability \[0,1\] of flipping one bit of the completion record.
    pub corrupt_chance: f64,
    /// Probability \[0,1\] of a torn writeback: only a random prefix of
    /// the record lands, the tail reads as stale slot bytes (zeros), and
    /// the sideband DMA never completes.
    pub torn_chance: f64,
    /// Probability \[0,1\] of a truncated completion: the DMA write is
    /// cut short, so the host sees a record shorter than the layout.
    pub truncate_chance: f64,
    /// Probability \[0,1\] of duplicating a completion: the device
    /// re-DMAs the same record (same sequence tag) into the next slot.
    pub duplicate_chance: f64,
    /// Probability \[0,1\] of writing a stale generation tag — the DD
    /// word of a previous ring pass — so the entry looks like an old
    /// completion the host already consumed.
    pub stale_gen_chance: f64,
    /// Probability \[0,1\] of losing the doorbell update: the completion
    /// is written but not published until a later doorbell (or a host
    /// ring reset) makes it visible.
    pub doorbell_loss_chance: f64,
    /// Probability \[0,1\] per frame of the queue's writeback engine
    /// wedging: this frame and the next [`hang_cycles`] deliveries are
    /// swallowed without completions, emulating a transient queue hang.
    ///
    /// [`hang_cycles`]: FaultConfig::hang_cycles
    pub hang_chance: f64,
    /// How many subsequent deliveries a hang swallows.
    pub hang_cycles: u32,
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            torn_chance: 0.0,
            truncate_chance: 0.0,
            duplicate_chance: 0.0,
            stale_gen_chance: 0.0,
            doorbell_loss_chance: 0.0,
            hang_chance: 0.0,
            hang_cycles: 4,
            seed: 0x0DE5C,
        }
    }
}

impl FaultConfig {
    /// Builder with every fault class off.
    pub fn builder() -> FaultConfigBuilder {
        FaultConfigBuilder {
            cfg: FaultConfig::default(),
        }
    }

    /// Reject probabilities outside \[0,1\] (including NaN).
    fn validate(&self) -> Result<(), NicError> {
        let probs = [
            ("drop_chance", self.drop_chance),
            ("corrupt_chance", self.corrupt_chance),
            ("torn_chance", self.torn_chance),
            ("truncate_chance", self.truncate_chance),
            ("duplicate_chance", self.duplicate_chance),
            ("stale_gen_chance", self.stale_gen_chance),
            ("doorbell_loss_chance", self.doorbell_loss_chance),
            ("hang_chance", self.hang_chance),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(NicError::BadConfig(format!(
                    "{name} = {p} is not a probability in [0, 1]"
                )));
            }
        }
        Ok(())
    }
}

/// Builder for [`FaultConfig`]: start from all-off, enable classes one
/// by one, and get range validation at `build` time.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfigBuilder {
    cfg: FaultConfig,
}

impl FaultConfigBuilder {
    pub fn drop_chance(mut self, p: f64) -> Self {
        self.cfg.drop_chance = p;
        self
    }

    pub fn corrupt_chance(mut self, p: f64) -> Self {
        self.cfg.corrupt_chance = p;
        self
    }

    pub fn torn_chance(mut self, p: f64) -> Self {
        self.cfg.torn_chance = p;
        self
    }

    pub fn truncate_chance(mut self, p: f64) -> Self {
        self.cfg.truncate_chance = p;
        self
    }

    pub fn duplicate_chance(mut self, p: f64) -> Self {
        self.cfg.duplicate_chance = p;
        self
    }

    pub fn stale_gen_chance(mut self, p: f64) -> Self {
        self.cfg.stale_gen_chance = p;
        self
    }

    pub fn doorbell_loss_chance(mut self, p: f64) -> Self {
        self.cfg.doorbell_loss_chance = p;
        self
    }

    /// Enable transient queue hangs: each triggers with probability `p`
    /// per frame and swallows `cycles` further deliveries.
    pub fn hang(mut self, p: f64, cycles: u32) -> Self {
        self.cfg.hang_chance = p;
        self.cfg.hang_cycles = cycles;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    pub fn build(self) -> Result<FaultConfig, NicError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Counters for one receive queue.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NicStats {
    pub rx_frames: u64,
    pub rx_bytes: u64,
    pub completions: u64,
    pub dropped_faults: u64,
    pub dropped_ring_full: u64,
    pub corrupted: u64,
    /// Torn writebacks (prefix landed, tail stale).
    pub torn: u64,
    /// Truncated completions (record cut short).
    pub truncated: u64,
    /// Duplicated completions (record re-DMAed).
    pub duplicated: u64,
    /// Completions written with a stale generation tag.
    pub stale_gen: u64,
    /// Doorbell updates lost after producing a completion.
    pub doorbell_lost: u64,
    /// Frames swallowed by a wedged writeback engine.
    pub hang_dropped: u64,
    /// Host-initiated queue resets ([`SimNic::reset_queue`]).
    pub resets: u64,
    /// Live per-queue context reprograms ([`SimNic::reprogram_queue`]) —
    /// ring-generation bumps from host-requested relayouts.
    pub reprograms: u64,
}

impl NicStats {
    /// Register every counter under `scope` (e.g. `rx.q0.nic`). This is
    /// the telemetry view over the same cells the struct API exposes;
    /// registering several queues under one scope folds them into the
    /// merged device-side view.
    pub fn register_into(&self, reg: &mut opendesc_telemetry::MetricRegistry, scope: &str) {
        reg.counter(&format!("{scope}.rx_frames"), self.rx_frames);
        reg.counter(&format!("{scope}.rx_bytes"), self.rx_bytes);
        reg.counter(&format!("{scope}.completions"), self.completions);
        reg.counter(&format!("{scope}.dropped_faults"), self.dropped_faults);
        reg.counter(
            &format!("{scope}.dropped_ring_full"),
            self.dropped_ring_full,
        );
        reg.counter(&format!("{scope}.corrupted"), self.corrupted);
        reg.counter(&format!("{scope}.torn"), self.torn);
        reg.counter(&format!("{scope}.truncated"), self.truncated);
        reg.counter(&format!("{scope}.duplicated"), self.duplicated);
        reg.counter(&format!("{scope}.stale_gen"), self.stale_gen);
        reg.counter(&format!("{scope}.doorbell_lost"), self.doorbell_lost);
        reg.counter(&format!("{scope}.hang_dropped"), self.hang_dropped);
        reg.counter(&format!("{scope}.resets"), self.resets);
        reg.counter(&format!("{scope}.reprograms"), self.reprograms);
    }
}

/// Errors raised by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum NicError {
    /// The model's contract failed to parse/check/extract.
    BadContract(String),
    /// The requested context assignment selects no completion path.
    NoPathForContext,
    /// A configuration value is out of range (e.g. a fault probability
    /// outside \[0,1\]).
    BadConfig(String),
    Ring(RingError),
}

impl fmt::Display for NicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NicError::BadContract(m) => write!(f, "bad contract: {m}"),
            NicError::NoPathForContext => write!(f, "context selects no completion path"),
            NicError::BadConfig(m) => write!(f, "bad config: {m}"),
            NicError::Ring(e) => write!(f, "ring: {e}"),
        }
    }
}

impl std::error::Error for NicError {}

/// Sideband metadata the device carries alongside a completion: state the
/// steering stage already computed that the host plan can trust instead
/// of recomputing (the descriptor-reported-hash idiom of real NICs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RxSideband {
    /// Toeplitz hash computed at steering time (RSS policy, IP frames).
    pub rss_hint: Option<u32>,
    /// The completion's writeback sequence tag, read from the ring slot.
    /// An honest device tags entries with consecutive values; stale or
    /// duplicated writebacks surface here for the host's validator.
    pub seq: u64,
}

/// A simulated NIC receive queue executing an OpenDesc contract.
///
/// Each completion-ring slot holds everything the host reads for one
/// completion: `cq` keeps the record, its length and its sequence tag,
/// and two arrays indexed like `cq`'s slots keep the frame and the
/// steering hint. The host consumes a slot with
/// [`receive_slot`](SimNic::receive_slot) and reads the record where it
/// lies, until the device produces over that slot.
///
/// Starts on a cache line, and so does whatever embeds it: which lines
/// a queue's hot fields (and the driver fields laid out after it) share
/// then follows from the declarations alone, not from the allocator's
/// 16-byte grain or from the size of a cold boot-time field — moving
/// the contract behind an `Arc` shrank this struct by 184 bytes and,
/// unaligned, cost the host path 8 % on `rx_hw`.
#[repr(align(64))]
pub struct SimNic {
    pub model: NicModel,
    /// The model's checked contract, shared by every queue booted from
    /// the same front-end run.
    pub checked: Arc<CheckedProgram>,
    pub reg: SemanticRegistry,
    /// Sets the offsets of the fields after `reg` (a registry is 32
    /// bytes: its table and its kept fingerprint). The hot fields'
    /// cache-line phase is a cost of its own on the host path (see the
    /// struct's docs): this filler measured faster on `rx_hw` than one
    /// that keeps the offsets a 24-byte registry had. Rustc lays out the
    /// device's counters, fault state and sequence tag (`stats`,
    /// `faults`, `fault_rng`, `wb_seq`) after it: at 136 bytes it puts
    /// them 88 bytes higher than a 48-byte filler does, which measured
    /// 2–4 % less wall time on `rx_hw` and `fwd`.
    _phase: [u64; 17],
    pub cfg: Cfg,
    pub paths: Vec<CompletionPath>,
    /// Semantics the device computes (everything the contract's meta
    /// struct mentions).
    pub supported: Vec<SemanticId>,
    engine: OffloadEngine,
    /// The semantics the device computes per frame, lowered to device
    /// ops whenever the active path changes: those the active path's
    /// slots carry, each with its slots (none without an active path).
    offload_prog: OffloadProgram,
    /// Reusable completion writeback buffer (deliver-path scratch).
    wb_scratch: Vec<u8>,
    /// Emptied frame buffers, most recently freed last: a consume
    /// parks the host's old buffer here and `deliver` takes the warmest
    /// one for the next frame instead of allocating.
    frame_pool: Vec<Vec<u8>>,
    context: Assignment,
    active_path: Option<usize>,
    pub cq: DescRing,
    pub dma_cfg: DmaConfig,
    pub dma: DmaMeter,
    pub stats: NicStats,
    faults: FaultConfig,
    fault_rng: SmallRng,
    /// Next writeback sequence tag (increments per fresh completion).
    wb_seq: u64,
    /// Ring/context generation: bumped by every
    /// [`reprogram_queue`](SimNic::reprogram_queue) — the device-side
    /// view of how many live relayouts this queue has been through.
    ring_generation: u32,
    /// Remaining deliveries a wedged writeback engine swallows.
    hang_remaining: u32,
    /// The frame of each completion-ring slot's entry, indexed like
    /// the ring's slots: what the host swaps out when it consumes the
    /// slot.
    slot_frames: Vec<Vec<u8>>,
    /// The steering sideband of each completion-ring slot's entry.
    slot_hints: Vec<Option<u32>>,
    /// Transmit descriptor ring (host → device).
    pub tx_ring: DescRing,
    /// DMA-visible buffer pool TX descriptors point into.
    pub host_mem: HostMem,
    /// Per-queue H2C (TX) context programmed by the driver.
    pub(crate) h2c_context: Assignment,
    /// Every descriptor layout the `DescParser` accepts, enumerated once
    /// (empty without a parser).
    pub(crate) tx_layouts: Vec<DescriptorLayout>,
    /// The layout `h2c_context` selects, as a field table (see
    /// [`SimNic::active_tx_layout`]).
    pub(crate) tx_path: Option<crate::tx::TxPath>,
    /// Reusable wire-frame storage (TX drain scratch).
    pub(crate) tx_frame_scratch: Vec<u8>,
    /// TX-side counters.
    pub tx_stats: crate::tx::TxStats,
}

/// Parse and type-check a model's contract, once, for every queue that
/// will boot from it ([`SimNic::with_contract`]).
fn check_contract(model: &NicModel) -> Result<Arc<CheckedProgram>, NicError> {
    let (checked, diags) = parse_and_check(&model.p4_source);
    if diags.has_errors() {
        return Err(NicError::BadContract(diags.summary()));
    }
    Ok(Arc::new(checked))
}

impl SimNic {
    /// Instantiate a NIC from a model, with a completion ring of
    /// `ring_entries` slots.
    pub fn new(model: NicModel, ring_entries: usize) -> Result<SimNic, NicError> {
        let checked = check_contract(&model)?;
        SimNic::with_contract(model, checked, ring_entries)
    }

    /// [`new`](SimNic::new) from a contract already checked, so that N
    /// queues of one model share one front-end run. `checked` must be
    /// the checked form of `model.p4_source`.
    pub fn with_contract(
        model: NicModel,
        checked: Arc<CheckedProgram>,
        ring_entries: usize,
    ) -> Result<SimNic, NicError> {
        let mut reg = SemanticRegistry::with_builtins();
        let cfg = extract(&checked, &model.deparser, &mut reg)
            .map_err(|d| NicError::BadContract(d.summary()))?;
        let paths = enumerate_paths(&cfg, DEFAULT_MAX_PATHS)
            .map_err(|e| NicError::BadContract(e.to_string()))?;

        // Supported semantics: every @semantic in the meta struct.
        let mut supported = Vec::new();
        if let Some(Ty::Struct(sid)) = checked.lookup(&model.meta_type) {
            for f in &checked.types.struct_(sid).fields {
                if let Ty::Header(hid) = f.ty {
                    for hf in &checked.types.header(hid).fields {
                        if let Some(sem) = hf.semantic {
                            let id = reg.intern(checked.name(sem));
                            if !supported.contains(&id) {
                                supported.push(id);
                            }
                        }
                    }
                }
            }
        }

        // A parser the layout table cannot express is a contract this
        // device cannot execute: refused here, never interpreted.
        let tx_layouts = match model.desc_parser.as_deref() {
            Some(parser) => enumerate_tx_layouts(&checked, parser, &mut reg)
                .map_err(|d| NicError::BadContract(d.summary()))?,
            None => Vec::new(),
        };

        let slot = model.completion_slot_bytes.max(1);
        let cq = DescRing::new(ring_entries, slot);
        let faults = FaultConfig::default();
        let mut nic = SimNic {
            checked,
            reg,
            _phase: [0; 17],
            cfg,
            paths,
            supported,
            engine: OffloadEngine::default(),
            offload_prog: OffloadProgram::default(),
            wb_scratch: Vec::new(),
            frame_pool: Vec::new(),
            context: Assignment::new(),
            active_path: None,
            slot_frames: vec![Vec::new(); cq.capacity()],
            slot_hints: vec![None; cq.capacity()],
            cq,
            dma_cfg: DmaConfig::default(),
            dma: DmaMeter::default(),
            stats: NicStats::default(),
            fault_rng: SmallRng::seed_from_u64(faults.seed),
            faults,
            wb_seq: 0,
            ring_generation: 0,
            hang_remaining: 0,
            tx_ring: DescRing::new(ring_entries, 64),
            host_mem: HostMem::new(),
            h2c_context: Assignment::new(),
            tx_layouts,
            tx_path: None,
            tx_frame_scratch: Vec::new(),
            tx_stats: crate::tx::TxStats::default(),
            model,
        };
        nic.refresh_active_path();
        nic.refresh_tx_path();
        Ok(nic)
    }

    /// Configure fault injection. Rejects out-of-range probabilities;
    /// reseeds the fault RNG so runs are deterministic per config.
    pub fn set_faults(&mut self, faults: FaultConfig) -> Result<(), NicError> {
        faults.validate()?;
        self.fault_rng = SmallRng::seed_from_u64(faults.seed);
        self.faults = faults;
        self.hang_remaining = 0;
        Ok(())
    }

    /// Post `cmpt` as the completion of `frame`, tagged with the next
    /// sequence number and published at once, `rss_hint` as its
    /// steering sideband — how a test hands the host a record of its own
    /// bytes, beside the faults [`set_faults`](SimNic::set_faults)
    /// injects into the ones the device writes.
    pub fn post_completion(
        &mut self,
        frame: &[u8],
        cmpt: &[u8],
        rss_hint: Option<u32>,
    ) -> Result<(), NicError> {
        let pos = (self.cq)
            .produce_tagged(cmpt, self.wb_seq)
            .map_err(NicError::Ring)?;
        self.wb_seq += 1;
        self.cq.ring_doorbell();
        self.fill_slot(pos, frame, rss_hint);
        Ok(())
    }

    /// Host-initiated queue recovery — the watchdog's re-arm. Publishes
    /// any produced-but-unannounced completions (lost doorbells) and
    /// un-wedges a hung writeback engine; an honest queue is unaffected.
    pub fn reset_queue(&mut self) {
        self.hang_remaining = 0;
        self.cq.ring_doorbell();
        self.stats.resets += 1;
    }

    /// Completions currently pending host pickup (ring occupancy).
    pub fn pending_completions(&self) -> usize {
        self.cq.len()
    }

    /// How many live relayouts this queue has been through.
    pub fn ring_generation(&self) -> u32 {
        self.ring_generation
    }

    /// Device-side live relayout: reprogram the per-queue context onto
    /// completion path `path` under traffic and tick the ring generation
    /// over — the `reset_queue`-style republish of an RXDID /
    /// descriptor-format change (the same path again is a generation
    /// bump without a layout change, e.g. when only software shims
    /// moved).
    ///
    /// Completions still unharvested at reprogram time were serialized
    /// under the *old* layout; the new-generation ring cannot describe
    /// them, so they are re-tagged with a previous-pass generation word
    /// (exactly the stale-generation fault class, here exercised
    /// intentionally) and republished — the host's sequence admission
    /// discards them instead of misparsing old-layout bytes with the
    /// new plan. A host that drains the queue to quiescence first
    /// strands nothing. Also un-wedges a hung writeback engine, like
    /// [`reset_queue`](SimNic::reset_queue). Returns the number of
    /// stranded (stale-tagged) completions.
    ///
    /// A context that does not select `path` is rejected and the old
    /// context stays programmed — a failed reprogram must not leave the
    /// queue on a layout neither generation's plan reads.
    pub fn reprogram_queue(
        &mut self,
        context: &Assignment,
        path: usize,
    ) -> Result<usize, NicError> {
        let old = std::mem::replace(&mut self.context, context.clone());
        self.refresh_active_path();
        if let Err(e) = self.check_path(path) {
            self.context = old;
            self.refresh_active_path();
            return Err(e);
        }
        let stranded = self.cq.retag_pending_stale();
        self.hang_remaining = 0;
        self.cq.ring_doorbell();
        self.ring_generation += 1;
        self.stats.reprograms += 1;
        Ok(stranded)
    }

    /// Register this queue's device-side telemetry under `scope` (e.g.
    /// `rx.q0.nic`): every [`NicStats`] counter plus ring-occupancy
    /// gauges. The device is a first-class registry source — its
    /// injected-fault counters sit next to the host validator's
    /// caught-fault counters in the same snapshot.
    pub fn register_metrics(&self, reg: &mut opendesc_telemetry::MetricRegistry, scope: &str) {
        self.stats.register_into(reg, scope);
        reg.gauge(&format!("{scope}.ring_pending"), self.cq.len() as f64);
        reg.gauge(&format!("{scope}.ring_capacity"), self.cq.capacity() as f64);
    }

    /// One roll of the fault dice at probability `p`.
    #[inline]
    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.fault_rng.random::<f64>() < p
    }

    /// Override the DMA link model.
    pub fn set_dma_config(&mut self, cfg: DmaConfig) {
        self.dma_cfg = cfg;
    }

    /// Program the per-queue context (the "MMIO writes" of the implicit
    /// control channel). Typically the assignment comes straight from the
    /// compiler's selected path.
    ///
    /// A context that selects no completion path is programmed all the
    /// same, and reported: such a queue refuses every delivery.
    pub fn configure(&mut self, context: Assignment) -> Result<(), NicError> {
        self.context = context;
        self.refresh_active_path();
        if self.active_path.is_none() {
            return Err(NicError::NoPathForContext);
        }
        Ok(())
    }

    /// What an attach needs before a plan reading completion path
    /// `path` may run: program `context` when the plan has one, then
    /// require that the programmed context selects `path`. A plan whose
    /// layout the context does not select — a manual plan behind an
    /// opaque guard, or one whose context steers elsewhere — is
    /// refused, not served bytes of another layout.
    pub fn configure_path(
        &mut self,
        context: Option<&Assignment>,
        path: usize,
    ) -> Result<(), NicError> {
        if let Some(ctx) = context {
            self.context = ctx.clone();
            self.refresh_active_path();
        }
        self.check_path(path)
    }

    /// `Ok` when the programmed context selects completion path `path`.
    fn check_path(&self, path: usize) -> Result<(), NicError> {
        match self.active_path() {
            Some(p) if p.id == path => Ok(()),
            Some(p) => Err(NicError::BadConfig(format!(
                "the programmed context selects completion path {}, the plan reads path {path}",
                p.id
            ))),
            None => Err(NicError::NoPathForContext),
        }
    }

    /// The programmed per-queue (C2H) context.
    pub fn context(&self) -> &Assignment {
        &self.context
    }

    /// The completion path the current context selects.
    pub fn active_path(&self) -> Option<&CompletionPath> {
        self.active_path.map(|i| &self.paths[i])
    }

    /// Resolve the active completion path from the programmed context
    /// and compile the offload program against it. Writeback fills
    /// nothing but the path's slots, so a supported semantic without a
    /// slot is dead work; with no active path nothing is computed.
    fn refresh_active_path(&mut self) {
        self.active_path =
            select_layout(self.paths.iter().map(|p| p.guard.as_slice()), &self.context);
        self.offload_prog = match self.active_path() {
            Some(path) => {
                let computed: Vec<SemanticId> = (self.supported.iter())
                    .filter(|sem| path.slot_for(**sem).is_some())
                    .copied()
                    .collect();
                OffloadProgram::compile(&self.reg, &computed, path)
            }
            None => OffloadProgram::default(),
        };
    }

    /// Deliver one frame from the wire. Computes offloads, serializes the
    /// completion per the active completion path, and posts packet +
    /// completion. A queue whose context selects no path refuses the
    /// frame with [`NicError::NoPathForContext`] before anything —
    /// fault roll, buffer, ring or counter — is touched.
    pub fn deliver(&mut self, frame: &[u8]) -> Result<(), NicError> {
        self.deliver_steered(frame, None, None)
    }

    /// [`deliver`](SimNic::deliver) with steering-stage state handed down:
    /// `parsed` is the steering-time frame parse (reused by the offload
    /// engine instead of re-parsing) and `rss_hint` the steering-time
    /// Toeplitz hash (primed into the shim memo, and carried to the host
    /// as completion sideband). Passing `None` for both is exactly
    /// `deliver` — the single-queue path pays the parse itself.
    pub fn deliver_steered(
        &mut self,
        frame: &[u8],
        parsed: Option<&ParsedFrame<'_>>,
        rss_hint: Option<u32>,
    ) -> Result<(), NicError> {
        if self.active_path.is_none() {
            return Err(NicError::NoPathForContext);
        }
        // Transient queue hang: a wedged writeback engine swallows this
        // and the next `hang_cycles` deliveries without completions.
        if self.hang_remaining > 0 {
            self.hang_remaining -= 1;
            self.stats.hang_dropped += 1;
            return Ok(());
        }
        if self.roll(self.faults.hang_chance) {
            self.hang_remaining = self.faults.hang_cycles;
            self.stats.hang_dropped += 1;
            return Ok(());
        }
        if self.roll(self.faults.drop_chance) {
            self.stats.dropped_faults += 1;
            return Ok(());
        }
        // Offloads, pre-lowered ops over one parse (zero when the
        // steering stage already did it), each value going straight
        // into its slots of the reusable writeback buffer.
        self.engine.process_into_completion(
            &self.offload_prog,
            frame,
            parsed,
            rss_hint,
            &mut self.wb_scratch,
        );
        // Corruption faults hit the record *and* the sideband in
        // lockstep: a fault that mangles the completion DMA has no
        // reason to spare the hint word, and a pristine hint would let
        // hint-primed plans silently repair the damage.
        let mut hint = rss_hint;
        if !self.wb_scratch.is_empty() && self.roll(self.faults.torn_chance) {
            // Torn writeback: only a prefix lands; the tail keeps the
            // slot's stale bytes (zeros here) and the sideband is lost.
            let cut = self.fault_rng.random_range(0..self.wb_scratch.len());
            for b in &mut self.wb_scratch[cut..] {
                *b = 0;
            }
            hint = None;
            self.stats.torn += 1;
        }
        if !self.wb_scratch.is_empty() && self.roll(self.faults.corrupt_chance) {
            let idx = self.fault_rng.random_range(0..self.wb_scratch.len());
            self.wb_scratch[idx] ^= 1 << self.fault_rng.random_range(0..8);
            if let Some(h) = hint.as_mut() {
                *h ^= 1 << self.fault_rng.random_range(0..32);
            }
            self.stats.corrupted += 1;
        }
        if !self.wb_scratch.is_empty() && self.roll(self.faults.truncate_chance) {
            let keep = self.fault_rng.random_range(0..self.wb_scratch.len());
            self.wb_scratch.truncate(keep);
            hint = None;
            self.stats.truncated += 1;
        }
        // Generation tag: fresh by default; a stale-gen fault re-writes
        // a tag from the previous ring pass, so the entry looks like a
        // completion the host already consumed.
        let mut tag = self.wb_seq;
        if self.roll(self.faults.stale_gen_chance) {
            tag = tag.wrapping_sub(self.cq.capacity() as u64);
            self.stats.stale_gen += 1;
        }
        let pos = match self.cq.produce_tagged(&self.wb_scratch, tag) {
            Ok(pos) => {
                self.wb_seq += 1;
                pos
            }
            Err(RingError::Full) => {
                self.stats.dropped_ring_full += 1;
                return Ok(());
            }
            Err(e) => return Err(NicError::Ring(e)),
        };
        if self.roll(self.faults.doorbell_loss_chance) {
            self.stats.doorbell_lost += 1;
        } else {
            self.cq.ring_doorbell();
        }
        self.dma.record(&self.dma_cfg, self.wb_scratch.len() as u32);
        self.fill_slot(pos, frame, hint);
        self.stats.rx_frames += 1;
        self.stats.rx_bytes += frame.len() as u64;
        self.stats.completions += 1;
        // Duplicated completion: the device re-DMAs the same record with
        // the same tag into the next slot; the host sees the packet
        // twice and must discard the replay by its sequence tag.
        if self.roll(self.faults.duplicate_chance) {
            if let Ok(pos) = self.cq.produce_tagged(&self.wb_scratch, tag) {
                self.cq.ring_doorbell();
                self.fill_slot(pos, frame, hint);
                self.stats.duplicated += 1;
            }
        }
        Ok(())
    }

    /// Give the entry just produced at ring position `pos` its frame
    /// and steering sideband, in that entry's own slot: the frame is
    /// copied into the warmest parked buffer.
    #[inline]
    fn fill_slot(&mut self, pos: u64, frame: &[u8], hint: Option<u32>) {
        let slot = self.cq.slot_of(pos);
        self.slot_hints[slot] = hint;
        let mut buf = self.frame_pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(frame);
        self.slot_frames[slot] = buf;
    }

    /// Host side: pop the next (frame, completion) pair into fresh
    /// `Vec`s, taking the frame from its ring slot.
    pub fn receive(&mut self) -> Option<(Vec<u8>, Vec<u8>)> {
        let mut frame = Vec::new();
        let mut cmpt = Vec::new();
        self.receive_into_hinted(&mut frame, &mut cmpt)
            .map(|_| (frame, cmpt))
    }

    /// Zero-allocation [`receive`](SimNic::receive) that also surfaces
    /// the steering sideband for the popped completion: fills
    /// caller-owned buffers (the frame buffer's old storage is parked
    /// for a later `deliver`, the completion buffer is cleared before
    /// filling), so a poll loop recycles its storage across packets.
    /// Returns `None` when no packet is pending.
    ///
    /// This is [`receive_slot`](SimNic::receive_slot) plus one copy of
    /// the record out of its slot, for a caller that wants the bytes.
    #[inline]
    pub fn receive_into_hinted(
        &mut self,
        frame: &mut Vec<u8>,
        cmpt: &mut Vec<u8>,
    ) -> Option<RxSideband> {
        let (pos, sideband) = self.receive_slot(frame)?;
        cmpt.clear();
        cmpt.extend_from_slice(self.cq.record(pos).unwrap_or_default());
        Some(sideband)
    }

    /// Host side: consume the next published completion. The frame is
    /// swapped into `frame`, and the record stays where the device
    /// wrote it: this returns its ring position, for
    /// [`DescRing::record`] on `cq` to read until the device writes
    /// over the slot, with the slot's steering sideband and sequence
    /// tag. The caller's previous frame storage is parked for a later
    /// `deliver`. Returns `None` when no completion is published.
    #[inline]
    pub fn receive_slot(&mut self, frame: &mut Vec<u8>) -> Option<(u64, RxSideband)> {
        let (pos, seq) = self.cq.consume_pos()?;
        let slot = self.cq.slot_of(pos);
        let sideband = RxSideband {
            rss_hint: self.slot_hints[slot],
            seq,
        };
        let mut old = std::mem::replace(frame, std::mem::take(&mut self.slot_frames[slot]));
        // Parked warmest-last, so the next `deliver` writes into the
        // buffer the host touched most recently.
        if self.frame_pool.len() < self.cq.capacity() {
            old.clear();
            self.frame_pool.push(old);
        }
        Some((pos, sideband))
    }

    /// Run a frame through the offload engine only (no rings), into a
    /// fresh record: the op loop delivery runs, with a record as its
    /// sink — what a reference serializer takes in place of the
    /// completion the device writes.
    pub fn offload_record(&mut self, frame: &[u8]) -> MetaRecord {
        let mut rec = MetaRecord::default();
        self.engine
            .process_program_into(&self.offload_prog, frame, &mut rec);
        rec
    }
}

// Send audit for the sharded RX engine: a worker thread takes exclusive
// ownership of one queue, so the whole device state must cross threads.
// Everything inside is plain owned data (no `Rc`, no interior
// mutability); this breaks the build if a future field changes that.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SimNic>();
    assert_send::<RxSideband>();
    assert_send::<NicStats>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use opendesc_ir::names;
    use opendesc_ir::pred::{CmpOp, Cond, FieldRef};
    use opendesc_softnic::testpkt;

    fn asn(pairs: &[(&str, u16, u128)]) -> Assignment {
        pairs
            .iter()
            .map(|(name, w, v)| (FieldRef::new(&["ctx", name], *w), *v))
            .collect()
    }

    fn frame() -> Vec<u8> {
        testpkt::udp4(
            [10, 0, 0, 1],
            [10, 0, 0, 9],
            7777,
            11211,
            b"get k1\r\n",
            Some(0x0064),
        )
    }

    #[test]
    fn e1000e_end_to_end_rss_path() {
        let mut nic = SimNic::new(models::e1000e(), 64).unwrap();
        nic.configure(asn(&[("use_rss", 1, 1)])).unwrap();
        nic.deliver(&frame()).unwrap();
        let (f, cmpt) = nic.receive().unwrap();
        assert_eq!(f, frame());
        assert_eq!(cmpt.len(), 12);
        // First 4 bytes are the RSS hash the softnic reference computes.
        let mut soft = opendesc_softnic::SoftNic::new();
        let want = soft.compute_by_name(names::RSS_HASH, &f).unwrap() as u32;
        assert_eq!(u32::from_be_bytes(cmpt[..4].try_into().unwrap()), want);
        // Base record: pkt_len at bytes 4..6.
        assert_eq!(
            u16::from_be_bytes(cmpt[4..6].try_into().unwrap()) as usize,
            f.len()
        );
    }

    #[test]
    fn e1000e_csum_path_selected_by_context() {
        let mut nic = SimNic::new(models::e1000e(), 64).unwrap();
        nic.configure(asn(&[("use_rss", 1, 0)])).unwrap();
        let p = nic.active_path().unwrap();
        let csum = nic.reg.id(names::IP_CHECKSUM).unwrap();
        assert!(p.prov.contains(&csum));
        nic.deliver(&frame()).unwrap();
        let (_, cmpt) = nic.receive().unwrap();
        // ip_id at 0..2 (testpkt uses 0x1234), csum status 0xFFFF at 2..4.
        assert_eq!(&cmpt[..2], &0x1234u16.to_be_bytes());
        assert_eq!(&cmpt[2..4], &[0xFF, 0xFF]);
    }

    /// The shapes a completion has to be right for: UDP (VLAN-tagged
    /// KVS GET), VLAN-tagged TCP, a seeded frame and a non-IP runt.
    fn probe_frames() -> Vec<Vec<u8>> {
        vec![
            frame(),
            testpkt::tcp4(
                [10, 2, 0, 1],
                [10, 2, 0, 9],
                443,
                51000,
                b"hello",
                Some(0x2005),
            ),
            testpkt::seeded_frame(3),
            vec![0u8; 14],
        ]
    }

    #[test]
    fn restricted_offloads_write_the_same_completions() {
        // The device computes only what the active path carries. Against
        // a twin forced back onto the full program, every completion
        // must be byte-identical, on every model and solvable path.
        let mut restricted_somewhere = false;
        for model in models::catalog() {
            let paths = SimNic::new(model.clone(), 16).unwrap().paths;
            for (i, path) in paths.iter().enumerate() {
                let Ok(ctx) = path.solve_context() else {
                    continue;
                };
                let mut nic = SimNic::new(model.clone(), 16).unwrap();
                let mut full = SimNic::new(model.clone(), 16).unwrap();
                nic.configure(ctx.clone()).unwrap();
                full.configure(ctx).unwrap();
                full.offload_prog = OffloadProgram::compile(
                    &full.reg,
                    &full.supported,
                    full.active_path().unwrap(),
                );
                restricted_somewhere |= nic.offload_prog.len() < full.offload_prog.len();
                for f in &probe_frames() {
                    nic.deliver(f).unwrap();
                    full.deliver(f).unwrap();
                    assert_eq!(
                        nic.receive(),
                        full.receive(),
                        "model {} path {i}: restricted program changed the completion",
                        model.name
                    );
                }
            }
        }
        assert!(restricted_somewhere, "no path drops a supported semantic");
    }

    #[test]
    fn a_queue_whose_context_selects_no_path_refuses_delivery() {
        // Behind an opaque guard no path is ever selected: the queue
        // refuses every frame and leaves ring, counters and slots
        // exactly as they were — nothing is interpreted instead.
        let spec = models::ProgSpec {
            name: "opaque".into(),
            layouts: vec![
                models::ProgLayout {
                    fields: vec![models::ProgField::sem("len", "pkt_len", 16)],
                },
                models::ProgLayout {
                    fields: vec![models::ProgField::sem("hash", "rss_hash", 32)],
                },
            ],
            guard: models::ProgGuard::Opaque,
            tail: None,
            tx: None,
        };
        let mut nic = SimNic::new(models::programmable(&spec).unwrap(), 16).unwrap();
        nic.set_faults(FaultConfig::builder().drop_chance(0.5).build().unwrap())
            .unwrap();
        assert!(nic.active_path().is_none());
        for f in &probe_frames() {
            assert_eq!(nic.deliver(f), Err(NicError::NoPathForContext));
            assert_eq!(
                nic.deliver_steered(f, None, Some(7)),
                Err(NicError::NoPathForContext)
            );
        }
        assert_eq!(nic.stats, NicStats::default());
        // Nothing was produced, so no slot holds a frame or a hint.
        assert!(nic.cq.is_empty() && nic.cq.record(0).is_none());
        assert!(nic.slot_frames.iter().all(Vec::is_empty));
        assert!(nic.slot_hints.iter().all(Option::is_none));
        assert_eq!(nic.configure_path(None, 0), Err(NicError::NoPathForContext));
    }

    #[test]
    fn a_semantic_in_two_ragged_slots_is_computed_once_and_written_twice() {
        // No catalog layout repeats a semantic or leaves the byte grid;
        // this one does both, with the stateful semantics, so an op run
        // once per slot (instead of once per packet) would show.
        let spec = models::ProgSpec {
            name: "ragged-twice".into(),
            layouts: vec![models::ProgLayout {
                fields: vec![
                    models::ProgField::sem("tag_a", "flow_tag", 20),
                    models::ProgField::pad("gen", 3),
                    models::ProgField::sem("ctx_a", "crypto_ctx", 13),
                    models::ProgField::sem("len", "pkt_len", 14),
                    models::ProgField::sem("tag_b", "flow_tag", 11),
                    models::ProgField::sem("hash", "rss_hash", 32),
                    models::ProgField::sem("ctx_b", "crypto_ctx", 9),
                    models::ProgField::sem("ts", "timestamp", 64),
                    models::ProgField::sem("ts_low", "timestamp", 16),
                ],
            }],
            guard: models::ProgGuard::Unconditional,
            tail: None,
            tx: None,
        };
        let model = models::programmable(&spec).unwrap();
        let ctx = Assignment::new();
        let mut nic = SimNic::new(model, 16).unwrap();
        nic.configure(ctx).unwrap();
        let path = nic.active_path().unwrap().clone();
        let field = |cmpt: &[u8], name: &str| {
            let slot = path.slots.iter().find(|s| s.name.ends_with(name)).unwrap();
            opendesc_ir::bits::read_bits(cmpt, slot.offset_bits, slot.width_bits)
        };
        // Five distinct flows, one packet each: a fresh flow tag and a
        // fresh crypto context per packet, each advancing by exactly 1.
        for n in 0..5u8 {
            let f = testpkt::udp4(
                [10, 0, 0, 1],
                [10, 0, 0, 2],
                100 + n as u16,
                200,
                b"x",
                None,
            );
            nic.deliver(&f).unwrap();
            let (_, cmpt) = nic.receive().unwrap();
            let want = u128::from(n) + 1;
            assert_eq!(field(&cmpt, "tag_a"), want, "packet {n}: flow tag");
            assert_eq!(field(&cmpt, "tag_b"), want, "packet {n}: flow tag copy");
            assert_eq!(field(&cmpt, "ctx_a"), want, "packet {n}: crypto ctx");
            assert_eq!(field(&cmpt, "ctx_b"), want, "packet {n}: crypto ctx copy");
            assert_eq!(field(&cmpt, "len"), f.len() as u128);
            assert_eq!(field(&cmpt, "gen"), 0, "untagged bits stay zero");
            assert_eq!(field(&cmpt, "ts_low"), field(&cmpt, "ts") & 0xFFFF);
        }
    }

    #[test]
    fn reprogram_onto_a_layout_delivers_its_newly_carried_semantics() {
        // use_rss=1 carries no checksum, so the device stops computing
        // it; reprogramming to use_rss=0 must bring it back on the very
        // next frame, exactly as on a queue configured that way at boot.
        let mut nic = SimNic::new(models::e1000e(), 16).unwrap();
        nic.configure(asn(&[("use_rss", 1, 1)])).unwrap();
        let csum = nic.reg.id(names::IP_CHECKSUM).unwrap();
        assert!(nic.offload_prog.ops().iter().all(|op| op.sem != csum));
        nic.deliver(&frame()).unwrap();
        nic.receive().unwrap();
        let mut booted = SimNic::new(models::e1000e(), 16).unwrap();
        booted.configure(asn(&[("use_rss", 1, 0)])).unwrap();
        let csum_path = booted.active_path().unwrap().id;
        let rss_path = nic.active_path().unwrap().id;
        // A context that selects another path than the plan reads is
        // refused, and the queue stays where it was.
        assert!(matches!(
            nic.reprogram_queue(&asn(&[("use_rss", 1, 0)]), rss_path),
            Err(NicError::BadConfig(_))
        ));
        assert_eq!(nic.active_path().unwrap().id, rss_path);
        assert_eq!(nic.ring_generation(), 0);
        nic.reprogram_queue(&asn(&[("use_rss", 1, 0)]), csum_path)
            .unwrap();
        nic.deliver(&frame()).unwrap();
        let (_, cmpt) = nic.receive().unwrap();
        assert_eq!(&cmpt[2..4], &[0xFF, 0xFF], "checksum status delivered");

        booted.deliver(&frame()).unwrap();
        assert_eq!(cmpt, booted.receive().unwrap().1);
    }

    #[test]
    fn mlx5_mini_cqe_is_8_bytes_full_is_64() {
        let mut nic = SimNic::new(models::mlx5(), 16).unwrap();
        nic.configure(asn(&[("cqe_format", 2, 1)])).unwrap();
        nic.deliver(&frame()).unwrap();
        let (_, mini) = nic.receive().unwrap();
        assert_eq!(mini.len(), 8);
        nic.configure(asn(&[("cqe_format", 2, 0)])).unwrap();
        nic.deliver(&frame()).unwrap();
        let (_, full) = nic.receive().unwrap();
        assert_eq!(full.len(), 64);
    }

    #[test]
    fn mlx5_full_cqe_carries_kvs_hash() {
        let mut nic = SimNic::new(models::mlx5(), 16).unwrap();
        nic.configure(asn(&[("cqe_format", 2, 0)])).unwrap();
        let f = frame();
        nic.deliver(&f).unwrap();
        let (_, cqe) = nic.receive().unwrap();
        let kvs = nic.reg.id(names::KVS_KEY_HASH).unwrap();
        let slot = nic.active_path().unwrap().slot_for(kvs).unwrap().clone();
        let got = opendesc_ir::bits::read_bits(&cqe, slot.offset_bits, slot.width_bits);
        let want = opendesc_softnic::kvs_key_hash(b"get k1\r\n").unwrap() as u128;
        assert_eq!(got, want);
    }

    #[test]
    fn unsolved_context_reports_error() {
        let mut nic = SimNic::new(models::e1000e(), 16).unwrap();
        // A contradictory context: use_rss must be 0 or 1; force a guard
        // mismatch by programming a field no guard matches is impossible
        // here (guards are exhaustive), so instead check a guard-violating
        // assignment still selects some path.
        assert!(nic.configure(asn(&[("use_rss", 1, 1)])).is_ok());
        // Artificial: clear paths to simulate an unsatisfiable context.
        nic.paths.iter_mut().for_each(|p| {
            p.guard = vec![Cond::Cmp {
                field: FieldRef::new(&["ctx", "use_rss"], 1),
                op: CmpOp::Eq,
                value: 7, // impossible for bit<1>
            }];
        });
        assert_eq!(
            nic.configure(asn(&[("use_rss", 1, 1)])),
            Err(NicError::NoPathForContext)
        );
    }

    #[test]
    fn ring_full_counts_drops() {
        let mut nic = SimNic::new(models::e1000_legacy(), 2).unwrap();
        nic.configure(Assignment::new()).unwrap();
        for _ in 0..5 {
            nic.deliver(&frame()).unwrap();
        }
        assert_eq!(nic.stats.completions, 2);
        assert_eq!(nic.stats.dropped_ring_full, 3);
    }

    #[test]
    fn fault_injection_drops_and_corrupts() {
        let mut nic = SimNic::new(models::e1000_legacy(), 1024).unwrap();
        nic.configure(Assignment::new()).unwrap();
        nic.set_faults(
            FaultConfig::builder()
                .drop_chance(0.3)
                .corrupt_chance(0.3)
                .seed(42)
                .build()
                .unwrap(),
        )
        .unwrap();
        for _ in 0..500 {
            nic.deliver(&frame()).unwrap();
        }
        assert!(nic.stats.dropped_faults > 50, "{:?}", nic.stats);
        assert!(nic.stats.corrupted > 50, "{:?}", nic.stats);
        assert_eq!(
            nic.stats.rx_frames + nic.stats.dropped_faults + nic.stats.dropped_ring_full,
            500
        );
    }

    #[test]
    fn fault_config_rejects_out_of_range_probabilities() {
        for bad in [-0.1, 1.5, f64::NAN] {
            let err = FaultConfig::builder().torn_chance(bad).build();
            assert!(
                matches!(err, Err(NicError::BadConfig(_))),
                "torn_chance = {bad} must be rejected"
            );
        }
        let mut nic = SimNic::new(models::e1000_legacy(), 16).unwrap();
        let cfg = FaultConfig {
            drop_chance: 2.0,
            ..FaultConfig::default()
        };
        assert!(matches!(nic.set_faults(cfg), Err(NicError::BadConfig(_))));
        // Builder defaults leave every class off.
        let off = FaultConfig::builder().build().unwrap();
        assert_eq!(format!("{off:?}"), format!("{:?}", FaultConfig::default()));
    }

    #[test]
    fn corruption_hits_completion_and_hint_in_lockstep() {
        // Regression for the hint-path hole: a corrupt fault must mangle
        // the sideband hint too, or hint-primed plans silently repair
        // the corrupted completion and the fault is invisible.
        let mut nic = SimNic::new(models::e1000e(), 64).unwrap();
        nic.configure(asn(&[("use_rss", 1, 1)])).unwrap();
        nic.set_faults(
            FaultConfig::builder()
                .corrupt_chance(1.0)
                .seed(7)
                .build()
                .unwrap(),
        )
        .unwrap();
        let f = frame();
        let true_hint = 0xABCD_1234u32;
        nic.deliver_steered(&f, None, Some(true_hint)).unwrap();
        let (mut fr, mut c) = (Vec::new(), Vec::new());
        let side = nic.receive_into_hinted(&mut fr, &mut c).unwrap();
        assert_eq!(nic.stats.corrupted, 1);
        let got = side.rss_hint.expect("hint still delivered, but faulted");
        assert_ne!(got, true_hint, "hint must not survive corruption intact");
        assert_eq!((got ^ true_hint).count_ones(), 1, "single bit flip");
    }

    #[test]
    fn torn_and_truncated_writebacks_lose_the_hint() {
        for (cfg, check_len) in [
            (FaultConfig::builder().torn_chance(1.0), false),
            (FaultConfig::builder().truncate_chance(1.0), true),
        ] {
            let mut nic = SimNic::new(models::e1000e(), 64).unwrap();
            nic.configure(asn(&[("use_rss", 1, 1)])).unwrap();
            let full_len = {
                nic.deliver(&frame()).unwrap();
                let (_, c) = nic.receive().unwrap();
                c.len()
            };
            nic.set_faults(cfg.seed(9).build().unwrap()).unwrap();
            nic.deliver_steered(&frame(), None, Some(0x1111)).unwrap();
            let (mut fr, mut c) = (Vec::new(), Vec::new());
            let side = nic.receive_into_hinted(&mut fr, &mut c).unwrap();
            assert_eq!(side.rss_hint, None, "sideband DMA must be lost");
            if check_len {
                assert!(c.len() < full_len, "truncation must shorten the record");
            } else {
                assert_eq!(c.len(), full_len, "torn writeback keeps the length");
            }
        }
    }

    #[test]
    fn duplicated_completions_reuse_the_sequence_tag() {
        let mut nic = SimNic::new(models::e1000e(), 64).unwrap();
        nic.configure(asn(&[("use_rss", 1, 1)])).unwrap();
        nic.set_faults(
            FaultConfig::builder()
                .duplicate_chance(1.0)
                .seed(11)
                .build()
                .unwrap(),
        )
        .unwrap();
        nic.deliver(&frame()).unwrap();
        assert_eq!(nic.stats.duplicated, 1);
        let (mut fr, mut c) = (Vec::new(), Vec::new());
        let first = nic.receive_into_hinted(&mut fr, &mut c).unwrap();
        let orig = c.clone();
        let second = nic.receive_into_hinted(&mut fr, &mut c).unwrap();
        assert_eq!(first.seq, second.seq, "replay carries the same tag");
        assert_eq!(c, orig, "replay carries the same record");
        assert!(nic.receive_into_hinted(&mut fr, &mut c).is_none());
    }

    #[test]
    fn a_posted_completion_takes_the_next_tag() {
        let mut nic = SimNic::new(models::e1000e(), 64).unwrap();
        nic.configure(asn(&[("use_rss", 1, 1)])).unwrap();
        nic.deliver(&frame()).unwrap();
        nic.post_completion(b"frame", &[1, 2, 3], Some(7)).unwrap();
        let (mut fr, mut c) = (Vec::new(), Vec::new());
        let delivered = nic.receive_into_hinted(&mut fr, &mut c).unwrap();
        let posted = nic.receive_into_hinted(&mut fr, &mut c).unwrap();
        assert_eq!(posted.seq, delivered.seq + 1);
        assert_eq!(
            (&fr[..], &c[..], posted.rss_hint),
            (&b"frame"[..], &[1u8, 2, 3][..], Some(7))
        );
        assert!(nic.receive_into_hinted(&mut fr, &mut c).is_none());
    }

    #[test]
    fn stale_generation_tags_look_like_a_previous_ring_pass() {
        let mut nic = SimNic::new(models::e1000e(), 16).unwrap();
        nic.configure(asn(&[("use_rss", 1, 1)])).unwrap();
        nic.set_faults(
            FaultConfig::builder()
                .stale_gen_chance(1.0)
                .seed(13)
                .build()
                .unwrap(),
        )
        .unwrap();
        nic.deliver(&frame()).unwrap();
        let (mut fr, mut c) = (Vec::new(), Vec::new());
        let side = nic.receive_into_hinted(&mut fr, &mut c).unwrap();
        assert_eq!(
            side.seq,
            0u64.wrapping_sub(nic.cq.capacity() as u64),
            "tag is one full ring behind"
        );
        assert_eq!(nic.stats.stale_gen, 1);
    }

    #[test]
    fn lost_doorbell_hides_completions_until_queue_reset() {
        let mut nic = SimNic::new(models::e1000e(), 16).unwrap();
        nic.configure(asn(&[("use_rss", 1, 1)])).unwrap();
        nic.set_faults(
            FaultConfig::builder()
                .doorbell_loss_chance(1.0)
                .seed(17)
                .build()
                .unwrap(),
        )
        .unwrap();
        nic.deliver(&frame()).unwrap();
        nic.deliver(&frame()).unwrap();
        assert_eq!(nic.stats.doorbell_lost, 2);
        let (mut fr, mut c) = (Vec::new(), Vec::new());
        assert!(
            nic.receive_into_hinted(&mut fr, &mut c).is_none(),
            "unpublished completions are invisible"
        );
        nic.reset_queue();
        assert_eq!(nic.stats.resets, 1);
        assert!(nic.receive_into_hinted(&mut fr, &mut c).is_some());
        assert!(nic.receive_into_hinted(&mut fr, &mut c).is_some());
    }

    #[test]
    fn queue_hang_swallows_k_deliveries_then_recovers() {
        let mut nic = SimNic::new(models::e1000e(), 64).unwrap();
        nic.configure(asn(&[("use_rss", 1, 1)])).unwrap();
        nic.set_faults(
            FaultConfig::builder()
                .hang(1.0, 3)
                .seed(19)
                .build()
                .unwrap(),
        )
        .unwrap();
        // First delivery trips the hang, the next 3 are swallowed too.
        for _ in 0..4 {
            nic.deliver(&frame()).unwrap();
        }
        assert_eq!(nic.stats.hang_dropped, 4);
        assert_eq!(nic.stats.completions, 0);
        // Reset un-wedges the engine; with hang_chance still 1.0 the
        // next delivery would re-trip, so disable faults first.
        nic.reset_queue();
        nic.set_faults(FaultConfig::default()).unwrap();
        nic.deliver(&frame()).unwrap();
        assert_eq!(nic.stats.completions, 1);
    }

    #[test]
    fn dma_meter_tracks_completion_bytes() {
        let mut nic = SimNic::new(models::mlx5(), 256).unwrap();
        nic.configure(asn(&[("cqe_format", 2, 1)])).unwrap();
        for _ in 0..10 {
            nic.deliver(&frame()).unwrap();
        }
        assert_eq!(nic.dma.bytes, 80, "10 mini-CQEs of 8 bytes");
        assert!(nic.dma.busy_ns > 0.0);
    }

    #[test]
    fn supported_semantics_derived_from_contract() {
        let nic = SimNic::new(models::e1000_legacy(), 16).unwrap();
        let names_: Vec<&str> = nic.supported.iter().map(|s| nic.reg.name(*s)).collect();
        assert!(names_.contains(&"pkt_len"));
        assert!(names_.contains(&"ip_checksum"));
        assert!(names_.contains(&"vlan_tci"));
        assert!(!names_.contains(&"rss_hash"), "legacy e1000 has no RSS");
    }

    #[test]
    fn steered_delivery_matches_plain_and_surfaces_hint() {
        // Same frame through `deliver` and through `deliver_steered` with
        // the steering parse + hash: bit-identical completions, and the
        // hinted receive surfaces the hash only for the steered one.
        let f = frame();
        let parsed = ParsedFrame::parse(&f).unwrap();
        let ip = parsed.ipv4.unwrap();
        let (sp, dp) = parsed.ports().unwrap();
        let h = opendesc_softnic::rss_ipv4_l4(ip.src(), ip.dst(), sp, dp);

        let mut plain = SimNic::new(models::e1000e(), 16).unwrap();
        plain.configure(asn(&[("use_rss", 1, 1)])).unwrap();
        plain.deliver(&f).unwrap();

        let mut steered = SimNic::new(models::e1000e(), 16).unwrap();
        steered.configure(asn(&[("use_rss", 1, 1)])).unwrap();
        steered.deliver_steered(&f, Some(&parsed), Some(h)).unwrap();

        let (mut pf, mut pc) = (Vec::new(), Vec::new());
        let side_plain = plain.receive_into_hinted(&mut pf, &mut pc).unwrap();
        let (mut sf, mut sc) = (Vec::new(), Vec::new());
        let side_steered = steered.receive_into_hinted(&mut sf, &mut sc).unwrap();
        assert_eq!(pc, sc, "completion bytes must not depend on hint path");
        assert_eq!(pf, sf);
        assert_eq!(side_plain.rss_hint, None);
        assert_eq!(side_steered.rss_hint, Some(h));
    }

    #[test]
    fn hint_queue_stays_in_lockstep_across_ring_full_drops() {
        // Ring of 2: third delivery drops at `produce` and must push no
        // sideband, or later hints would pair with the wrong completion.
        let mut nic = SimNic::new(models::e1000e(), 2).unwrap();
        nic.configure(asn(&[("use_rss", 1, 1)])).unwrap();
        let f = frame();
        nic.deliver_steered(&f, None, Some(1)).unwrap();
        nic.deliver_steered(&f, None, Some(2)).unwrap();
        nic.deliver_steered(&f, None, Some(3)).unwrap(); // dropped: full
        assert_eq!(nic.stats.dropped_ring_full, 1);
        let (mut fr, mut c) = (Vec::new(), Vec::new());
        assert_eq!(
            nic.receive_into_hinted(&mut fr, &mut c).unwrap().rss_hint,
            Some(1)
        );
        // Ring freed one slot; deliver another with a fresh hint.
        nic.deliver_steered(&f, None, Some(4)).unwrap();
        assert_eq!(
            nic.receive_into_hinted(&mut fr, &mut c).unwrap().rss_hint,
            Some(2)
        );
        assert_eq!(
            nic.receive_into_hinted(&mut fr, &mut c).unwrap().rss_hint,
            Some(4),
            "dropped frame's hint must not appear"
        );
    }

    #[test]
    fn timestamps_flow_through_mlx5_full_cqe() {
        let mut nic = SimNic::new(models::mlx5(), 16).unwrap();
        nic.configure(asn(&[("cqe_format", 2, 0)])).unwrap();
        nic.deliver(&frame()).unwrap();
        nic.deliver(&frame()).unwrap();
        let ts_sem = nic.reg.id(names::TIMESTAMP).unwrap();
        let slot = nic.active_path().unwrap().slot_for(ts_sem).unwrap().clone();
        let (_, c1) = nic.receive().unwrap();
        let (_, c2) = nic.receive().unwrap();
        let t1 = opendesc_ir::bits::read_bits(&c1, slot.offset_bits, slot.width_bits);
        let t2 = opendesc_ir::bits::read_bits(&c2, slot.offset_bits, slot.width_bits);
        assert!(t2 > t1, "device timestamps must advance: {t1} vs {t2}");
    }
}
