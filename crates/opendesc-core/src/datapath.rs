//! The generated receive datapath: a compiled interface attached to a
//! (simulated) NIC.
//!
//! This is the paper's end goal in miniature — "a generated minimalist
//! driver datapath": the driver programs the NIC context from the
//! compiled selection, then per packet reads exactly the requested
//! fields through constant-time accessors, invoking SoftNIC shims only
//! for semantics the layout does not carry.

use crate::cache::{AttachError, CompiledRx};
use crate::compiler::CompiledInterface;
use crate::evolve::{FlipProgress, RelayoutCounters};
use crate::robust::{
    Evidence, HealthConfig, HealthState, QueueHealth, SeqTracker, SeqVerdict, ValidationMode,
    ValidationStats, Watchdog, WatchdogConfig,
};
use crate::vm::{self, Rows};
use opendesc_ir::SemanticId;
use opendesc_nicsim::nic::{NicError, SimNic};
use opendesc_nicsim::ring::DescRing;
use opendesc_softnic::wire::ParsedFrame;
use opendesc_softnic::SoftNic;
use opendesc_telemetry::{MetricRegistry, QueueTelemetry, TraceKind};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// Metadata for one received packet, ordered like the intent's fields.
#[derive(Debug, Clone, PartialEq)]
pub struct RxPacket {
    pub frame: Vec<u8>,
    /// `(semantic, value)` per intent field; `None` when a software shim
    /// could not compute (e.g. non-IP frame).
    pub meta: Vec<(SemanticId, Option<u128>)>,
}

impl RxPacket {
    /// Value of a semantic, if present.
    pub fn get(&self, sem: SemanticId) -> Option<u128> {
        self.meta
            .iter()
            .find(|(s, _)| *s == sem)
            .and_then(|(_, v)| *v)
    }
}

/// Struct-of-arrays batch storage for the zero-allocation RX path.
///
/// One `RxBatch` is created per queue (see
/// [`OpenDescDriver::make_batch`]) and refilled by
/// [`OpenDescDriver::poll_batch_into`]; frame and metadata storage is
/// recycled across calls, so a steady-state poll loop stops allocating
/// entirely. A batch holds no completion bytes: each packet's record
/// stays in the completion-ring slot the device wrote it to, and the
/// batch keeps its ring position ([`OpenDescDriver::completion`] reads
/// it there). Metadata is column-major — all packets' values
/// of one field are contiguous (`meta[field * cap + pkt]`) — which is
/// what the columnar hardware reader fills. The columns are shaped for
/// one artifact; a poll under a different one (after a relayout)
/// reshapes them in place first.
///
/// The per-packet readers are `#[inline]` and state their bounds as a
/// `[..len]` slice, then `[pkt]`: in an application's loop over packets
/// the slice is invariant and hoists out, which leaves one `pkt < len`
/// check per read.
#[derive(Debug, Default)]
pub struct RxBatch {
    /// The artifact `sems` and `meta` are shaped for. Weak, so a batch
    /// never pins a superseded plan in the cache, yet keeps the
    /// allocation's address from being reused by a later artifact.
    built_for: Weak<CompiledRx>,
    /// Packets currently held (set by the last `poll_batch_into`).
    len: usize,
    /// Capacity in packets.
    cap: usize,
    /// Intent fields per packet (accessor order).
    sems: Vec<SemanticId>,
    /// Received frames; `frames[i]` is valid for `i < len`.
    frames: Vec<Vec<u8>>,
    /// Completion-ring position of each packet's record, parallel to
    /// `frames`.
    pos: Vec<u64>,
    /// Column-major metadata: `meta[field * cap + pkt]`.
    meta: Vec<Option<u128>>,
    /// Steering sideband per packet (device-reported RSS hash), consumed
    /// to prime the shim memo; recycled like the other columns.
    hints: Vec<Option<u32>>,
    /// Truncated-completion flag per packet: these records are shorter
    /// than the layout promises, must never reach a hardware accessor
    /// (which would read past the end), and are served degraded.
    short: Vec<bool>,
    /// Repairs the verified stream's cross-checks made, per packet.
    repairs: Vec<u32>,
    /// `(packet, keep)` of each row a trusted batch re-serves, in row
    /// order (see [`vm::reserve_rows`]); at most one per packet.
    reserve: Vec<(usize, u128)>,
}

impl RxBatch {
    fn new(iface: &Arc<CompiledRx>, cap: usize) -> RxBatch {
        let mut batch = RxBatch {
            cap,
            frames: (0..cap).map(|_| Vec::new()).collect(),
            pos: vec![0; cap],
            hints: vec![None; cap],
            short: vec![false; cap],
            repairs: vec![0; cap],
            reserve: Vec::with_capacity(cap),
            ..RxBatch::default()
        };
        batch.reshape(iface);
        batch
    }

    /// Rebuild the per-field columns for `iface`, emptying the batch;
    /// per-packet storage depends only on the capacity and is kept.
    fn reshape(&mut self, iface: &Arc<CompiledRx>) {
        self.built_for = Arc::downgrade(iface);
        self.len = 0;
        self.sems.clear();
        self.sems
            .extend(iface.accessors.accessors.iter().map(|a| a.semantic));
        self.meta.clear();
        self.meta.resize(self.sems.len() * self.cap, None);
    }

    /// Packets received by the last poll.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum packets per poll.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The per-packet fields, in intent/accessor order.
    pub fn semantics(&self) -> &[SemanticId] {
        &self.sems
    }

    /// Frame bytes of packet `pkt` (`pkt < len`).
    #[inline]
    pub fn frame(&self, pkt: usize) -> &[u8] {
        &self.frames[..self.len][pkt]
    }

    /// Metadata by field position (accessor order,
    /// `field < semantics().len()`) and packet (`pkt < len`).
    #[inline]
    pub fn value_at(&self, field: usize, pkt: usize) -> Option<u128> {
        assert!(field < self.sems.len());
        self.column(field)[pkt]
    }

    /// Metadata by semantic and packet.
    pub fn get(&self, pkt: usize, sem: SemanticId) -> Option<u128> {
        let field = self.sems.iter().position(|s| *s == sem)?;
        self.value_at(field, pkt)
    }

    /// One field's values across the batch (`[..len]`).
    #[inline]
    pub fn column(&self, field: usize) -> &[Option<u128>] {
        &self.meta[field * self.cap..field * self.cap + self.len]
    }

    /// The steering-stage RSS hash delivered with packet `pkt`, if the
    /// device reported one.
    #[inline]
    pub fn rss_hint(&self, pkt: usize) -> Option<u32> {
        self.hints[..self.len][pkt]
    }
}

/// How one packet (or one batch) should be executed, chosen from the
/// validation mode and the queue's current health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Disposition {
    /// Hardware reads trusted (structural checks still run in
    /// `Structural` mode).
    Trusted,
    /// Hardware reads cross-checked field-by-field against the SoftNIC
    /// (compare-and-repair).
    Verified,
    /// Completion untrusted and never read; everything recomputable is
    /// recomputed from frame bytes.
    Degraded,
}

/// A compiled OpenDesc driver bound to a NIC instance.
///
/// The compiled interface is held through a shared immutable
/// [`CompiledRx`]: N queues attached with the same artifact hold one
/// compilation, not N copies (`iface` still reads like a
/// `CompiledInterface` via `Deref`). What the driver executes is that
/// artifact's verified bytecode ([`crate::vm`]) and nothing else: an
/// artifact that did not lower is refused at [`attach`] and at
/// [`request_relayout`].
///
/// [`attach`]: OpenDescDriver::attach
/// [`request_relayout`]: OpenDescDriver::request_relayout
///
/// The driver distrusts the device's *behavior*, not just its layout
/// (see [`crate::robust`]): completions pass sequence and length
/// admission, hardware fields are validated per [`ValidationMode`], and
/// a per-queue [`HealthState`] plus [`Watchdog`] drive degraded-mode
/// execution and ring-reset recovery. At the default `Structural` mode
/// an honest device runs the exact pre-validator fast path.
///
/// Cache-line aligned, so where the rings' hot words fall within a line
/// does not move with the size of an unrelated field (four bytes more
/// health state cost `rx_hw` 6 % of its wall cycles, all in the device
/// model's delivery; aligned, it reads as before).
#[repr(align(64))]
pub struct OpenDescDriver {
    pub nic: SimNic,
    pub iface: Arc<CompiledRx>,
    soft: SoftNic,
    mode: ValidationMode,
    seq: SeqTracker,
    vstats: ValidationStats,
    health: HealthState,
    watchdog: Watchdog,
    /// Per-queue instruments: poll-cycle histograms, field-source mix,
    /// and the trace ring. Driver-owned, so hot-path updates need no
    /// synchronization; disabled it costs one branch per hook.
    tel: QueueTelemetry,
    /// `poll`'s one-slot batch; boxed so lending it to the pipeline
    /// moves a pointer, and `None` only while a `poll` has it out.
    one: Option<Box<RxBatch>>,
    /// Pending drain-and-flip, if a relayout is underway (see
    /// [`crate::evolve`]).
    flip: FlipState,
    /// Plan generation this queue runs: bumped once per committed flip,
    /// mirroring the device's ring generation.
    generation: u64,
    /// Set when a watchdog reset mid-flip already rolled the *device*
    /// onto the new ring generation; the host plan swap then happens at
    /// commit without reprogramming twice.
    device_rolled: bool,
    /// Relayout lifecycle counters (`{scope}.relayout.*`).
    evolve: RelayoutCounters,
}

/// Driver-internal relayout state. The held `Arc` is the incoming
/// plan's in-flight pin: the cache cannot evict a generation a queue is
/// still flipping toward (or, via `iface`, still draining from).
enum FlipState {
    Idle,
    /// Requested while `Degraded`; parked until health recovers.
    Deferred(Arc<CompiledRx>),
    /// Draining in-flight work under the outgoing plan.
    Draining(Arc<CompiledRx>),
}

impl OpenDescDriver {
    /// Attach a compiled interface to a NIC: programs the selected
    /// context via the control channel and returns the ready driver.
    /// An interface whose plan did not lower to verified bytecode is
    /// refused before the device is touched; one whose completion path
    /// the programmed context does not select — a manual plan, behind
    /// an opaque guard — is refused by the device
    /// ([`SimNic::configure_path`]).
    pub fn attach(nic: SimNic, iface: CompiledInterface) -> Result<Self, AttachError> {
        Self::attach_shared(nic, Arc::new(CompiledRx::new(iface)))
    }

    /// [`attach`](OpenDescDriver::attach) over an already-shared
    /// artifact — the sharded engine's path: every worker's queue
    /// attaches the same `Arc` (typically from the
    /// [`PlanCache`](crate::cache::PlanCache)).
    pub fn attach_shared(mut nic: SimNic, iface: Arc<CompiledRx>) -> Result<Self, AttachError> {
        if let Some(e) = iface.lowering_error() {
            return Err(AttachError::Unlowerable(e.clone()));
        }
        nic.configure_path(iface.context.as_ref(), iface.path.id)?;
        Ok(OpenDescDriver {
            nic,
            one: Some(Box::new(RxBatch::new(&iface, 1))),
            iface,
            soft: SoftNic::new(),
            mode: ValidationMode::default(),
            seq: SeqTracker::default(),
            vstats: ValidationStats::default(),
            health: HealthState::default(),
            watchdog: Watchdog::default(),
            tel: QueueTelemetry::default(),
            flip: FlipState::Idle,
            generation: 0,
            device_rolled: false,
            evolve: RelayoutCounters::default(),
        })
    }

    /// Wire-side: deliver a frame into the NIC. Feeds the watchdog's
    /// outstanding-work counter.
    pub fn deliver(&mut self, frame: &[u8]) -> Result<(), NicError> {
        self.watchdog.note_fed(1);
        self.tel.event(TraceKind::Doorbell, frame.len() as u64, 0);
        self.nic.deliver(frame)
    }

    /// [`deliver`](OpenDescDriver::deliver) with steering-stage state
    /// handed down (the sharded engine's path), also fed to the
    /// watchdog.
    pub fn deliver_steered(
        &mut self,
        frame: &[u8],
        parsed: Option<&ParsedFrame<'_>>,
        rss_hint: Option<u32>,
    ) -> Result<(), NicError> {
        self.watchdog.note_fed(1);
        self.tel.event(TraceKind::Doorbell, frame.len() as u64, 0);
        self.nic.deliver_steered(frame, parsed, rss_hint)
    }

    /// How strictly hardware fields are validated (default:
    /// [`ValidationMode::Structural`]).
    pub fn validation_mode(&self) -> ValidationMode {
        self.mode
    }

    pub fn set_validation_mode(&mut self, mode: ValidationMode) {
        self.mode = mode;
    }

    /// Current queue health.
    pub fn health(&self) -> QueueHealth {
        self.health.health()
    }

    /// The fault-rate bucket's `(level, threshold)`: exact faults
    /// charge it, clean packets drain it, and a `Healthy` queue whose
    /// level reaches the threshold is demoted.
    pub fn health_level(&self) -> (u32, u32) {
        self.health.level()
    }

    /// Health-machine transitions taken so far.
    pub fn health_transitions(&self) -> u64 {
        self.health.transitions
    }

    /// Cumulative validation counters.
    pub fn validation_stats(&self) -> ValidationStats {
        self.vstats
    }

    /// Ring resets the watchdog has requested.
    pub fn watchdog_resets(&self) -> u64 {
        self.watchdog.resets
    }

    /// Frames fed to this queue but not yet observed by a poll — the
    /// watchdog's honest in-flight count (doorbell-lost completions are
    /// written but unpublished, so the device's ring occupancy would
    /// under-report). Zero means the queue has *quiesced*, which is the
    /// rebalancer's precondition for migrating a bucket off it.
    pub fn in_flight(&self) -> u64 {
        self.watchdog.outstanding()
    }

    /// Replace the health thresholds; the queue's state and its
    /// transition count stand.
    pub fn set_health_config(&mut self, cfg: HealthConfig) {
        self.health.set_config(cfg);
    }

    /// Replace the watchdog thresholds; its ledger and reset count
    /// stand.
    pub fn set_watchdog_config(&mut self, cfg: WatchdogConfig) {
        self.watchdog.set_config(cfg);
    }

    /// This queue's telemetry instruments (histograms, field mix, trace
    /// ring).
    pub fn telemetry(&self) -> &QueueTelemetry {
        &self.tel
    }

    /// Turn hot-path instrumentation on/off (the E15 on/off arms).
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        self.tel.set_enabled(enabled);
    }

    /// Tag this driver's telemetry with its queue index (trace-event
    /// attribution; the sharded engine sets it at worker construction).
    pub fn set_queue_index(&mut self, queue: u16) {
        self.tel.set_queue(queue);
    }

    /// Register everything this driver can see into `reg` under `scope`
    /// (e.g. `rx.q0`): its own instruments, the validator and watchdog
    /// ledgers, the health machine, the device's counters, and the
    /// SoftNIC engine — the existing struct APIs become named views in
    /// one registry.
    pub fn register_metrics(&self, reg: &mut MetricRegistry, scope: &str) {
        self.tel.register_into(reg, scope);
        self.vstats
            .register_into(reg, &format!("{scope}.validation"));
        self.watchdog
            .register_into(reg, &format!("{scope}.watchdog"));
        reg.gauge(
            &format!("{scope}.health"),
            health_rank(self.health()) as f64,
        );
        reg.gauge(
            &format!("{scope}.health_level"),
            self.health_level().0 as f64,
        );
        reg.counter(
            &format!("{scope}.health_transitions"),
            self.health.transitions,
        );
        self.nic.register_metrics(reg, &format!("{scope}.nic"));
        self.soft.register_metrics(reg, &format!("{scope}.softnic"));
        self.evolve.register_into(reg, &format!("{scope}.relayout"));
        reg.counter(&format!("{scope}.plan_generation"), self.generation);
    }

    /// Watchdog-declared stall: reset/re-arm the ring (republishes lost
    /// doorbells, clears wedged writeback state) and charge the queue's
    /// health for it.
    ///
    /// Mid-flip the reset *rolls the queue forward*: instead of
    /// re-arming the outgoing ring generation, it reprograms the device
    /// onto the incoming one — a crash during a relayout accelerates
    /// the flip, it never wedges it or resurrects the old layout.
    /// Old-layout completions the device had in flight are re-tagged
    /// into the stale-generation fault class and discarded by sequence
    /// admission rather than misparsed. The *host* plan swap still
    /// happens only at commit (recovery runs inside a poll, whose batch
    /// is already shaped for the current plan), gated by
    /// `device_rolled`.
    fn recover(&mut self) {
        let mut rolled = false;
        if let FlipState::Draining(new) = &self.flip {
            // A draining plan has a context: manual ones are refused
            // at request.
            if let (false, Some(ctx)) = (self.device_rolled, &new.context) {
                if let Ok(stranded) = self.nic.reprogram_queue(ctx, new.path.id) {
                    self.device_rolled = true;
                    self.evolve.rolled_forward += 1;
                    self.tel.event(
                        TraceKind::RelayoutRolledForward,
                        self.generation + 1,
                        stranded as u64,
                    );
                    rolled = true;
                }
            }
        }
        if !rolled {
            self.nic.reset_queue();
        }
        self.fault(Evidence::Stall);
        self.tel
            .event(TraceKind::WatchdogReset, self.watchdog.resets, 0);
    }

    /// Plan generation this queue runs (bumped per committed flip).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Relayout lifecycle counters so far.
    pub fn relayout_counters(&self) -> RelayoutCounters {
        self.evolve
    }

    /// Whether a relayout is pending (parked or draining).
    pub fn flip_pending(&self) -> bool {
        !matches!(self.flip, FlipState::Idle)
    }

    /// Begin a live relayout onto `new`. A healthy (or recovering)
    /// queue enters the drain; a `Degraded` one parks the request —
    /// renegotiating the contract with a device that was just caught
    /// misbehaving is exactly when a half-programmed context does the
    /// most damage — and [`advance_relayout`] retries it once health
    /// recovers. A newer request supersedes a pending one (latest
    /// intent wins).
    ///
    /// An artifact that did not lower to verified bytecode is refused,
    /// as at attach, and so is a manual one (no context: nothing could
    /// program the device onto its layout). Refused means counted and
    /// traced, and otherwise a no-op — plan, generation, device context
    /// and any pending flip stay as they were, and the returned
    /// progress is that of the flip still standing.
    ///
    /// [`advance_relayout`]: OpenDescDriver::advance_relayout
    pub fn request_relayout(&mut self, new: Arc<CompiledRx>) -> FlipProgress {
        self.evolve.requested += 1;
        if new.lowering_error().is_some() || new.context.is_none() {
            self.refuse_relayout();
            return match self.flip {
                FlipState::Idle => FlipProgress::Idle,
                FlipState::Deferred(_) => FlipProgress::Deferred,
                FlipState::Draining(_) => FlipProgress::Draining,
            };
        }
        if self.health() == QueueHealth::Degraded {
            if !matches!(self.flip, FlipState::Deferred(_)) {
                self.evolve.deferred += 1;
                self.tel.event(
                    TraceKind::RelayoutDeferred,
                    self.generation + 1,
                    health_rank(self.health()),
                );
            }
            self.flip = FlipState::Deferred(new);
            FlipProgress::Deferred
        } else {
            self.flip = FlipState::Draining(new);
            FlipProgress::Draining
        }
    }

    /// Advance a pending flip. Promotes a parked request once health
    /// has left `Degraded`, and commits a draining one the moment the
    /// queue quiesces (`in_flight` = 0). `polls_spent` is the drain
    /// polls the caller has invested, recorded on the commit trace
    /// event. Call between polls; returns where the flip stands.
    pub fn advance_relayout(&mut self, polls_spent: u64) -> FlipProgress {
        loop {
            match &self.flip {
                FlipState::Idle => return FlipProgress::Idle,
                FlipState::Deferred(_) => {
                    if self.health() == QueueHealth::Degraded {
                        return FlipProgress::Deferred;
                    }
                    let FlipState::Deferred(new) =
                        std::mem::replace(&mut self.flip, FlipState::Idle)
                    else {
                        unreachable!()
                    };
                    self.flip = FlipState::Draining(new);
                }
                FlipState::Draining(_) => {
                    if self.in_flight() > 0 {
                        return FlipProgress::Draining;
                    }
                    return self.commit_relayout(polls_spent);
                }
            }
        }
    }

    /// Force a draining flip to commit now: outstanding frames are
    /// forgiven (struck from the watchdog ledger — the device keeps
    /// them and strands them across the generation tick as stale).
    /// The budget-exhaustion path of the drain loop; a no-op unless
    /// the flip is draining.
    pub fn force_relayout(&mut self, polls_spent: u64) -> FlipProgress {
        if matches!(self.flip, FlipState::Draining(_)) {
            self.watchdog.forgive_outstanding();
            self.commit_relayout(polls_spent)
        } else {
            self.advance_relayout(polls_spent)
        }
    }

    /// Count and trace a relayout this queue will not run.
    fn refuse_relayout(&mut self) {
        self.evolve.refused += 1;
        self.tel
            .event(TraceKind::RelayoutRefused, self.generation + 1, 0);
    }

    /// Commit the flip: device-side ring-generation reprogram (unless a
    /// roll-forward already did it), then the host plan swap. Strictly
    /// ordered — the old plan parses every completion up to the ring
    /// tick, the new plan everything after — so no completion is ever
    /// read through the wrong layout. Batch storage shaped for the old
    /// plan reshapes itself on its next poll.
    fn commit_relayout(&mut self, polls_spent: u64) -> FlipProgress {
        let FlipState::Draining(new) = std::mem::replace(&mut self.flip, FlipState::Idle) else {
            unreachable!("commit only from Draining");
        };
        let programmed = self.device_rolled
            || (new.context.as_ref())
                .is_some_and(|ctx| self.nic.reprogram_queue(ctx, new.path.id).is_ok());
        if !programmed {
            // The device does not select the incoming layout under its
            // context: refuse the flip and stay on the old, still-
            // programmed generation rather than run a plan the device
            // does not serialize for.
            self.refuse_relayout();
            return FlipProgress::Idle;
        }
        self.device_rolled = false;
        self.iface = new;
        self.generation += 1;
        self.evolve.completed += 1;
        self.tel
            .event(TraceKind::RelayoutCompleted, self.generation, polls_spent);
        FlipProgress::Committed(self.generation)
    }

    /// Admit one consumed completion's sequence tag, updating the
    /// watchdog's ledger (a replay proves liveness but consumed no fed
    /// frame, so it must not mask hidden completions as progress).
    /// `true` = deliver, `false` = discard (duplicate or stale
    /// writeback).
    /// Clean admissions are NOT traced here: a per-packet ring write
    /// would eat the E15 overhead budget, so `drain_batch` traces only
    /// the first writeback of each batch and `BatchPolled` summarizes
    /// the rest. Anomalies (discard verdicts) always trace.
    fn admit_seq(&mut self, seq: u64) -> bool {
        match self.seq.admit(seq) {
            SeqVerdict::Fresh => {
                self.watchdog.note_progress(1);
                true
            }
            SeqVerdict::Duplicate => {
                self.watchdog.note_alive();
                self.vstats.duplicates += 1;
                self.fault(Evidence::Duplicate);
                self.tel.event(TraceKind::DiscardDuplicate, seq, 0);
                false
            }
            SeqVerdict::Stale => {
                // The stale tag occupied (and its consume retired) a
                // slot a fed frame produced: progress, just unusable.
                self.watchdog.note_progress(1);
                self.vstats.stale += 1;
                self.fault(Evidence::Stale);
                self.tel.event(TraceKind::DiscardStale, seq, 0);
                false
            }
        }
    }

    /// Record a fault with the health machine. Charges are counted
    /// where they are found (`ValidationStats`, the watchdog); only the
    /// fault that demotes the queue is traced, with why.
    fn fault(&mut self, evidence: Evidence) {
        if self.health.on_fault(evidence) {
            let (level, threshold) = self.health.level();
            self.tel.event(
                TraceKind::HealthCause,
                evidence.code(),
                (level as u64) << 32 | threshold as u64,
            );
        }
    }

    /// The execution strategy the current mode + health call for.
    fn disposition(&self) -> Disposition {
        match (self.mode, self.health.health()) {
            (_, QueueHealth::Degraded) => Disposition::Degraded,
            (ValidationMode::Full, _) | (_, QueueHealth::Recovering) => Disposition::Verified,
            (ValidationMode::Structural, QueueHealth::Healthy) => Disposition::Trusted,
        }
    }

    /// Host-side: poll one packet with its requested metadata — a
    /// one-slot batch through [`poll_batch_into`], so the same
    /// admission pipeline runs: duplicated/stale completions are
    /// discarded (the drain keeps consuming), truncated or failing ones
    /// are re-served degraded, and an empty poll with work outstanding
    /// feeds the watchdog.
    ///
    /// [`poll_batch_into`]: OpenDescDriver::poll_batch_into
    pub fn poll(&mut self) -> Option<RxPacket> {
        let mut one = self.one.take().expect("every poll puts its batch back");
        let pkt = (self.poll_batch_into(&mut one) == 1).then(|| RxPacket {
            frame: std::mem::take(&mut one.frames[0]),
            meta: std::iter::zip(&one.sems, &one.meta)
                .map(|(s, v)| (*s, *v))
                .collect(),
        });
        self.one = Some(one);
        pkt
    }

    /// Poll up to `n` packets.
    pub fn poll_batch(&mut self, n: usize) -> Vec<RxPacket> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            match self.poll() {
                Some(p) => out.push(p),
                None => break,
            }
        }
        out
    }

    /// Batch storage sized for this interface, holding up to `cap`
    /// packets. Create once, then refill with [`poll_batch_into`].
    ///
    /// [`poll_batch_into`]: OpenDescDriver::poll_batch_into
    pub fn make_batch(&self, cap: usize) -> RxBatch {
        RxBatch::new(&self.iface, cap)
    }

    /// The completion record of packet `pkt` (`pkt < batch.len()`) of a
    /// batch this driver polled, read in the ring slot the device wrote
    /// it to. `None` once the device has written over that slot — after
    /// a ring's worth of later completions — so a late read fails closed
    /// instead of returning another packet's bytes.
    #[inline]
    pub fn completion(&self, batch: &RxBatch, pkt: usize) -> Option<&[u8]> {
        self.nic.cq.record(batch.pos[..batch.len][pkt])
    }

    /// Zero-allocation batched poll: drain up to `batch.capacity()`
    /// pending packets into recycled storage, then fill the metadata
    /// columns — hardware fields via the columnar batch reader, software
    /// fields one compiled shim at a time down the batch (one parse per
    /// packet, memoized intra-packet repeats). Returns the number of
    /// packets received.
    ///
    /// This is the driver's only admission pipeline: sequence discard,
    /// truncation guard, mode/health disposition, watchdog. A batch
    /// shaped for another artifact — one that predates a relayout, or
    /// that another driver made — is reshaped for this one first.
    pub fn poll_batch_into(&mut self, batch: &mut RxBatch) -> usize {
        if batch.built_for.as_ptr() != Arc::as_ptr(&self.iface) {
            batch.reshape(&self.iface);
        }
        // Telemetry discipline: a handful of integer histogram records
        // per *batch* (not per packet), skipped entirely when disabled.
        // Even the two `Instant` reads are too hot for every cycle at
        // ~1µs/batch, so the poll-cost clock is sampled 1-in-2^k cycles
        // (`sample_clock`) — the ≤3% E15 overhead budget.
        let instrument = self.tel.enabled();
        let (t0, occupancy, health_before) = if instrument {
            let t0 = self.tel.sample_clock().then(Instant::now);
            (t0, self.nic.pending_completions() as u64, self.health())
        } else {
            (None, 0, self.health())
        };
        let mut n = self.drain_batch(batch);
        if n == 0 && self.watchdog.observe_empty() {
            // Stall declared: reset/re-arm and retry once — the re-arm
            // republishes completions a lost doorbell was hiding.
            self.recover();
            n = self.drain_batch(batch);
        }
        if n > 0 {
            self.fill_batch(batch);
        }
        if instrument {
            if let Some(t0) = t0 {
                self.tel.poll_ns.record(t0.elapsed().as_nanos() as u64);
            }
            self.tel.ring_occupancy.record(occupancy);
            if n > 0 {
                self.tel
                    .batch_fill_permille
                    .record((n * 1000 / batch.cap.max(1)) as u64);
                self.tel
                    .trace
                    .record(TraceKind::BatchPolled, n as u64, occupancy);
            }
            // Operands are severity ranks: 0 = Healthy, 1 = Recovering,
            // 2 = Degraded.
            let health_after = self.health();
            if health_after != health_before {
                self.tel.event(
                    TraceKind::HealthTransition,
                    health_rank(health_before),
                    health_rank(health_after),
                );
            }
        }
        n
    }

    /// Drain the rings into recycled frame storage, keeping each
    /// packet's ring position, steering sideband and truncation flag
    /// alongside it; duplicated/stale completions are discarded here.
    /// The one place the host consumes the device's rings. No record is
    /// copied: `fill_batch` reads each one in its ring slot, which the
    /// device cannot write over before the poll returns.
    fn drain_batch(&mut self, batch: &mut RxBatch) -> usize {
        let expected_len = self.iface.validator().expected_len;
        let mut n = 0;
        while n < batch.cap {
            let Some((pos, side)) = self.nic.receive_slot(&mut batch.frames[n]) else {
                break;
            };
            if !self.admit_seq(side.seq) {
                continue;
            }
            if n == 0 {
                self.tel.event(TraceKind::Writeback, side.seq, 0);
            }
            batch.pos[n] = pos;
            batch.hints[n] = side.rss_hint;
            let len = self.nic.cq.record(pos).map_or(0, <[u8]>::len);
            let short = len < expected_len;
            batch.short[n] = short;
            if short {
                self.vstats.truncated += 1;
                self.fault(Evidence::Truncated);
                self.tel
                    .event(TraceKind::Truncated, len as u64, expected_len as u64);
            }
            n += 1;
        }
        batch.len = n;
        n
    }

    /// Fill the metadata columns of a drained batch. The disposition is
    /// chosen once from the health at entry; a structural failure inside
    /// the batch re-serves that packet degraded and demotes health for
    /// the *next* batch, a truncated record is served from its frame
    /// and costs its neighbours nothing.
    ///
    /// All three dispositions execute the artifact's verified
    /// [`PlanProgram`], one *instruction* down the whole batch at a
    /// time — hardware fields through [`vm::load_column`], software
    /// fields and cross-checks through [`vm::run_rows`] — so dispatch
    /// is paid once per field per batch. What the columns found is then
    /// applied per row, in row order: health, validation counters and
    /// trace events. Rows a trusted batch distrusts are re-served in
    /// one more pass over just those rows ([`vm::reserve_rows`]), which
    /// a batch without one skips.
    ///
    /// [`PlanProgram`]: crate::vm::PlanProgram
    fn fill_batch(&mut self, batch: &mut RxBatch) {
        let iface = Arc::clone(&self.iface);
        let plan = &iface.plan;
        let spec = iface.validator();
        let prog = iface.program();
        let n = batch.len;
        let cap = batch.cap;
        let disposition = self.disposition();
        match disposition {
            Disposition::Degraded => {
                // No completion is read while the queue is Degraded:
                // every slot is cleared, then the degraded stream runs a
                // column at a time over every frame.
                for s in 0..prog.slots {
                    batch.meta[s * cap..s * cap + n].fill(None);
                }
                if !prog.degraded.is_empty() {
                    let frames = &batch.frames[..n];
                    let (soft, insns) = (&mut self.soft, &prog.degraded);
                    vm::run_rows(soft, insns, frames, Rows::Degraded, &mut batch.meta, cap);
                }
                let shorts = batch.short[..n].iter().filter(|s| **s).count();
                self.vstats.accepted += n as u64;
                self.vstats.degraded_packets += n as u64;
                self.health.on_clean((n - shorts) as u32);
                if self.tel.enabled() {
                    self.tel.fields_sw += (n * plan.degraded.len()) as u64;
                    self.tel.event(TraceKind::DegradedServe, n as u64, 0);
                }
            }
            Disposition::Verified => {
                // A truncated completion is never read: its row is
                // cleared, skipped by the loads, and served by the
                // checks and shims from frame bytes alone, in the same
                // pass and row order as its neighbours.
                let (loads, rest) = prog.verified.split_at(prog.hw_len);
                load_rows(loads, &self.nic.cq, batch);
                for pkt in (0..n).filter(|&pkt| batch.short[pkt]) {
                    for s in 0..prog.slots {
                        batch.meta[s * cap + pkt] = None;
                    }
                }
                batch.repairs[..n].fill(0);
                if !rest.is_empty() {
                    let frames = &batch.frames[..n];
                    let rows = Rows::Verified {
                        repairs: &mut batch.repairs[..n],
                    };
                    vm::run_rows(&mut self.soft, rest, frames, rows, &mut batch.meta, cap);
                }
                let mut degraded = 0usize;
                for pkt in 0..n {
                    if batch.short[pkt] {
                        degraded += 1;
                        continue;
                    }
                    let repaired = batch.repairs[pkt];
                    if repaired > 0 {
                        self.vstats.repaired_fields += repaired as u64;
                        self.fault(Evidence::Repaired);
                        self.tel
                            .event(TraceKind::Repaired, repaired as u64, pkt as u64);
                    } else {
                        self.health.on_clean(1);
                    }
                }
                self.vstats.accepted += n as u64;
                self.vstats.degraded_packets += degraded as u64;
                if self.tel.enabled() {
                    self.tel.fields_sw +=
                        (degraded * plan.degraded.len() + (n - degraded) * plan.sw.len()) as u64;
                    self.tel.fields_hw += ((n - degraded) * plan.hw.len()) as u64;
                }
            }
            Disposition::Trusted => {
                load_rows(prog.hw_insns(), &self.nic.cq, batch);
                // Software fields: one shim at a time across the batch
                // too, over frames parsed once.
                if prog.needs_parse() {
                    let frames = &batch.frames[..n];
                    let rows = Rows::Trusted {
                        hints: &batch.hints[..n],
                        short: &batch.short[..n],
                    };
                    let (soft, insns) = (&mut self.soft, prog.sw_insns());
                    vm::run_rows(soft, insns, frames, rows, &mut batch.meta, cap);
                }
                // Structural checks by column, 64 packets (one fail
                // bit each) at a time; whatever a truncated record's
                // row still holds is ignored. Health is credited once
                // per run of clean packets: the batch, unless a lie
                // splits it.
                let tel = self.tel.enabled();
                batch.reserve.clear();
                let mut fail = 0u64;
                let mut clean = 0u32;
                for pkt in 0..n {
                    if pkt % 64 == 0 {
                        let end = n.min(pkt + 64);
                        fail = spec.failing_packets(
                            |p| batch.frames[pkt + p].len(),
                            |i| &batch.meta[i * cap + pkt..i * cap + end],
                        );
                    }
                    // A truncated record re-serves everything (`keep` 0
                    // is full degraded execution). A structural failure
                    // re-serves selectively: structurally-proven fields
                    // and frame-derived software slots (minus hint-fed
                    // ones) keep their values; only the remainder is
                    // recomputed. Each delivered field counts once, on
                    // the side that produced it.
                    let keep = if batch.short[pkt] {
                        0
                    } else if fail >> (pkt % 64) & 1 != 0 {
                        let frame_len = batch.frames[pkt].len();
                        let (_, proven) =
                            spec.check_values_all(frame_len, |i| batch.meta[i * cap + pkt]);
                        let keep_sw = plan.keep_sw_mask(batch.hints[pkt].is_some());
                        self.vstats.structural_failures += 1;
                        self.health.on_clean(std::mem::take(&mut clean));
                        self.fault(Evidence::FieldCheck);
                        self.tel.event(TraceKind::StructuralFailure, pkt as u64, 0);
                        if tel {
                            self.tel.fields_hw += proven.count_ones() as u64;
                            self.tel.fields_sw += keep_sw.count_ones() as u64;
                        }
                        proven | keep_sw
                    } else {
                        clean += 1;
                        continue;
                    };
                    batch.reserve.push((pkt, keep));
                    self.vstats.degraded_packets += 1;
                    if tel {
                        let recomputed = prog.degraded.iter().filter(|i| keep >> i.dst & 1 == 0);
                        self.tel.fields_sw += recomputed.count() as u64;
                        self.tel.event(TraceKind::DegradedServe, 1, pkt as u64);
                    }
                }
                if !batch.reserve.is_empty() {
                    let frames = &batch.frames[..n];
                    let (soft, insns) = (&mut self.soft, &prog.degraded);
                    vm::reserve_rows(soft, insns, frames, &batch.reserve, &mut batch.meta, cap);
                }
                if tel {
                    let full = n - batch.reserve.len();
                    self.tel.fields_hw += (full * plan.hw.len()) as u64;
                    self.tel.fields_sw += (full * plan.sw.len()) as u64;
                }
                self.vstats.accepted += n as u64;
                self.health.on_clean(clean);
            }
        }
    }
}

/// Run hardware loads one column at a time across each run of
/// full-length records in `batch`, reading every record in its slot of
/// `ring`: a truncated record splits the run and is never read, and its
/// row keeps whatever it held. The records' slices are gathered a chunk
/// of 32 rows at a time, or one row for the one-slot batch of `poll`,
/// which so sets up one slice, not a chunk's worth.
#[inline(always)]
fn load_rows(insns: &[vm::BcInsn], ring: &DescRing, batch: &mut RxBatch) {
    if batch.cap == 1 {
        load_chunks::<1>(insns, ring, batch);
    } else {
        load_chunks::<{ vm::CHUNK_ROWS }>(insns, ring, batch);
    }
}

#[inline(always)]
fn load_chunks<const N: usize>(insns: &[vm::BcInsn], ring: &DescRing, batch: &mut RxBatch) {
    let (n, cap) = (batch.len, batch.cap);
    let mut recs: [&[u8]; N] = [&[]; N];
    let mut at = 0;
    for run in batch.short[..n].split(|short| *short) {
        let run_end = at + run.len();
        while at < run_end {
            let rows = at..run_end.min(at + N);
            let recs = &mut recs[..rows.len()];
            for (rec, &pos) in recs.iter_mut().zip(&batch.pos[rows.clone()]) {
                // A full-length row's record was read in this poll's drain,
                // and the device has not produced since.
                *rec = ring.record(pos).unwrap_or_default();
            }
            for insn in insns {
                let base = insn.dst as usize * cap;
                let out = &mut batch.meta[base + rows.start..base + rows.end];
                vm::load_column(insn, recs, out);
            }
            at = rows.end;
        }
        at += 1;
    }
}

/// Severity rank of a health state, used as trace-event operand
/// encoding and as the `*.health` gauge value: 0 = Healthy,
/// 1 = Recovering, 2 = Degraded.
pub(crate) fn health_rank(h: QueueHealth) -> u64 {
    match h {
        QueueHealth::Healthy => 0,
        QueueHealth::Recovering => 1,
        QueueHealth::Degraded => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Compiler;
    use crate::intent::Intent;
    use opendesc_ir::{names, SemanticRegistry};
    use opendesc_nicsim::models;
    use opendesc_softnic::testpkt;

    fn kvs_frame(key: &str) -> Vec<u8> {
        testpkt::udp4(
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            40000,
            11211,
            &testpkt::kvs_get_payload(key),
            Some(0x0123),
        )
    }

    fn driver_for(model: opendesc_nicsim::NicModel) -> (OpenDescDriver, SemanticRegistry) {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::from_p4(crate::intent::FIG1_INTENT_P4, &mut reg).unwrap();
        let compiled = Compiler::default()
            .compile_model(&model, &intent, &mut reg)
            .unwrap();
        let nic = SimNic::new(model, 256).unwrap();
        (OpenDescDriver::attach(nic, compiled).unwrap(), reg)
    }

    #[test]
    fn fig1_scenario_on_mlx5_all_hardware() {
        let (mut drv, reg) = driver_for(models::mlx5());
        drv.deliver(&kvs_frame("user:1")).unwrap();
        let pkt = drv.poll().unwrap();
        let rss = reg.id(names::RSS_HASH).unwrap();
        let vlan = reg.id(names::VLAN_TCI).unwrap();
        let kvs = reg.id(names::KVS_KEY_HASH).unwrap();
        assert_eq!(pkt.get(vlan), Some(0x0123));
        let expected_kvs = opendesc_softnic::kvs_key_hash(b"get user:1\r\n").unwrap() as u128;
        assert_eq!(pkt.get(kvs), Some(expected_kvs));
        // RSS from hardware must equal the reference computation.
        let mut soft = SoftNic::new();
        let want = soft.compute_by_name(names::RSS_HASH, &pkt.frame).unwrap() as u128;
        assert_eq!(pkt.get(rss), Some(want));
    }

    #[test]
    fn fig1_scenario_on_e1000e_mixes_hw_and_soft() {
        let (mut drv, reg) = driver_for(models::e1000e());
        drv.deliver(&kvs_frame("user:2")).unwrap();
        let pkt = drv.poll().unwrap();
        // The compiler chose the csum path; RSS and KVS are software
        // shims but the application still gets every value.
        for name in [
            names::RSS_HASH,
            names::VLAN_TCI,
            names::IP_CHECKSUM,
            names::KVS_KEY_HASH,
        ] {
            let id = reg.id(name).unwrap();
            assert!(pkt.get(id).is_some(), "{name} missing from RxPacket");
        }
    }

    #[test]
    fn hardware_and_software_values_agree_across_models() {
        // The portability claim: the same application observes identical
        // metadata values on every NIC model, regardless of which side
        // computed them.
        let frame = kvs_frame("same:key");
        let mut per_model: Vec<Vec<Option<u128>>> = Vec::new();
        for model in [
            models::e1000e(),
            models::ixgbe(),
            models::mlx5(),
            models::qdma_default(),
        ] {
            let (mut drv, _) = driver_for(model);
            drv.deliver(&frame).unwrap();
            let pkt = drv.poll().unwrap();
            per_model.push(pkt.meta.iter().map(|(_, v)| *v).collect());
        }
        for window in per_model.windows(2) {
            assert_eq!(window[0], window[1], "metadata diverged between models");
        }
    }

    #[test]
    fn batch_storage_recycles_across_polls() {
        let (mut drv, reg) = driver_for(models::e1000e());
        let vlan = reg.id(names::VLAN_TCI).unwrap();
        let mut batch = drv.make_batch(4);
        for round in 0..3 {
            for i in 0..4 {
                drv.deliver(&kvs_frame(&format!("r{round}:{i}"))).unwrap();
            }
            assert_eq!(drv.poll_batch_into(&mut batch), 4);
            assert_eq!(batch.len(), 4);
            for pkt in 0..4 {
                assert_eq!(batch.get(pkt, vlan), Some(0x0123), "round {round}");
            }
        }
        // Partial refill shrinks len; stale packets are not readable.
        drv.deliver(&kvs_frame("last")).unwrap();
        assert_eq!(drv.poll_batch_into(&mut batch), 1);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.column(0).len(), 1);
    }

    #[test]
    fn an_honest_devices_flow_tags_are_read_as_is_when_verified() {
        // The device numbers flows in its own table; a host table that
        // starts later cannot reproduce that numbering, so a hardware
        // `flow_tag` is never cross-checked (nor recomputed).
        let flow = |port: u16| testpkt::udp4([10, 0, 0, 1], [10, 0, 0, 2], port, 80, b"x", None);
        for model in [models::qdma_default(), models::mlx5(), models::ixgbe()] {
            let name = model.name.clone();
            let mut reg = SemanticRegistry::with_builtins();
            let intent = Intent::builder("tags")
                .want(&mut reg, names::FLOW_TAG)
                .want(&mut reg, names::PKT_LEN)
                .build();
            let compiled = Compiler::default()
                .compile_model(&model, &intent, &mut reg)
                .unwrap();
            let tag = reg.id(names::FLOW_TAG).unwrap();
            let slot = compiled
                .accessors
                .accessors
                .iter()
                .position(|a| a.semantic == tag);
            assert!(
                compiled.plan.hw.contains(&slot.unwrap()),
                "{name}: hardware tag"
            );
            let mut drv =
                OpenDescDriver::attach(SimNic::new(model, 64).unwrap(), compiled).unwrap();
            for port in [100, 101] {
                drv.deliver(&flow(port)).unwrap();
                drv.poll().unwrap();
            }
            drv.set_validation_mode(ValidationMode::Full);
            let tags: Vec<_> = [102, 103, 100]
                .map(|port| {
                    drv.deliver(&flow(port)).unwrap();
                    drv.poll().unwrap().get(tag)
                })
                .into();
            assert_eq!(
                tags,
                [Some(3), Some(4), Some(1)],
                "{name}: the device's tags"
            );
            assert_eq!(drv.validation_stats().repaired_fields, 0, "{name}");
            assert_eq!(drv.health(), QueueHealth::Healthy, "{name}");
        }
    }

    #[test]
    fn poll_empty_returns_none() {
        let (mut drv, _) = driver_for(models::mlx5());
        assert!(drv.poll().is_none());
    }

    fn faults(b: opendesc_nicsim::FaultConfigBuilder) -> opendesc_nicsim::FaultConfig {
        b.build().unwrap()
    }

    #[test]
    fn duplicated_completions_are_discarded_once() {
        use opendesc_nicsim::FaultConfig;
        let (mut drv, reg) = driver_for(models::e1000e());
        drv.nic
            .set_faults(faults(FaultConfig::builder().duplicate_chance(1.0).seed(5)))
            .unwrap();
        drv.deliver(&kvs_frame("dup:key")).unwrap();
        let pkt = drv.poll().expect("the original completion is delivered");
        let vlan = reg.id(names::VLAN_TCI).unwrap();
        assert_eq!(pkt.get(vlan), Some(0x0123));
        // The replay is discarded inside the poll loop, not delivered.
        assert!(drv.poll().is_none());
        assert_eq!(drv.validation_stats().duplicates, 1);
        // Discarding it handled it completely: one replay says nothing
        // about the next completion and costs the queue no trust.
        assert_eq!(drv.health(), crate::robust::QueueHealth::Healthy);
    }

    #[test]
    fn truncated_completions_are_served_degraded_not_panicking() {
        use opendesc_nicsim::FaultConfig;
        let (mut drv, reg) = driver_for(models::e1000e());
        drv.nic
            .set_faults(faults(FaultConfig::builder().truncate_chance(1.0).seed(7)))
            .unwrap();
        drv.deliver(&kvs_frame("trunc:key")).unwrap();
        let pkt = drv.poll().expect("truncated records still deliver");
        // Every FIG1 field is software-recomputable, so degraded
        // execution produces all of them — correct-or-absent, no reads
        // of the short record.
        for name in [
            names::RSS_HASH,
            names::VLAN_TCI,
            names::IP_CHECKSUM,
            names::KVS_KEY_HASH,
        ] {
            let id = reg.id(name).unwrap();
            assert!(pkt.get(id).is_some(), "{name} missing in degraded mode");
        }
        assert_eq!(pkt.get(reg.id(names::VLAN_TCI).unwrap()), Some(0x0123));
        let s = drv.validation_stats();
        assert_eq!(s.truncated, 1);
        assert_eq!(s.degraded_packets, 1);
        // A multi-packet batch records each truncation too, with the
        // length the record had and the length the layout promised.
        drv.set_telemetry_enabled(true);
        for key in ["trunc:a", "trunc:b"] {
            drv.deliver(&kvs_frame(key)).unwrap();
        }
        let mut batch = drv.make_batch(4);
        assert_eq!(drv.poll_batch_into(&mut batch), 2);
        let expected = drv.iface.validator().expected_len as u64;
        let truncated: Vec<_> = drv
            .telemetry()
            .trace
            .events()
            .into_iter()
            .filter(|e| e.kind == TraceKind::Truncated)
            .collect();
        assert_eq!(truncated.len(), 2);
        assert!(truncated.iter().all(|e| e.a < expected && e.b == expected));
    }

    #[test]
    fn short_records_in_a_batch_cost_only_their_own_rows() {
        use opendesc_nicsim::FaultConfig;
        // Records 0, 13 and 31 of a full batch arrive short: at either
        // end of the columns and between two runs.
        const SHORT: [usize; 3] = [0, 13, 31];
        let feed = |drv: &mut OpenDescDriver, round: &str| {
            for i in 0..32 {
                let short = round == "short" && SHORT.contains(&i);
                let chance = if short { 1.0 } else { 0.0 };
                drv.nic
                    .set_faults(faults(FaultConfig::builder().truncate_chance(chance)))
                    .unwrap();
                drv.deliver(&kvs_frame(&format!("{round}:{i}"))).unwrap();
            }
        };
        let (mut batched, _) = driver_for(models::ixgbe());
        let (mut single, _) = driver_for(models::ixgbe());
        assert!(!batched.iface.plan.hw.is_empty());
        let mut batch = batched.make_batch(32);
        // An honest round first, so the rows the column loads skip hold
        // another packet's values.
        feed(&mut batched, "full");
        feed(&mut single, "full");
        assert_eq!(batched.poll_batch_into(&mut batch), 32);
        assert_eq!(single.poll_batch(32).len(), 32);
        feed(&mut batched, "short");
        feed(&mut single, "short");
        batched.set_telemetry_enabled(true);
        assert_eq!(batched.poll_batch_into(&mut batch), 32);
        let singles = single.poll_batch(32);
        assert_eq!(singles.len(), 32);
        for (pkt, one) in singles.iter().enumerate() {
            assert_eq!(batch.frame(pkt), &one.frame[..]);
            for (field, (_, want)) in one.meta.iter().enumerate() {
                assert_eq!(batch.value_at(field, pkt), *want, "field {field} of {pkt}");
            }
        }
        let expected = batched.iface.validator().expected_len as u64;
        let traced: Vec<(u64, u64)> = batched
            .telemetry()
            .trace
            .events()
            .into_iter()
            .filter(|e| e.kind == TraceKind::Truncated)
            .map(|e| (e.a, e.b))
            .collect();
        let device: Vec<(u64, u64)> = SHORT
            .iter()
            .map(|&pkt| {
                (
                    batched.completion(&batch, pkt).unwrap().len() as u64,
                    expected,
                )
            })
            .collect();
        assert_eq!(traced, device, "the lengths the device wrote");
        assert!(device.iter().all(|(got, want)| got < want));
        // The field mix counts the 29 full-length rows as trusted and
        // the three short ones as degraded.
        let plan = &batched.iface.plan;
        let tel = batched.telemetry();
        assert_eq!(tel.fields_hw, (29 * plan.hw.len()) as u64);
        assert_eq!(
            tel.fields_sw,
            (29 * plan.sw.len() + 3 * plan.degraded.len()) as u64
        );
        for drv in [&batched, &single] {
            let s = drv.validation_stats();
            assert_eq!((s.accepted, s.truncated, s.degraded_packets), (64, 3, 3));
            assert_eq!(drv.health(), QueueHealth::Healthy);
        }
    }

    #[test]
    fn a_structurally_failed_row_counts_each_field_once() {
        use opendesc_nicsim::FaultConfig;
        // Every field of this intent is recomputable, so every delivered
        // row — trusted, re-served, verified or degraded — counts each
        // of its fields once, on the side that produced it.
        for model in [models::ixgbe(), models::qdma_default(), models::e1000e()] {
            let name = model.name.clone();
            let mut reg = SemanticRegistry::with_builtins();
            let intent = [
                names::RSS_HASH,
                names::VLAN_TCI,
                names::PKT_LEN,
                names::PACKET_TYPE,
                names::PAYLOAD_OFFSET,
                names::KVS_KEY_HASH,
                names::IP_CHECKSUM,
            ]
            .iter()
            .fold(Intent::builder("seven"), |b, s| b.want(&mut reg, s))
            .build();
            let compiled = Compiler::default()
                .compile_model(&model, &intent, &mut reg)
                .unwrap();
            let mut drv =
                OpenDescDriver::attach(SimNic::new(model, 256).unwrap(), compiled).unwrap();
            drv.set_telemetry_enabled(true);
            drv.nic
                .set_faults(faults(FaultConfig::builder().corrupt_chance(0.05).seed(3)))
                .unwrap();
            let mut batch = drv.make_batch(32);
            for round in 0..20 {
                for i in 0..32 {
                    drv.deliver(&kvs_frame(&format!("{round}:{i}"))).unwrap();
                }
                while drv.poll_batch_into(&mut batch) > 0 {}
            }
            let s = drv.validation_stats();
            assert!(s.structural_failures > 0, "{name}: no lie caught");
            let tel = drv.telemetry();
            let slots = batch.semantics().len() as u64;
            assert_eq!(tel.fields_hw + tel.fields_sw, s.accepted * slots, "{name}");
        }
    }

    #[test]
    fn a_demotion_is_traced_with_its_evidence_and_the_bucket_level() {
        use opendesc_nicsim::FaultConfig;
        let causes = |drv: &OpenDescDriver| -> Vec<(u64, u64, u64)> {
            let events = drv.telemetry().trace.events();
            events
                .iter()
                .filter(|e| e.kind == TraceKind::HealthCause)
                .map(|e| (e.a, e.b >> 32, e.b & 0xFFFF_FFFF))
                .collect()
        };
        let level_gauge = |drv: &OpenDescDriver| {
            let mut reg = MetricRegistry::default();
            drv.register_metrics(&mut reg, "rx.q0");
            match reg.snapshot().get("rx.q0.health_level") {
                Some(opendesc_telemetry::MetricValue::Gauge(v)) => *v,
                other => panic!("health_level gauge missing: {other:?}"),
            }
        };
        // By rate: every completion replayed. Seven discards are
        // counted, not traced; the eighth fills the bucket.
        let (mut drv, _) = driver_for(models::e1000e());
        drv.set_telemetry_enabled(true);
        drv.nic
            .set_faults(faults(FaultConfig::builder().duplicate_chance(1.0)))
            .unwrap();
        for i in 0..8 {
            assert_eq!(causes(&drv), [], "after {i} replays");
            assert_eq!(drv.health(), QueueHealth::Healthy);
            drv.deliver(&kvs_frame("dup")).unwrap();
            while drv.poll().is_some() {}
        }
        let (_, threshold) = drv.health_level();
        assert_eq!(
            causes(&drv),
            [(
                Evidence::Duplicate.code(),
                threshold as u64,
                threshold as u64
            )]
        );
        assert_eq!(drv.health(), QueueHealth::Degraded);
        assert_eq!(level_gauge(&drv), threshold as f64);
        let events = drv.telemetry().trace.events();
        let at = |kind| events.iter().rposition(|e| e.kind == kind).unwrap();
        assert!(at(TraceKind::HealthCause) < at(TraceKind::HealthTransition));

        // By a lie: at once, whatever the level.
        let (mut drv, _) = driver_for(models::e1000e());
        drv.set_telemetry_enabled(true);
        drv.nic
            .set_faults(faults(FaultConfig::builder().corrupt_chance(1.0).seed(31)))
            .unwrap();
        while causes(&drv).is_empty() {
            assert_eq!(drv.health(), QueueHealth::Healthy);
            drv.deliver(&kvs_frame("lie")).unwrap();
            drv.poll().unwrap();
        }
        assert_eq!(
            causes(&drv),
            [(Evidence::FieldCheck.code(), 0, threshold as u64)]
        );
        assert_eq!(drv.health(), QueueHealth::Degraded);
        assert_eq!(drv.validation_stats().structural_failures, 1);
    }

    #[test]
    fn set_health_config_keeps_state_and_counters() {
        use opendesc_nicsim::FaultConfig;
        let (mut drv, _) = driver_for(models::e1000e());
        drv.set_validation_mode(ValidationMode::Full);
        drv.nic
            .set_faults(faults(FaultConfig::builder().corrupt_chance(1.0).seed(13)))
            .unwrap();
        for i in 0..20 {
            drv.deliver(&kvs_frame(&format!("lie:{i}"))).unwrap();
            drv.poll().unwrap();
        }
        assert_eq!(drv.health(), QueueHealth::Degraded);
        let moves = drv.health_transitions();
        assert!(moves > 0);
        drv.set_health_config(HealthConfig {
            degraded_clean: 2,
            recovering_clean: 2,
        });
        assert_eq!(drv.health(), QueueHealth::Degraded, "reconfiguring healed");
        assert_eq!(drv.health_transitions(), moves);
        // The new thresholds are the ones in force.
        drv.nic.set_faults(FaultConfig::default()).unwrap();
        for i in 0..4 {
            drv.deliver(&kvs_frame(&format!("well:{i}"))).unwrap();
            drv.poll().unwrap();
        }
        assert_eq!(drv.health(), QueueHealth::Healthy);
        assert_eq!(drv.health_transitions(), moves + 2);
    }

    #[test]
    fn set_watchdog_config_keeps_the_ledger() {
        use opendesc_nicsim::FaultConfig;
        let (mut drv, _) = driver_for(models::e1000e());
        drv.nic
            .set_faults(faults(FaultConfig::builder().doorbell_loss_chance(1.0)))
            .unwrap();
        drv.deliver(&kvs_frame("hidden:0")).unwrap();
        while drv.poll().is_none() {}
        assert_eq!(drv.watchdog_resets(), 1);
        // One frame outstanding when the thresholds change.
        drv.deliver(&kvs_frame("hidden:1")).unwrap();
        assert_eq!(drv.in_flight(), 1);
        drv.set_watchdog_config(WatchdogConfig {
            stall_polls: 1,
            max_backoff_shift: 0,
        });
        assert_eq!(drv.watchdog_resets(), 1, "reconfiguring forgot a reset");
        assert_eq!(drv.in_flight(), 1, "reconfiguring forgot a frame");
        // The new threshold is the one in force: the first empty poll
        // re-arms the ring and serves the hidden completion.
        assert!(drv.poll().is_some());
        assert_eq!(drv.watchdog_resets(), 2);
    }

    #[test]
    fn lost_doorbell_recovers_via_watchdog_reset() {
        use opendesc_nicsim::FaultConfig;
        let (mut drv, reg) = driver_for(models::e1000e());
        drv.nic
            .set_faults(faults(
                FaultConfig::builder().doorbell_loss_chance(1.0).seed(9),
            ))
            .unwrap();
        drv.deliver(&kvs_frame("lost:key")).unwrap();
        // The completion exists but was never published; empty polls
        // accumulate until the watchdog trips (default: 3) and the
        // reset/re-arm republishes it within the same poll call.
        let mut polls = 0;
        let pkt = loop {
            polls += 1;
            assert!(polls <= 8, "watchdog never recovered the queue");
            if let Some(p) = drv.poll() {
                break p;
            }
        };
        assert_eq!(pkt.get(reg.id(names::VLAN_TCI).unwrap()), Some(0x0123));
        assert_eq!(drv.watchdog_resets(), 1);
        assert_eq!(drv.nic.stats.resets, 1);
    }

    #[test]
    fn full_mode_repairs_corrupted_hardware_fields() {
        use opendesc_nicsim::FaultConfig;
        let (mut drv, _) = driver_for(models::e1000e());
        drv.set_validation_mode(crate::robust::ValidationMode::Full);
        drv.nic
            .set_faults(faults(FaultConfig::builder().corrupt_chance(1.0).seed(13)))
            .unwrap();
        // Reference values from an honest driver seeing the same frames.
        let (mut clean, _) = driver_for(models::e1000e());
        for i in 0..20 {
            let f = kvs_frame(&format!("fix:{i}"));
            drv.deliver(&f).unwrap();
            clean.deliver(&f).unwrap();
            let got = drv.poll().unwrap();
            let want = clean.poll().unwrap();
            assert_eq!(got.meta, want.meta, "packet {i} survived corruption wrong");
        }
        assert!(
            drv.validation_stats().repaired_fields > 0,
            "20 corrupted completions should hit at least one checked field"
        );
    }

    #[test]
    fn health_walks_back_to_healthy_after_faults_stop() {
        use crate::robust::{HealthConfig, QueueHealth};
        use opendesc_nicsim::FaultConfig;
        let (mut drv, _) = driver_for(models::e1000e());
        drv.set_health_config(HealthConfig {
            degraded_clean: 2,
            recovering_clean: 2,
        });
        drv.nic
            .set_faults(faults(
                FaultConfig::builder().duplicate_chance(1.0).seed(21),
            ))
            .unwrap();
        // Every completion replayed: a fault rate, not a fault.
        for _ in 0..8 {
            drv.deliver(&kvs_frame("sick")).unwrap();
            drv.poll().unwrap();
            assert!(drv.poll().is_none(), "replay discarded");
        }
        assert_eq!(drv.health(), QueueHealth::Degraded);
        // Faults stop; clean traffic rebuilds trust through Recovering.
        drv.nic.set_faults(FaultConfig::default()).unwrap();
        for i in 0..6 {
            drv.deliver(&kvs_frame(&format!("well:{i}"))).unwrap();
            drv.poll().unwrap();
        }
        assert_eq!(drv.health(), QueueHealth::Healthy);
        let s = drv.validation_stats();
        assert!(s.degraded_packets >= 2, "degraded streak executed software");
    }

    #[test]
    fn batched_poll_runs_the_same_admission_pipeline() {
        use opendesc_nicsim::FaultConfig;
        let (mut drv, reg) = driver_for(models::e1000e());
        drv.nic
            .set_faults(faults(
                FaultConfig::builder().duplicate_chance(1.0).seed(23),
            ))
            .unwrap();
        for i in 0..3 {
            drv.deliver(&kvs_frame(&format!("b:{i}"))).unwrap();
        }
        let mut batch = drv.make_batch(8);
        assert_eq!(drv.poll_batch_into(&mut batch), 3, "replays are discarded");
        assert_eq!(drv.validation_stats().duplicates, 3);
        let vlan = reg.id(names::VLAN_TCI).unwrap();
        for pkt in 0..3 {
            // The originals, from the completions they came with.
            assert_eq!(batch.get(pkt, vlan), Some(0x0123));
        }
    }

    #[test]
    fn structural_failures_are_found_in_every_chunk_of_a_wide_batch() {
        use crate::accessor::AccessorKind;
        use opendesc_nicsim::FaultConfig;
        // 190 packets: three 64-packet passes of the column validator,
        // the last one partial.
        let (mut drv, _) = driver_for(models::e1000e());
        drv.nic
            .set_faults(faults(FaultConfig::builder().corrupt_chance(1.0).seed(31)))
            .unwrap();
        for i in 0..190 {
            drv.deliver(&kvs_frame(&format!("wide:{i}"))).unwrap();
        }
        drv.set_telemetry_enabled(true);
        let mut batch = drv.make_batch(190);
        assert_eq!(drv.poll_batch_into(&mut batch), 190);
        // The oracle, per packet, over the completion the batch holds.
        let iface = Arc::clone(&drv.iface);
        let expected: Vec<u64> = (0..190)
            .filter(|&pkt| {
                let read = |i: usize| {
                    let a = &iface.accessors.accessors[i];
                    let cmpt = drv.completion(&batch, pkt).unwrap();
                    (a.kind == AccessorKind::Hardware).then(|| a.read(cmpt))
                };
                let (failed, _) = iface
                    .validator()
                    .check_values_all(batch.frame(pkt).len(), read);
                failed.is_some()
            })
            .map(|pkt| pkt as u64)
            .collect();
        for chunk in [0..64, 64..128, 128..190] {
            assert!(
                expected.iter().any(|p| chunk.contains(p)),
                "no corrupted checked field in packets {chunk:?}: pick another seed"
            );
        }
        let traced: Vec<u64> = drv
            .telemetry()
            .trace
            .events()
            .into_iter()
            .filter(|e| e.kind == TraceKind::StructuralFailure)
            .map(|e| e.a)
            .collect();
        assert_eq!(traced, expected);
        let s = drv.validation_stats();
        assert_eq!(s.structural_failures, expected.len() as u64);
        assert_eq!(s.degraded_packets, expected.len() as u64);
        assert_eq!(s.accepted, 190);
    }

    /// A four-slot batch holding two packets, and the driver that
    /// polled it. Each accessor states its bounds once (`[..len]`, then
    /// `[pkt]`) so an inlined loop can hoist them; the `should_panic`
    /// tests below pin that the check is still there, for `pkt >= len`
    /// within once-filled capacity and for `field >= semantics().len()`.
    fn two_of_four() -> (OpenDescDriver, RxBatch) {
        let (mut drv, _) = driver_for(models::e1000e());
        let mut batch = drv.make_batch(4);
        for round in 0..2 {
            for i in 0..(4 - 2 * round) {
                drv.deliver(&kvs_frame(&format!("edge:{i}"))).unwrap();
            }
            assert_eq!(drv.poll_batch_into(&mut batch), 4 - 2 * round);
        }
        assert!(batch.value_at(batch.semantics().len() - 1, 1).is_some());
        (drv, batch)
    }

    #[test]
    #[should_panic]
    fn value_at_past_the_last_poll_panics() {
        two_of_four().1.value_at(0, 2);
    }

    #[test]
    #[should_panic]
    fn value_at_past_the_last_field_panics() {
        let (_, batch) = two_of_four();
        batch.value_at(batch.semantics().len(), 0);
    }

    #[test]
    #[should_panic]
    fn value_at_of_a_field_that_wraps_into_another_column_panics() {
        // `field * cap + pkt` overflows to column 1's storage.
        two_of_four().1.value_at(usize::MAX / 4 + 2, 0);
    }

    #[test]
    #[should_panic]
    fn frame_past_the_last_poll_panics() {
        two_of_four().1.frame(2);
    }

    #[test]
    #[should_panic]
    fn completion_past_the_last_poll_panics() {
        let (drv, batch) = two_of_four();
        drv.completion(&batch, 2);
    }

    #[test]
    #[should_panic]
    fn rss_hint_past_the_last_poll_panics() {
        two_of_four().1.rss_hint(2);
    }

    #[test]
    fn a_completion_reads_until_the_device_writes_over_its_slot() {
        // Four records read in place; then 253 more completions on the
        // 256-slot ring write over the first record's slot only.
        let (mut drv, _) = driver_for(models::e1000e());
        let frames: Vec<_> = (0..4).map(|i| kvs_frame(&format!("slot:{i}"))).collect();
        let mut twin = SimNic::new(models::e1000e(), 256).unwrap();
        twin.configure(drv.nic.context().clone()).unwrap();
        let mut batch = drv.make_batch(4);
        for f in &frames {
            drv.deliver(f).unwrap();
            twin.deliver(f).unwrap();
        }
        assert_eq!(drv.poll_batch_into(&mut batch), 4);
        for pkt in 0..4 {
            let (_, want) = twin.receive().unwrap();
            assert_eq!(drv.completion(&batch, pkt), Some(&want[..]));
        }
        let ring = drv.nic.cq.capacity();
        for i in 0..ring - 3 {
            drv.deliver(&kvs_frame(&format!("over:{i}"))).unwrap();
        }
        assert_eq!(drv.completion(&batch, 0), None, "written over");
        for pkt in 1..4 {
            assert!(drv.completion(&batch, pkt).is_some(), "row {pkt}");
        }
        drv.deliver(&kvs_frame("one more")).unwrap();
        assert_eq!(drv.completion(&batch, 1), None);
        // Values already polled stay in the batch's columns.
        assert!(batch.value_at(0, 0).is_some());
    }

    #[test]
    fn poll_batch_respects_available() {
        let (mut drv, _) = driver_for(models::mlx5());
        for i in 0..5 {
            drv.deliver(&kvs_frame(&format!("k{i}"))).unwrap();
        }
        assert_eq!(drv.poll_batch(3).len(), 3);
        assert_eq!(drv.poll_batch(10).len(), 2);
    }
}
