//! The sharded engine: one worker thread per device queue pair, no locks
//! on the per-packet path.
//!
//! Ownership model — the engine is structured so that parallelism needs
//! no synchronization at all on the datapath:
//!
//! * each [`EngineWorker`] *owns* its `SimNic` queue, its `OpenDescDriver`
//!   (with its private `SoftNic` shim state) and its recycled [`RxBatch`];
//!   built with a TX intent, it also owns a TX half on the same `SimNic`
//!   ([`TxQueue`], [`TxBatch`], rewrite scratch, verdict) — nothing
//!   per-packet is shared and the RX→TX path never crosses a lock;
//! * the compiled artifact is shared read-only as `Arc<CompiledRx>` —
//!   one compilation serves every queue with the same intent, and the
//!   §3 different-intents case gives each queue its own artifact from
//!   the same [`PlanCache`];
//! * workers report into [`CachePadded`] stat cells they exclusively
//!   `&mut`-own while their thread runs; the coordinator aggregates the
//!   cells only after joining — counters never bounce cache lines and
//!   never need atomics.
//!
//! The engine runs three ways, all over one pump — a worker's *feed*
//! step (wire side, untimed) and its *drain* loop (the only poller here;
//! each batch goes to the caller's sink, then through a TX half's
//! verdict and out in one doorbell): [`run`](ShardedEngine::run) and
//! [`run_collect`](ShardedEngine::run_collect) pump one round on scoped
//! threads — queues are borrowed in and handed back without
//! `Arc<Mutex<…>>` wrapping — and
//! [`run_intervals`](ShardedEngine::run_intervals) is the in-order
//! control loop every measured figure comes from. Timing is measured per
//! worker around the drain only (the host datapath, minus time stalled
//! on a full TX ring), so aggregate throughput — total packets over the
//! busiest worker's busy time — is the parallel drain's wall clock given
//! a core per worker, and an honest per-core figure on fewer cores.

use crate::cache::{AttachError, CompiledRx, PlanCache};
use crate::compiler::CompileError;
use crate::datapath::{health_rank, OpenDescDriver, RxBatch};
use crate::evolve::{FlipProgress, FlipRecord, RelayoutRequest, FLIP_POLL_BUDGET};
use crate::intent::Intent;
use crate::rebalance::{RebalanceConfig, RebalanceStats, Rebalancer};
use crate::robust::{QueueHealth, ValidationStats};
use crate::tx::{CompiledTxPlan, TxBatch, TxQueue, TxRequest};
use opendesc_ir::SemanticRegistry;
use opendesc_nicsim::models::NicModel;
use opendesc_nicsim::multiqueue::{CachePadded, SteerPolicy, Steerer, RETA_SIZE};
use opendesc_nicsim::nic::{NicError, SimNic};
use opendesc_nicsim::pktgen::{PktGen, ShardFrame, Workload};
use opendesc_softnic::wire::ParsedFrame;
use opendesc_telemetry::{MetricRegistry, Snapshot};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// An owned `(frame, metadata)` pair drained for equivalence checking;
/// metadata is in accessor order.
pub type DrainedPacket = (Vec<u8>, Vec<Option<u128>>);

/// Where a run's emitted wire frames go: retained (`Some`, the
/// equivalence-test view) or only counted (`None`).
type Wire<'a> = Option<&'a mut Vec<Vec<u8>>>;

/// Sharded-engine setup failure.
#[derive(Debug)]
pub enum ShardError {
    Compile(CompileError),
    Nic(NicError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Compile(e) => write!(f, "compile: {e}"),
            ShardError::Nic(e) => write!(f, "nic: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<CompileError> for ShardError {
    fn from(e: CompileError) -> Self {
        ShardError::Compile(e)
    }
}

impl From<NicError> for ShardError {
    fn from(e: NicError) -> Self {
        ShardError::Nic(e)
    }
}

impl From<AttachError> for ShardError {
    fn from(e: AttachError) -> Self {
        match e {
            AttachError::Nic(e) => ShardError::Nic(e),
            // The same report the cache gives for a plan it will not serve.
            AttachError::Unlowerable(e) => {
                ShardError::Compile(CompileError::Lowering(e.to_string()))
            }
        }
    }
}

/// Counters one worker owns; folded steering diagnostics included so the
/// engine adds no shared counters anywhere.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Packets drained through the compiled datapath.
    pub packets: u64,
    /// Batched polls that returned at least one packet.
    pub batches: u64,
    /// Frames steered/delivered to this worker's queue.
    pub steered: u64,
    /// Nanoseconds spent inside drain sections (host datapath only: the
    /// wire-side feed, the device's TX consumption and time stalled on a
    /// full TX ring are excluded).
    pub busy_ns: u64,
    /// Validator counter deltas for this round (since the last
    /// `reset_stats`).
    pub validation: ValidationStats,
    /// Watchdog resets requested this round.
    pub watchdog_resets: u64,
    /// Queue health at the time the stats were read.
    pub health: QueueHealth,
}

/// Per-round transmit counters one worker's TX half owns.
#[derive(Debug, Clone, Copy, Default)]
pub struct TxWorkerStats {
    /// Packets submitted for transmission (including rewrites).
    pub forwarded: u64,
    /// Forwards that replaced the frame via the rewrite scratch.
    pub rewritten: u64,
    /// Packets the verdict consumed host-side.
    pub dropped: u64,
    /// Frames the device actually emitted on the wire.
    pub wire_frames: u64,
}

/// Per-packet forward decision made by the engine's verdict function.
#[derive(Debug, Clone, Copy)]
pub enum TxVerdict {
    /// Consume the packet host-side; transmit nothing.
    Drop,
    /// Transmit the received frame unchanged, with these offloads.
    Forward(TxRequest),
    /// Transmit the bytes the verdict wrote into its rewrite scratch
    /// (the reply-generation case, e.g. serving a KVS GET).
    Rewrite(TxRequest),
}

/// The forward decision function: sees the drained batch and a packet
/// index, and may build a replacement frame into `rewrite` (a worker-
/// owned scratch buffer reused across packets) before returning
/// [`TxVerdict::Rewrite`].
pub type ForwardFn = dyn Fn(&RxBatch, usize, &mut Vec<u8>) -> TxVerdict + Send + Sync;

/// What a worker of a full-duplex engine adds: a batched [`TxQueue`] on
/// the worker's own `SimNic` (one device queue pair), the recycled
/// [`TxBatch`] and rewrite scratch the forward path reuses, its counters,
/// the TX plan a relayout left pending, and the verdict.
struct TxHalf {
    txq: TxQueue,
    txb: TxBatch,
    rewrite: Vec<u8>,
    stats: CachePadded<TxWorkerStats>,
    /// TX plan to swap to when the pending RX flip commits (see
    /// [`ShardedEngine::relayout`]); `None` outside a relayout.
    pending: Option<Arc<CompiledTxPlan>>,
    forward: Arc<ForwardFn>,
}

impl TxHalf {
    /// Ask the verdict about every packet of `batch` and submit the
    /// survivors — one doorbell per batch. Returns the nanoseconds spent
    /// stalled on a full ring, which the caller takes off the host clock.
    fn forward(&mut self, batch: &RxBatch, nic: &mut SimNic, mut wire: Wire<'_>) -> u64 {
        self.txb.clear();
        let t = &mut self.stats.value;
        for pkt in 0..batch.len() {
            let (frame, req, rewritten) = match (self.forward)(batch, pkt, &mut self.rewrite) {
                TxVerdict::Drop => {
                    t.dropped += 1;
                    continue;
                }
                TxVerdict::Forward(req) => (batch.frame(pkt), req, 0),
                TxVerdict::Rewrite(req) => (self.rewrite.as_slice(), req, 1),
            };
            if self.txb.push(frame, req) {
                t.forwarded += 1;
                t.rewritten += rewritten;
            } else {
                t.dropped += 1;
            }
        }
        let (mut from, mut stalled_ns) = (0, 0u64);
        while from < self.txb.len() {
            from += self
                .txq
                .submit_from(nic, &mut self.txb, from)
                .expect("batch matches the queue's slots; descriptor fits the ring's");
            if from < self.txb.len() {
                // A full ring (the only reason a submit comes up short):
                // the device consumes, then the remainder is resubmitted.
                let t = Instant::now();
                self.drain_device(nic, wire.as_deref_mut());
                stalled_ns += t.elapsed().as_nanos() as u64;
            }
        }
        stalled_ns
    }

    /// Let the device consume what the TX ring holds, counting (or
    /// retaining into `wire`) the frames it emits.
    fn drain_device(&mut self, nic: &mut SimNic, wire: Wire<'_>) {
        let t = &mut self.stats.value;
        match wire {
            Some(out) => {
                let frames = nic.process_tx();
                t.wire_frames += frames.len() as u64;
                out.extend(frames);
            }
            None => t.wire_frames += nic.process_tx_drain(),
        }
    }
}

/// One queue pair: the queue's driver, its recycled batch and padded
/// stat cell, and — only when the engine was built with a TX intent — its
/// TX half.
pub struct EngineWorker {
    /// Queue index this worker owns.
    pub queue: usize,
    drv: OpenDescDriver,
    batch: RxBatch,
    stats: CachePadded<WorkerStats>,
    /// Validator/watchdog baselines at the last `reset_stats`, so each
    /// round reports deltas over the driver's cumulative counters.
    vbase: ValidationStats,
    rbase: u64,
    tx: Option<TxHalf>,
}

impl EngineWorker {
    /// The per-queue builder both engine constructors share: the
    /// intent's artifact out of `cache`, one device queue booted from the
    /// model's checked contract, a driver attached to it. RX only; a
    /// full-duplex engine adds the TX half afterwards.
    fn attach(
        cache: &PlanCache,
        model: &NicModel,
        intent: &Intent,
        reg: &mut SemanticRegistry,
        queue: usize,
        ring: usize,
        batch_cap: usize,
    ) -> Result<EngineWorker, ShardError> {
        let rx = cache.get_or_compile(model, intent, reg)?;
        let nic = SimNic::with_contract(model.clone(), cache.contract(model)?, ring)?;
        let mut drv = OpenDescDriver::attach_shared(nic, rx)?;
        drv.set_queue_index(queue as u16);
        let batch = drv.make_batch(batch_cap);
        Ok(EngineWorker {
            queue,
            drv,
            batch,
            stats: CachePadded::default(),
            vbase: ValidationStats::default(),
            rbase: 0,
            tx: None,
        })
    }

    /// The artifact this worker's driver executes.
    pub fn artifact(&self) -> &Arc<CompiledRx> {
        &self.drv.iface
    }

    /// This worker's counters, with validator deltas and current health
    /// folded in.
    pub fn stats(&self) -> WorkerStats {
        let mut s = self.stats.value;
        s.validation = self.drv.validation_stats().since(&self.vbase);
        s.watchdog_resets = self.drv.watchdog_resets() - self.rbase;
        s.health = self.drv.health();
        s
    }

    /// This worker's transmit counters for the current round; all zero
    /// on an RX-only engine.
    pub fn tx_stats(&self) -> TxWorkerStats {
        self.tx.as_ref().map(|t| t.stats.value).unwrap_or_default()
    }

    /// This worker's queue health right now.
    pub fn health(&self) -> QueueHealth {
        self.drv.health()
    }

    fn reset_stats(&mut self) {
        self.stats.value = WorkerStats::default();
        self.vbase = self.drv.validation_stats();
        self.rbase = self.drv.watchdog_resets();
        if let Some(tx) = &mut self.tx {
            tx.stats.value = TxWorkerStats::default();
        }
    }

    /// Wire side of one chunk: steer-stage state (parse + hash) rides
    /// along via `deliver_steered`. Untimed. A chunk is at most one
    /// batch capacity, so the completion ring never overflows.
    fn feed(&mut self, chunk: &[ShardFrame]) {
        for sf in chunk {
            let parsed = ParsedFrame::parse(&sf.bytes);
            // Through the driver wrapper so the watchdog sees the fed
            // count (its outstanding-work heartbeat).
            self.drv
                .deliver_steered(&sf.bytes, parsed.as_ref(), sf.rss)
                .expect("configured queue accepts steered frames");
            self.stats.value.steered += 1;
        }
    }

    /// The drain loop every path shares: poll until the queue reports
    /// nothing published (or `max_polls` are spent), handing each batch
    /// to `sink`, then to the TX half. Only this section accrues
    /// `busy_ns`, less time stalled on a full TX ring; the device
    /// consumes what was submitted off the clock. An empty pass feeds
    /// the watchdog's stall detector, so repeated drains are how a wedged
    /// queue (hang, lost doorbell) gets reset and its completions
    /// republished.
    fn drain(&mut self, max_polls: u32, mut sink: impl FnMut(&RxBatch), mut wire: Wire<'_>) {
        let t0 = Instant::now();
        let mut stalled_ns = 0u64;
        for _ in 0..max_polls {
            let n = self.drv.poll_batch_into(&mut self.batch);
            if n == 0 {
                break;
            }
            self.stats.value.packets += n as u64;
            self.stats.value.batches += 1;
            sink(&self.batch);
            if let Some(tx) = &mut self.tx {
                stalled_ns += tx.forward(&self.batch, &mut self.drv.nic, wire.as_deref_mut());
            }
        }
        let busy = t0.elapsed().as_nanos() as u64;
        self.stats.value.busy_ns += busy.saturating_sub(stalled_ns);
        if let Some(tx) = &mut self.tx {
            tx.drain_device(&mut self.drv.nic, wire);
        }
    }

    /// The one pump: feed `pool` into the owned queue in batch-capacity
    /// chunks and drain each (see [`drain`](EngineWorker::drain)).
    fn pump(&mut self, pool: &[ShardFrame], mut sink: impl FnMut(&RxBatch), mut wire: Wire<'_>) {
        for chunk in pool.chunks(self.batch.capacity().max(1)) {
            self.feed(chunk);
            self.drain(u32::MAX, &mut sink, wire.as_deref_mut());
        }
    }

    /// Frames fed to this queue and not yet drained (see
    /// [`OpenDescDriver::in_flight`]). Zero = quiesced.
    pub fn in_flight(&self) -> u64 {
        self.drv.in_flight()
    }

    /// Ask this worker's queue to flip onto `new` (see
    /// [`crate::evolve`]). Returns where the request landed: `Draining`
    /// for a healthy queue, `Deferred` for a `Degraded` one.
    pub fn request_relayout(&mut self, new: Arc<CompiledRx>) -> FlipProgress {
        self.drv.request_relayout(new)
    }

    /// The one relayout step: drain in-flight work under the *outgoing*
    /// plan (up to [`FLIP_POLL_BUDGET`] polls, then force-commit with the
    /// stragglers forgiven) and commit; on commit a TX half swaps onto the plan
    /// [`relayout`](ShardedEngine::relayout) left pending, so both
    /// directions flip on the RX commit edge. Drained batches go to
    /// `sink` and the TX half — delivered packets, not casualties. No
    /// flip pending is `(Idle, 0)`; a parked (`Deferred`) one returns at
    /// once. Returns the final progress and the drain polls spent.
    fn drive_flip(&mut self, mut sink: impl FnMut(&RxBatch)) -> (FlipProgress, u32) {
        let mut polls = 0u32;
        let prog = loop {
            match self.drv.advance_relayout(polls as u64) {
                FlipProgress::Draining if polls >= FLIP_POLL_BUDGET => {
                    break self.drv.force_relayout(polls as u64);
                }
                FlipProgress::Draining => {
                    self.drain(1, &mut sink, None);
                    polls += 1;
                }
                prog => break prog,
            }
        };
        if let (FlipProgress::Committed(_), Some(tx)) = (prog, &mut self.tx) {
            if let Some(plan) = tx.pending.take() {
                tx.txq.set_plan(&mut self.drv.nic, plan);
            }
        }
        (prog, polls)
    }

    /// Read access to the owned driver (telemetry/inspection path).
    pub fn driver(&self) -> &OpenDescDriver {
        &self.drv
    }

    /// Mutable access to the owned driver (test/setup path).
    pub fn driver_mut(&mut self) -> &mut OpenDescDriver {
        &mut self.drv
    }

    /// Register this worker's device, driver, validator, watchdog and
    /// softnic counters under its own `rx.q{N}` scope and again under
    /// `rx.engine`, where the registry's additive folding produces
    /// engine-wide totals; a TX half does the same under `tx.q{N}` and
    /// `tx.engine`.
    fn register_into(&self, reg: &mut MetricRegistry) {
        let scope = format!("rx.q{}", self.queue);
        self.drv.register_metrics(reg, &scope);
        self.drv.register_metrics(reg, "rx.engine");
        let s = &self.stats.value;
        for (name, v) in [
            ("packets", s.packets),
            ("batches", s.batches),
            ("steered", s.steered),
            ("busy_ns", s.busy_ns),
        ] {
            reg.counter(&format!("{scope}.worker.{name}"), v);
            reg.counter(&format!("rx.engine.worker.{name}"), v);
        }
        let Some(tx) = &self.tx else { return };
        let scope = format!("tx.q{}", self.queue);
        let (q, t) = (&tx.txq.stats, &tx.stats.value);
        for (name, v) in [
            ("frames", q.frames),
            ("doorbells", q.doorbells),
            ("sw_fixups", q.sw_fixups),
            ("stalls", q.stalls),
            ("worker.forwarded", t.forwarded),
            ("worker.rewritten", t.rewritten),
            ("worker.dropped", t.dropped),
            ("worker.wire_frames", t.wire_frames),
        ] {
            reg.counter(&format!("{scope}.{name}"), v);
            reg.counter(&format!("tx.engine.{name}"), v);
        }
    }
}

// Workers move into scoped threads; the artifact they share must be
// readable from all of them.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<EngineWorker>();
    assert_send::<WorkerStats>();
    assert_send_sync::<Arc<CompiledRx>>();
};

/// Aggregated view of one round (or one interval-loop run). An RX-only
/// engine's TX cells are all zero.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Per-worker RX counters, in queue order.
    pub rx: Vec<WorkerStats>,
    /// Per-worker TX counters, in queue order.
    pub tx: Vec<TxWorkerStats>,
}

impl EngineReport {
    /// Packets drained through the RX datapath.
    pub fn total_rx_packets(&self) -> u64 {
        self.rx.iter().map(|w| w.packets).sum()
    }

    /// Packets submitted for transmission across all workers.
    pub fn total_forwarded(&self) -> u64 {
        self.tx.iter().map(|t| t.forwarded).sum()
    }

    /// Packets consumed host-side across all workers.
    pub fn total_dropped(&self) -> u64 {
        self.tx.iter().map(|t| t.dropped).sum()
    }

    /// Frames the devices actually emitted.
    pub fn total_wire_frames(&self) -> u64 {
        self.tx.iter().map(|t| t.wire_frames).sum()
    }

    /// Busy time of the busiest worker — the parallel round's critical
    /// path (its wall clock given one core per worker).
    pub fn max_busy_ns(&self) -> u64 {
        self.rx.iter().map(|w| w.busy_ns).max().unwrap_or(0)
    }

    /// Total host datapath work across workers (one core's worth).
    pub fn sum_busy_ns(&self) -> u64 {
        self.rx.iter().map(|w| w.busy_ns).sum()
    }

    /// Aggregate receive throughput: drained over the critical path.
    pub fn aggregate_mpps(&self) -> f64 {
        self.over_critical_path(self.total_rx_packets())
    }

    /// Aggregate forwarding throughput: forwarded over the critical path.
    pub fn aggregate_forward_mpps(&self) -> f64 {
        self.over_critical_path(self.total_forwarded())
    }

    fn over_critical_path(&self, packets: u64) -> f64 {
        match self.max_busy_ns() {
            0 => 0.0,
            ns => packets as f64 * 1e3 / ns as f64,
        }
    }
}

/// The coordinator: N queue pairs, one shared steerer, run via scoped
/// threads. Built RX-only ([`with_intents`](ShardedEngine::with_intents))
/// or full duplex ([`new_uniform`](ShardedEngine::new_uniform)); the same
/// run loops, relayout driver and snapshot serve both.
pub struct ShardedEngine {
    workers: Vec<EngineWorker>,
    steerer: Steerer,
}

impl ShardedEngine {
    /// Full-duplex uniform engine: every queue shares one
    /// `Arc<CompiledRx>` and one `Arc<CompiledTxPlan>` out of `cache` —
    /// two compilations total for N queue pairs — and every drained
    /// packet goes through `forward`.
    #[allow(clippy::too_many_arguments)]
    pub fn new_uniform(
        cache: &PlanCache,
        model: &NicModel,
        rx_intent: &Intent,
        tx_intent: &Intent,
        reg: &mut SemanticRegistry,
        queues: usize,
        ring: usize,
        policy: SteerPolicy,
        batch_cap: usize,
        max_frame: usize,
        forward: Arc<ForwardFn>,
    ) -> Result<ShardedEngine, ShardError> {
        let intents = vec![rx_intent.clone(); queues];
        let mut eng = Self::with_intents(cache, model, &intents, reg, ring, policy, batch_cap)?;
        for w in &mut eng.workers {
            let plan = cache.get_or_compile_tx(model, tx_intent, reg)?;
            w.tx = Some(TxHalf {
                txq: TxQueue::attach(&mut w.drv.nic, plan, max_frame),
                txb: TxBatch::new(batch_cap, max_frame),
                rewrite: Vec::new(),
                stats: CachePadded::default(),
                pending: None,
                forward: Arc::clone(&forward),
            });
        }
        Ok(eng)
    }

    /// RX-only engine, one queue per intent — the paper's §3 scenario:
    /// each queue gets its intent's artifact from the cache (identical
    /// intents share one compilation; a uniform engine passes
    /// `&vec![intent; n]`). Zero intents is refused, not asserted.
    pub fn with_intents(
        cache: &PlanCache,
        model: &NicModel,
        intents: &[Intent],
        reg: &mut SemanticRegistry,
        ring: usize,
        policy: SteerPolicy,
        batch_cap: usize,
    ) -> Result<ShardedEngine, ShardError> {
        if intents.is_empty() {
            let why = "an engine needs at least one queue".to_string();
            return Err(ShardError::Nic(NicError::BadConfig(why)));
        }
        let workers = (intents.iter().enumerate())
            .map(|(q, i)| EngineWorker::attach(cache, model, i, reg, q, ring, batch_cap))
            .collect::<Result<_, _>>()?;
        Ok(ShardedEngine {
            workers,
            steerer: Steerer::new(policy, intents.len()),
        })
    }

    /// Number of workers (= queue pairs).
    pub fn queues(&self) -> usize {
        self.workers.len()
    }

    /// The shared steering state.
    pub fn steerer(&self) -> &Steerer {
        &self.steerer
    }

    /// Mutable steering state — the rebalancer's RETA write port. The
    /// per-packet path is untouched by rewrites: steering stays a mask +
    /// table load, only the table cell changes.
    pub fn steerer_mut(&mut self) -> &mut Steerer {
        &mut self.steerer
    }

    /// The workers, for direct inspection.
    pub fn workers(&self) -> &[EngineWorker] {
        &self.workers
    }

    pub fn workers_mut(&mut self) -> &mut [EngineWorker] {
        &mut self.workers
    }

    /// One round on scoped threads: every worker resets its stats, runs
    /// `work` on its pool, and reports its RX and TX cells; what `work`
    /// returns comes back per worker, in queue order.
    fn round<R: Send>(
        &mut self,
        pools: &[Vec<ShardFrame>],
        work: impl Fn(&mut EngineWorker, &[ShardFrame]) -> R + Sync,
    ) -> (EngineReport, Vec<R>) {
        assert_eq!(pools.len(), self.workers.len(), "one pool per worker");
        let cells = on_each_worker(&mut self.workers, |q, w| {
            w.reset_stats();
            let out = work(w, &pools[q]);
            ((w.stats(), w.tx_stats()), out)
        });
        let (cells, outs): (Vec<_>, Vec<R>) = cells.into_iter().unzip();
        let (rx, tx) = cells.into_iter().unzip();
        (EngineReport { rx, tx }, outs)
    }

    /// One parallel round: worker `q` pumps (and, full duplex, forwards)
    /// `pools[q]` on its own scoped thread. The per-packet path inside
    /// each thread touches only worker-owned state; the only joins are
    /// the thread joins. Stats are reset first, so the report describes
    /// exactly this round. A worker that panics unwinds this call with
    /// its own payload (the lowest-numbered one, if several did).
    pub fn run(&mut self, pools: &[Vec<ShardFrame>]) -> EngineReport {
        self.round(pools, |w, pool| w.pump(pool, |_| {}, None)).0
    }

    /// [`run`](ShardedEngine::run) that also keeps, per queue, every
    /// drained `(frame, metadata)` pair and every frame the device
    /// emitted — the equivalence-test view, on the same threads.
    pub fn run_collect(&mut self, pools: &[Vec<ShardFrame>]) -> (EngineReport, Vec<Collected>) {
        self.round(pools, |w, pool| {
            let mut c = Collected::default();
            let rx = &mut c.rx;
            let sink = |b: &RxBatch| {
                rx.extend((0..b.len()).map(|pkt| {
                    let meta = (0..b.semantics().len()).map(|f| b.value_at(f, pkt));
                    (b.frame(pkt).to_vec(), meta.collect())
                }));
            };
            w.pump(pool, sink, Some(&mut c.wire));
            c
        })
    }

    /// Switch poll-cycle telemetry (histograms + trace rings) on or off
    /// for every worker. Off is the default: the hot path then skips
    /// clock reads, histogram records, and trace writes entirely.
    pub fn set_telemetry_enabled(&mut self, on: bool) {
        for w in &mut self.workers {
            w.drv.set_telemetry_enabled(on);
        }
    }

    /// One unified metric snapshot: every worker registers its device,
    /// driver, validator, watchdog, softnic and round counters under
    /// `rx.q{N}` and *again* under `rx.engine`, where additive folding
    /// and histogram merging give engine totals; a full-duplex engine
    /// mirrors it under `tx.q{N}` / `tx.engine`, an RX-only one has no
    /// `tx.` key. Gauges are last-write-wins, so the engine's health
    /// slots are written last, from the *worst* queue: the highest
    /// severity rank and the fullest fault-rate bucket.
    pub fn snapshot(&self) -> Snapshot {
        let mut reg = MetricRegistry::default();
        let queues = self.workers.len() as f64;
        reg.gauge("rx.engine.queues", queues);
        if self.workers.iter().any(|w| w.tx.is_some()) {
            reg.gauge("tx.engine.queues", queues);
        }
        for w in &self.workers {
            w.register_into(&mut reg);
        }
        let (rank, level) = (self.workers.iter())
            .map(|w| (health_rank(w.drv.health()), w.drv.health_level().0))
            .fold((0, 0), |(r, l), (rank, level)| (r.max(rank), l.max(level)));
        reg.gauge("rx.engine.health", rank as f64);
        reg.gauge("rx.engine.health_level", level as f64);
        reg.snapshot()
    }

    /// Every worker's trace ring, oldest-first, as one human-readable
    /// report — the thing a failing test dumps so the poll-cycle
    /// history (doorbells, writebacks, verdicts, health moves) is on
    /// the record.
    pub fn trace_dump(&self) -> String {
        let mut out = String::new();
        for w in &self.workers {
            out.push_str(&w.drv.telemetry().trace.dump());
        }
        out
    }

    /// Every worker's counters as they stand.
    fn report(&self) -> EngineReport {
        EngineReport {
            rx: self.workers.iter().map(EngineWorker::stats).collect(),
            tx: self.workers.iter().map(EngineWorker::tx_stats).collect(),
        }
    }

    /// Live-relayout the whole engine between rounds: every worker
    /// drain-and-flips its RX side onto `rx` (see [`crate::evolve`]) and
    /// a TX half swaps onto `tx` on the RX commit — TX is quiesced
    /// between `run` calls, so it needs no drain of its own (`tx` is
    /// ignored on an RX-only engine). Returns per-queue `(progress,
    /// drain_polls)`; a `Deferred` queue (mid-fault) keeps its request,
    /// TX plan included, and commits on a later call once it recovers.
    pub fn relayout(
        &mut self,
        rx: &Arc<CompiledRx>,
        tx: Option<&Arc<CompiledTxPlan>>,
    ) -> Vec<(FlipProgress, u32)> {
        for w in &mut self.workers {
            w.request_relayout(Arc::clone(rx));
            if let (Some(half), Some(tx)) = (&mut w.tx, tx) {
                half.pending = Some(Arc::clone(tx));
            }
        }
        self.drive_flips(&mut |_, _| {})
    }

    /// One relayout boundary: every worker takes the relayout step
    /// ([`EngineWorker::drive_flip`]), its drained batches going to
    /// `sink` tagged with the queue. Returns per-queue
    /// `(progress, drain_polls)`.
    fn drive_flips(&mut self, sink: &mut impl FnMut(usize, &RxBatch)) -> Vec<(FlipProgress, u32)> {
        (self.workers.iter_mut())
            .map(|w| {
                let q = w.queue;
                w.drive_flip(|b| sink(q, b))
            })
            .collect()
    }

    /// The one control loop: process `total` frames of `wl` in control
    /// intervals of `ctl.interval`. Per interval it generates the frames,
    /// steers them with the *live* RETA (tallying per-bucket arrivals),
    /// hands surplus chunks between pools when `ctl.steal`, and pumps
    /// every worker in turn; then, at the boundary, it rebalances (when
    /// `ctl.rebalance` is set) and relayouts (every request of
    /// `ctl.relayouts` due at this interval, plus every pending flip). A
    /// bounded recovery drain and one last relayout boundary end the run.
    /// [`Control::fixed`] with `ctl.interval >= total` is one plain round.
    ///
    /// Workers pump one after another and generation and steering run
    /// off the clock: with fewer cores than queues, concurrent workers
    /// would time-slice and each one's clock absorb its neighbours'
    /// work, while pumped in turn the aggregate (total packets over the
    /// busiest worker's busy time) is what one core per worker achieves.
    ///
    /// Every drained batch — those a drain-and-flip pulls in included —
    /// goes to `sink`, tagged `(interval, queue)` (a no-op to measure,
    /// [`retain_into`] to check conservation and per-flow order), then to
    /// any TX half.
    pub fn run_intervals(
        &mut self,
        wl: &Workload,
        total: usize,
        ctl: &Control,
        sink: &mut BatchSink<'_>,
    ) -> RunOutcome {
        let nq = self.workers.len();
        for w in &mut self.workers {
            w.reset_stats();
        }
        let mut reb = ctl.rebalance.clone().map(Rebalancer::new);
        let mut seen = vec![(0u64, 0u64); nq];
        let (mut parked, mut flips) = (vec![false; nq], Vec::new());
        let mut gen = PktGen::new(wl.clone());
        let mut pools: Vec<Vec<ShardFrame>> = vec![Vec::new(); nq];
        let mut stolen_chunks = 0u64;
        let mut stream_idx = 0u64;
        let mut remaining = total;
        let mut index = 0u32;
        while remaining > 0 {
            let n = remaining.min(ctl.interval.max(1));
            remaining -= n;
            let mut bucket_pkts = [0u64; RETA_SIZE];
            for p in &mut pools {
                p.clear();
            }
            for _ in 0..n {
                let bytes = gen.next_frame();
                let (queue, rss, bucket) = {
                    let v = self.steerer.steer(stream_idx, &bytes);
                    (v.queue, v.rss, v.bucket)
                };
                stream_idx += 1;
                if let Some(b) = bucket {
                    bucket_pkts[b] += 1;
                }
                pools[queue].push(ShardFrame { bytes, rss });
            }
            // Work stealing, modeled at the same whole-chunk granularity
            // as the parallel path: surplus tail chunks of overloaded
            // pools hand off to the emptiest pools before the pump.
            if ctl.steal {
                let chunk = self.workers[0].batch.capacity().max(1);
                stolen_chunks += steal_surplus_chunks(&mut pools, chunk);
            }
            for (q, (w, pool)) in self.workers.iter_mut().zip(&pools).enumerate() {
                w.pump(pool, |b| sink(index, q, b), None);
            }
            if let Some(reb) = &mut reb {
                self.rebalance(reb, &bucket_pkts, &mut seen);
            }
            self.relayout_boundary(index, &ctl.relayouts, &mut parked, &mut flips, sink);
            index += 1;
        }
        // Recovery drain: a faulted queue (hang, lost doorbell) may end
        // the run with frames in flight. Empty drains feed the watchdog
        // until it resets the ring and the stranded completions drain —
        // bounded, so a genuinely dead queue cannot wedge the loop.
        for _ in 0..64 {
            if self.workers.iter().all(|w| w.in_flight() == 0) {
                break;
            }
            for (q, w) in self.workers.iter_mut().enumerate() {
                w.drain(u32::MAX, |b| sink(index, q, b), None);
            }
        }
        // Final boundary for flips still parked: a queue whose health
        // recovered during the tail traffic can still commit.
        self.relayout_boundary(index, &[], &mut parked, &mut flips, sink);
        RunOutcome {
            report: self.report(),
            rebalance: reb.map(|r| r.stats()),
            stolen_chunks,
            reta: *self.steerer.reta(),
            flips,
            unresolved: (self.workers.iter())
                .filter(|w| w.driver().flip_pending())
                .count(),
        }
    }

    /// Boundary step 1: fold each queue's busy/packet deltas since the
    /// last boundary (`seen` holds the totals then), check quiescence,
    /// and apply the rebalancer's RETA rewrites — after the interval's
    /// drain, so migrations are reorder-free (drain-before-remap;
    /// non-quiesced queues defer their moves).
    fn rebalance(
        &mut self,
        reb: &mut Rebalancer,
        bucket_pkts: &[u64; RETA_SIZE],
        seen: &mut [(u64, u64)],
    ) {
        let nq = self.workers.len();
        let (mut busy, mut pkts, mut quiesced) = (vec![0; nq], vec![0; nq], vec![false; nq]);
        for (q, w) in self.workers.iter().enumerate() {
            let s = &w.stats.value;
            busy[q] = s.busy_ns - seen[q].0;
            pkts[q] = s.packets - seen[q].1;
            seen[q] = (s.busy_ns, s.packets);
            quiesced[q] = w.in_flight() == 0;
        }
        for m in reb.plan(self.steerer.reta(), bucket_pkts, &busy, &pkts, &quiesced) {
            self.steerer.set_reta(m.bucket, m.to);
        }
    }

    /// Boundary step 2: ask every queue to flip onto each request of
    /// `due` scheduled at `interval`, then drive every pending flip —
    /// fresh ones and requests parked on a `Degraded` queue at an earlier
    /// boundary, which commit once health recovers. Each commit is
    /// logged into `flips` with whether its request spent time parked.
    fn relayout_boundary(
        &mut self,
        interval: u32,
        due: &[RelayoutRequest],
        parked: &mut [bool],
        flips: &mut Vec<FlipRecord>,
        sink: &mut BatchSink<'_>,
    ) {
        for req in due.iter().filter(|r| r.at_interval == interval) {
            for w in &mut self.workers {
                if w.request_relayout(Arc::clone(&req.rx)) == FlipProgress::Deferred {
                    parked[w.queue] = true;
                }
            }
        }
        let resolved = self.drive_flips(&mut |q, b| sink(interval, q, b));
        for (queue, (prog, polls)) in resolved.into_iter().enumerate() {
            if let FlipProgress::Committed(generation) = prog {
                flips.push(FlipRecord {
                    interval,
                    queue,
                    polls,
                    generation,
                    was_deferred: std::mem::take(&mut parked[queue]),
                });
            }
        }
    }
}

/// Run `work` once per worker, each on its own scoped thread, and return
/// the results in worker order. Scoped threads borrow the workers and
/// hand them back at the join, which is the only synchronization a
/// round needs. Every thread is joined before a panic moves on: the
/// caller unwinds with the payload of the lowest-numbered worker that
/// panicked, as it would have without threads.
fn on_each_worker<W: Send, R: Send>(
    workers: &mut [W],
    work: impl Fn(usize, &mut W) -> R + Sync,
) -> Vec<R> {
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .enumerate()
            .map(|(q, w)| s.spawn(move || work(q, w)))
            .collect();
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        joined
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    })
}

/// Where [`ShardedEngine::run_intervals`] sends each drained batch:
/// `(interval, queue, batch)`. The measured runs pass a no-op
/// (`&mut |_, _, _| {}`).
pub type BatchSink<'a> = dyn FnMut(u32, usize, &RxBatch) + 'a;

/// The "collect" sink: copy every frame out of the batch as
/// `(interval, queue, frame)`, in drain order.
pub fn retain_into(out: &mut Vec<(u32, usize, Vec<u8>)>) -> impl FnMut(u32, usize, &RxBatch) + '_ {
    move |interval, q, b| out.extend((0..b.len()).map(|pkt| (interval, q, b.frame(pkt).to_vec())))
}

/// What one queue's [`ShardedEngine::run_collect`] round kept.
#[derive(Debug, Clone, Default)]
pub struct Collected {
    /// Every drained `(frame, metadata)` pair, in drain order.
    pub rx: Vec<DrainedPacket>,
    /// Every frame the device emitted (empty on an RX-only engine).
    pub wire: Vec<Vec<u8>>,
}

/// How one [`ShardedEngine::run_intervals`] run is driven.
#[derive(Clone)]
pub struct Control {
    /// Frames per control interval — the boundary cadence.
    pub interval: usize,
    /// The closed RETA loop; `None` freezes the RETA (the static arm).
    pub rebalance: Option<RebalanceConfig>,
    /// Whole-chunk work stealing between workers. Stealing moves surplus
    /// *tail* chunks of a hot queue's interval pool onto idle queues, so
    /// it trades strict per-flow delivery order for tail latency — keep
    /// it off where order matters, on for throughput under elephants
    /// (the one case RETA rewrites cannot split: a single bucket hotter
    /// than a whole queue's fair share).
    pub steal: bool,
    /// Scheduled intent migrations, applied engine-wide at their
    /// interval's boundary (see [`crate::evolve`]).
    pub relayouts: Vec<RelayoutRequest>,
}

impl Control {
    /// Frozen RETA, no stealing, no relayouts: the static arm, and one
    /// plain measured round when `interval` covers the run.
    pub fn fixed(interval: usize) -> Control {
        Control {
            interval,
            rebalance: None,
            steal: false,
            relayouts: Vec::new(),
        }
    }

    /// The closed loop: the default rebalancer with stealing on.
    pub fn adaptive(interval: usize) -> Control {
        Control {
            rebalance: Some(RebalanceConfig::default()),
            steal: true,
            ..Control::fixed(interval)
        }
    }
}

/// What one [`ShardedEngine::run_intervals`] run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Whole-run per-worker counters (busy time spans every interval).
    pub report: EngineReport,
    /// Control-loop accounting; `None` with a frozen RETA.
    pub rebalance: Option<RebalanceStats>,
    /// Whole chunks the steal planner handed between queues.
    pub stolen_chunks: u64,
    /// The RETA as the run left it (diagnostics: how far it drifted from
    /// the reset layout).
    pub reta: [u16; RETA_SIZE],
    /// Every committed flip, in commit order.
    pub flips: Vec<FlipRecord>,
    /// Queues whose relayout was still parked when the run ended
    /// (health never recovered; the request survives in the driver and
    /// commits on the next recovered boundary).
    pub unresolved: usize,
}

impl RunOutcome {
    /// p99/p50 imbalance across per-queue drained packets.
    pub fn occupancy_imbalance(&self) -> f64 {
        let pkts: Vec<u64> = self.report.rx.iter().map(|w| w.packets).collect();
        crate::rebalance::imbalance_p99_p50(&pkts)
    }

    /// Worst drain-to-commit latency across all flips, in polls — the
    /// E19 headline number.
    pub fn max_flip_polls(&self) -> u32 {
        self.flips.iter().map(|f| f.polls).max().unwrap_or(0)
    }
}

/// The sequential model of whole-batch work stealing: move surplus tail
/// chunks (one drain batch each) from the fullest pools onto the
/// emptiest until no hand-off can shrink the gap below one chunk.
/// Thieves take whole batches, and process them with their own compiled
/// plan on their own queue.
/// Returns chunks moved. Each move strictly shrinks the hot/cold gap by
/// `2×chunk`, so the loop terminates.
fn steal_surplus_chunks(pools: &mut [Vec<ShardFrame>], chunk: usize) -> u64 {
    let mut stolen = 0u64;
    loop {
        let (hot, hlen) = match pools.iter().enumerate().max_by_key(|(_, p)| p.len()) {
            Some((q, p)) => (q, p.len()),
            None => return stolen,
        };
        let (cold, clen) = match pools.iter().enumerate().min_by_key(|(_, p)| p.len()) {
            Some((q, p)) => (q, p.len()),
            None => return stolen,
        };
        if hot == cold || hlen < clen + 2 * chunk {
            return stolen;
        }
        let tail = pools[hot].split_off(hlen - chunk);
        pools[cold].extend(tail);
        stolen += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opendesc_ir::names;
    use opendesc_nicsim::models;
    use opendesc_nicsim::pktgen::{ShardedPktGen, Workload};
    use opendesc_telemetry::MetricValue;

    fn intent(reg: &mut SemanticRegistry) -> Intent {
        Intent::builder("shard")
            .want(reg, names::RSS_HASH)
            .want(reg, names::PKT_LEN)
            .want(reg, names::VLAN_TCI)
            .build()
    }

    fn tx_intent(reg: &mut SemanticRegistry) -> Intent {
        Intent::builder("fwd").want(reg, names::TX_IP_CSUM).build()
    }

    /// A `queues`-wide e1000e engine on `intent`, forwarding everything.
    fn duplex(cache: &PlanCache, reg: &mut SemanticRegistry, queues: usize) -> ShardedEngine {
        let (ri, ti) = (intent(reg), tx_intent(reg));
        let (model, policy) = (models::e1000e(), SteerPolicy::Rss);
        let fwd: Arc<ForwardFn> =
            Arc::new(|_: &RxBatch, _, _: &mut Vec<u8>| TxVerdict::Forward(TxRequest::default()));
        ShardedEngine::new_uniform(
            cache, &model, &ri, &ti, reg, queues, 256, policy, 32, 2048, fwd,
        )
        .unwrap()
    }

    #[test]
    fn uniform_engine_shares_one_artifact() {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let i = intent(&mut reg);
        let eng = ShardedEngine::with_intents(
            &cache,
            &models::e1000e(),
            &vec![i; 4],
            &mut reg,
            256,
            SteerPolicy::Rss,
            32,
        )
        .unwrap();
        let first = eng.workers()[0].artifact();
        for w in &eng.workers()[1..] {
            assert!(
                Arc::ptr_eq(first, w.artifact()),
                "uniform queues must share one compilation"
            );
        }
        assert_eq!(cache.stats(), (3, 1), "1 compile, 3 hits for 4 queues");
    }

    #[test]
    fn per_queue_intents_get_per_intent_artifacts() {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let a = Intent::builder("latency")
            .want(&mut reg, names::RSS_HASH)
            .want(&mut reg, names::PKT_LEN)
            .build();
        let b = Intent::builder("kvs")
            .want(&mut reg, names::KVS_KEY_HASH)
            .want(&mut reg, names::PKT_LEN)
            .build();
        let eng = ShardedEngine::with_intents(
            &cache,
            &models::mlx5(),
            &[a.clone(), b, a],
            &mut reg,
            64,
            SteerPolicy::RoundRobin,
            16,
        )
        .unwrap();
        let w = eng.workers();
        assert!(Arc::ptr_eq(w[0].artifact(), w[2].artifact()));
        assert!(!Arc::ptr_eq(w[0].artifact(), w[1].artifact()));
        assert_eq!(cache.len(), 2, "two distinct intents, two artifacts");
        // The mini-CQE serves the RSS intent; the full CQE the KVS one —
        // different queues of one device genuinely run different layouts.
        assert_eq!(w[0].artifact().path.size_bytes(), 8);
        assert_eq!(w[1].artifact().path.size_bytes(), 64);
    }

    #[test]
    fn queues_hold_independent_contexts() {
        // Queue 0 asks for what the mini CQE carries, queue 1 for the
        // KVS hash only the full CQE has: same device, two completion
        // formats live simultaneously, each under its own context.
        let mut reg = SemanticRegistry::with_builtins();
        let mini = Intent::builder("mini")
            .want(&mut reg, names::RSS_HASH)
            .build();
        let full = Intent::builder("full")
            .want(&mut reg, names::KVS_KEY_HASH)
            .build();
        let mut eng = ShardedEngine::with_intents(
            &PlanCache::default(),
            &models::mlx5(),
            &[mini, full],
            &mut reg,
            16,
            SteerPolicy::RoundRobin,
            4,
        )
        .unwrap();
        let frames = opendesc_nicsim::PktGen::new(Workload::default()).batch(2);
        for (i, f) in frames.iter().enumerate() {
            let v = eng.steerer().steer(i as u64, f);
            assert_eq!(v.queue, i, "round robin");
            let drv = eng.workers_mut()[i].driver_mut();
            drv.deliver_steered(f, v.parsed.as_ref(), v.rss).unwrap();
        }
        let [q0, q1] = eng.workers_mut() else {
            panic!("two intents, two workers");
        };
        assert!(!Arc::ptr_eq(q0.artifact(), q1.artifact()));
        assert_ne!(q0.artifact().context, q1.artifact().context);
        for (w, bytes, what) in [(q0, 8, "mini CQE"), (q1, 64, "full CQE")] {
            assert_eq!(w.artifact().path.size_bytes(), bytes, "{what}");
            let (_, cmpt) = w.driver_mut().nic.receive().unwrap();
            assert_eq!(cmpt.len(), bytes as usize, "{what} on queue {}", w.queue);
        }
    }

    #[test]
    fn zero_queues_is_an_error_not_a_panic() {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let (i, ti, spare) = (intent(&mut reg), tx_intent(&mut reg), intent(&mut reg));
        let model = models::e1000e();
        let refused = |r: Result<ShardedEngine, ShardError>| {
            let r = r.map(drop);
            assert!(
                matches!(r, Err(ShardError::Nic(NicError::BadConfig(_)))),
                "{r:?}"
            );
        };
        let policy = SteerPolicy::Rss;
        let none = vec![spare; 0];
        for intents in [&[] as &[Intent], &none] {
            let eng = ShardedEngine::with_intents(
                &cache,
                &model,
                intents,
                &mut reg,
                64,
                policy.clone(),
                16,
            );
            refused(eng);
        }
        let fwd: Arc<ForwardFn> = Arc::new(|_: &RxBatch, _, _: &mut Vec<u8>| TxVerdict::Drop);
        refused(ShardedEngine::new_uniform(
            &cache, &model, &i, &ti, &mut reg, 0, 64, policy, 16, 256, fwd,
        ));
        assert!(cache.is_empty(), "refused before anything is compiled");
    }

    #[test]
    fn every_worker_artifact_carries_a_verified_bytecode_plan() {
        // The sharded engine attaches artifacts out of the PlanCache,
        // which only serves plans that lowered to bytecode and passed
        // the eBPF verifier — so every worker's datapath runs the VM.
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let i = intent(&mut reg);
        for model in [
            models::e1000e(),
            models::ixgbe(),
            models::mlx5(),
            models::qdma_default(),
        ] {
            let name = model.name.clone();
            let intents = vec![i.clone(); 2];
            let eng = ShardedEngine::with_intents(
                &cache,
                &model,
                &intents,
                &mut reg,
                64,
                SteerPolicy::Rss,
                16,
            )
            .unwrap();
            for w in eng.workers() {
                let lowered = w
                    .artifact()
                    .lowered()
                    .unwrap_or_else(|| panic!("{name} q{} artifact has no bytecode", w.queue));
                let prog = &lowered.prog;
                assert_eq!(prog.slots, w.artifact().accessors.accessors.len(), "{name}");
                assert_eq!(prog.hw_len, w.artifact().plan.hw.len(), "{name}");
                // Every hardware field's window programs went through
                // the verifier before the cache handed the plan out.
                assert!(
                    lowered.verifier_states > 0 || lowered.ebpf.is_empty(),
                    "{name}: verifier never ran"
                );
            }
        }
    }

    #[test]
    fn parallel_run_drains_every_steered_frame() {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let i = intent(&mut reg);
        let mut eng = ShardedEngine::with_intents(
            &cache,
            &models::e1000e(),
            &vec![i; 4],
            &mut reg,
            256,
            SteerPolicy::Rss,
            32,
        )
        .unwrap();
        let pools = ShardedPktGen::generate(Workload::default(), eng.steerer(), 500).into_pools();
        let report = eng.run(&pools);
        assert_eq!(report.total_rx_packets(), 500);
        assert_eq!(report.rx.len(), 4);
        for (q, w) in report.rx.iter().enumerate() {
            assert_eq!(
                w.packets,
                pools[q].len() as u64,
                "queue {q} drained exactly its pool"
            );
            assert_eq!(w.steered, pools[q].len() as u64);
            assert!(w.packets == 0 || w.busy_ns > 0);
        }
        assert!(report.aggregate_mpps() > 0.0);
        // An RX-only engine transmits nothing.
        let tx = report.total_forwarded() + report.total_dropped() + report.total_wire_frames();
        assert_eq!(tx, 0);
        // A second run reports only its own round (stats reset).
        let report2 = eng.run(&pools);
        assert_eq!(report2.total_rx_packets(), 500);
        // One fixed interval over the same stream is the same round in
        // order: the same frames reach the same queues.
        let fixed = eng.run_intervals(
            &Workload::default(),
            500,
            &Control::fixed(500),
            &mut |_, _, _| {},
        );
        assert_eq!(fixed.report.total_rx_packets(), 500);
        for (p, w) in report.rx.iter().zip(&fixed.report.rx) {
            assert_eq!(p.packets, w.packets);
            assert_eq!(p.steered, w.steered);
        }
    }

    #[test]
    fn snapshot_merges_device_and_host_views() {
        use opendesc_nicsim::FaultConfig;
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let i = intent(&mut reg);
        let rx_only = ShardedEngine::with_intents(
            &cache,
            &models::e1000e(),
            &vec![i; 2],
            &mut reg,
            256,
            SteerPolicy::RoundRobin,
            16,
        )
        .unwrap();
        for mut eng in [rx_only, duplex(&cache, &mut reg, 2)] {
            let full_duplex = eng.workers()[0].tx.is_some();
            // Only queue 1 misbehaves: replays every completion.
            eng.workers_mut()[1]
                .driver_mut()
                .nic
                .set_faults(
                    FaultConfig::builder()
                        .duplicate_chance(1.0)
                        .seed(3)
                        .build()
                        .unwrap(),
                )
                .unwrap();
            let pools =
                ShardedPktGen::generate(Workload::default(), eng.steerer(), 40).into_pools();
            let (_, kept) = eng.run_collect(&pools);
            let drained: usize = kept.iter().map(|c| c.rx.len()).sum();
            assert_eq!(drained, 40, "replays are discarded, originals delivered");
            let snap = eng.snapshot();
            let health = |scope: &str| match snap.get(&format!("{scope}.health")) {
                Some(MetricValue::Gauge(rank)) => *rank as u64,
                other => panic!("{scope}.health is {other:?}"),
            };
            assert_eq!(health("rx.q0"), health_rank(QueueHealth::Healthy));
            assert_eq!(snap.counter("rx.q0.validation.duplicates"), 0);
            assert_eq!(health("rx.q1"), health_rank(QueueHealth::Degraded));
            assert!(snap.counter("rx.q1.validation.duplicates") > 0);
            // The engine is only as trustworthy as its sickest queue.
            assert_eq!(health("rx.engine"), health_rank(QueueHealth::Degraded));
            // Device-injected and host-caught numbers line up in the
            // merged view: every injected duplicate was discarded by a
            // validator.
            let injected = snap.counter("rx.engine.nic.duplicated");
            assert!(injected > 0);
            assert_eq!(injected, snap.counter("rx.engine.validation.duplicates"));
            let tx_keys: Vec<&str> = (snap.entries().iter())
                .map(|(k, _)| k.as_str())
                .filter(|k| k.starts_with("tx."))
                .collect();
            if !full_duplex {
                assert!(tx_keys.is_empty(), "RX-only engine registered {tx_keys:?}");
                continue;
            }
            // The full-duplex engine forwarded what it drained, and
            // mirrors the RX scopes on the TX side.
            for name in ["frames", "doorbells", "sw_fixups", "stalls"] {
                for scope in ["tx.q0", "tx.q1", "tx.engine"] {
                    assert!(tx_keys.contains(&format!("{scope}.{name}").as_str()));
                }
            }
            for name in ["forwarded", "rewritten", "dropped", "wire_frames"] {
                for scope in ["tx.q0", "tx.q1", "tx.engine"] {
                    assert!(tx_keys.contains(&format!("{scope}.worker.{name}").as_str()));
                }
            }
            assert!(tx_keys.contains(&"tx.engine.queues"));
            assert_eq!(tx_keys.len(), 3 * 8 + 1, "{tx_keys:?}");
            assert_eq!(snap.counter("tx.engine.worker.wire_frames"), 40);
        }
    }

    #[test]
    fn full_duplex_engine_forwards_every_packet() {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let mut eng = duplex(&cache, &mut reg, 2);
        assert_eq!(cache.stats(), (1, 1), "2 queues share one RX compile");
        assert_eq!(cache.tx_stats(), (1, 1), "2 queues share one TX compile");

        let pools = ShardedPktGen::generate(Workload::default(), eng.steerer(), 400).into_pools();
        let report = eng.run(&pools);
        assert_eq!(report.total_rx_packets(), 400);
        assert_eq!(report.total_forwarded(), 400);
        assert_eq!(
            report.total_wire_frames(),
            400,
            "every forward hit the wire"
        );
        assert_eq!(report.total_dropped(), 0);
        assert!(report.aggregate_forward_mpps() > 0.0);

        // The collecting run proves the forwarded bytes are the received
        // bytes: per queue, the emitted wire frames equal the steered
        // pool as a multiset (order preserved per queue here).
        let (report2, kept) = eng.run_collect(&pools);
        assert_eq!(report2.total_forwarded(), 400);
        for (q, c) in kept.iter().enumerate() {
            let want: Vec<&[u8]> = pools[q].iter().map(|sf| sf.bytes.as_slice()).collect();
            let got: Vec<&[u8]> = c.wire.iter().map(|f| f.as_slice()).collect();
            assert_eq!(c.rx.len(), want.len(), "queue {q} drained its pool");
            assert_eq!(got, want, "queue {q} wire frames differ from its pool");
        }
    }

    #[test]
    fn engine_verdicts_drop_and_rewrite() {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let ri = intent(&mut reg);
        let ti = tx_intent(&mut reg);
        let mut eng = ShardedEngine::new_uniform(
            &cache,
            &models::e1000e(),
            &ri,
            &ti,
            &mut reg,
            1,
            128,
            SteerPolicy::RoundRobin,
            16,
            2048,
            Arc::new(|b: &RxBatch, i: usize, s: &mut Vec<u8>| {
                let f = b.frame(i);
                if f.len().is_multiple_of(2) {
                    // Echo back with the first byte flipped.
                    s.clear();
                    s.extend_from_slice(f);
                    s[0] ^= 0xFF;
                    TxVerdict::Rewrite(TxRequest::default())
                } else {
                    TxVerdict::Drop
                }
            }),
        )
        .unwrap();
        let pools = ShardedPktGen::generate(Workload::default(), eng.steerer(), 100).into_pools();
        let (report, kept) = eng.run_collect(&pools);
        assert_eq!(
            report.total_forwarded() + report.total_dropped(),
            100,
            "every packet got a verdict"
        );
        assert_eq!(report.tx[0].rewritten, report.total_forwarded());
        for (wire, orig) in kept[0]
            .wire
            .iter()
            .zip(pools[0].iter().filter(|sf| sf.bytes.len() % 2 == 0))
        {
            assert_eq!(wire[0], orig.bytes[0] ^ 0xFF);
            assert_eq!(&wire[1..], &orig.bytes[1..]);
        }

        let snap = eng.snapshot();
        assert_eq!(
            snap.counter("tx.engine.worker.forwarded"),
            report.total_forwarded()
        );
        assert_eq!(snap.counter("tx.q0.frames"), report.total_forwarded());
        assert_eq!(
            snap.counter("tx.engine.frames"),
            snap.counter("tx.q0.frames"),
            "single queue: engine fold equals the queue scope"
        );
        assert!(snap.counter("tx.q0.doorbells") > 0);
        assert_eq!(
            snap.counter("rx.engine.worker.packets"),
            100,
            "RX side still registers through the shared path"
        );
    }

    #[test]
    fn a_panicking_worker_keeps_its_own_panic() {
        const WHY: &str = "the verdict refuses this packet";
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let (ri, ti) = (intent(&mut reg), tx_intent(&mut reg));
        let fwd: Arc<ForwardFn> =
            Arc::new(|_: &RxBatch, _, _: &mut Vec<u8>| std::panic::panic_any(WHY));
        let mut eng = ShardedEngine::new_uniform(
            &cache,
            &models::e1000e(),
            &ri,
            &ti,
            &mut reg,
            2,
            256,
            SteerPolicy::RoundRobin,
            16,
            2048,
            fwd,
        )
        .unwrap();
        let pools = ShardedPktGen::generate(Workload::default(), eng.steerer(), 64).into_pools();
        let parallel = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| eng.run(&pools)));
        let in_order = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eng.run_intervals(
                &Workload::default(),
                64,
                &Control::fixed(64),
                &mut |_, _, _| {},
            )
        }));
        for (how, outcome) in [
            ("run", parallel.map(drop)),
            ("run_intervals", in_order.map(drop)),
        ] {
            let payload = outcome.expect_err("the verdict panics on the first packet");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&WHY), "{how}");
        }
    }

    #[test]
    fn interval_loops_forward_on_a_full_duplex_engine() {
        let (queues, total) = (2, 3_000);
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let mut eng = duplex(&cache, &mut reg, queues);
        let conserved = |rep: &EngineReport| {
            assert_eq!(rep.total_rx_packets(), total as u64);
            assert_eq!(rep.total_forwarded(), total as u64);
            assert_eq!(rep.total_wire_frames(), total as u64);
        };
        let wl = Workload::zipf(64, 1.1, 1);
        let sink = &mut |_: u32, _: usize, _: &RxBatch| {};
        conserved(
            &eng.run_intervals(&wl, total, &Control::adaptive(500), sink)
                .report,
        );

        let lean = Intent::builder("lean")
            .want(&mut reg, names::PKT_LEN)
            .build();
        let schedule: Vec<RelayoutRequest> = [(1, &lean), (3, &intent(&mut reg))]
            .into_iter()
            .map(|(at_interval, target)| {
                cache.begin_generation();
                let rx = (cache.get_or_compile(&models::e1000e(), target, &mut reg)).unwrap();
                RelayoutRequest { at_interval, rx }
            })
            .collect();
        let migrations = schedule.len();
        let ctl = Control {
            relayouts: schedule,
            ..Control::fixed(500)
        };
        let out = eng.run_intervals(&wl, total, &ctl, sink);
        conserved(&out.report);
        assert_eq!(out.unresolved, 0);
        assert_eq!(out.flips.len(), queues * migrations, "every flip commits");
    }

    #[test]
    fn adaptive_run_conserves_and_flattens_skew() {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let i = intent(&mut reg);
        let mut eng = ShardedEngine::with_intents(
            &cache,
            &models::e1000e(),
            &vec![i; 4],
            &mut reg,
            256,
            SteerPolicy::Rss,
            32,
        )
        .unwrap();
        let wl = Workload::zipf(64, 1.3, 2);
        let total = 6_000;
        // Static arm: frozen RETA, no stealing.
        let stat = eng.run_intervals(&wl, total, &Control::fixed(1_000), &mut |_, _, _| {});
        assert_eq!(stat.report.total_rx_packets(), total as u64);
        assert!(stat.rebalance.is_none());
        assert_eq!(stat.stolen_chunks, 0);
        assert_eq!(stat.reta, {
            let mut r = [0u16; RETA_SIZE];
            for (b, e) in r.iter_mut().enumerate() {
                *e = (b % 4) as u16;
            }
            r
        });
        // Adaptive arm on a fresh table: every frame still delivered,
        // the control loop actually moved buckets, and the per-queue
        // occupancy spread tightened.
        let adp = eng.run_intervals(&wl, total, &Control::adaptive(1_000), &mut |_, _, _| {});
        assert_eq!(adp.report.total_rx_packets(), total as u64);
        let reb = adp.rebalance.expect("adaptive arm reports control stats");
        assert!(reb.migrations > 0, "skew must trigger migrations: {reb:?}");
        assert!(
            adp.occupancy_imbalance() <= stat.occupancy_imbalance(),
            "adaptive {} vs static {}",
            adp.occupancy_imbalance(),
            stat.occupancy_imbalance()
        );
        for w in &adp.report.rx {
            assert_eq!(w.health, QueueHealth::Healthy);
        }
    }
}
