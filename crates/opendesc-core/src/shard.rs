//! The sharded RX engine: one worker thread per queue, no locks on the
//! per-packet path.
//!
//! Ownership model — the engine is structured so that parallelism needs
//! no synchronization at all on the datapath:
//!
//! * each [`RxWorker`] *owns* its `SimNic` queue, its `OpenDescDriver`
//!   (with its private `SoftNic` shim state), and its recycled
//!   [`RxBatch`] storage — nothing per-packet is shared;
//! * the compiled artifact is shared read-only as `Arc<CompiledRx>` —
//!   one compilation serves every queue with the same intent, and the
//!   §3 different-intents case gives each queue its own artifact from
//!   the same [`PlanCache`];
//! * workers report into [`CachePadded`] stat cells they exclusively
//!   `&mut`-own while their thread runs; the coordinator aggregates the
//!   cells only after joining — counters never bounce cache lines and
//!   never need atomics.
//!
//! Every run entry point is three pieces: a worker's *feed* step (wire
//! side, untimed), its *drain* loop (the only poller here; each batch
//! goes to a closure — a no-op, a collector, or the forward verdict
//! loop), and `on_each_worker`, which runs a round on scoped threads —
//! queues are borrowed in and handed back without `Arc<Mutex<…>>`
//! wrapping — or in order. Timing is measured per worker around the
//! drain only (the host datapath under test), so aggregate throughput
//! — total packets over the busiest worker's busy time — is the
//! parallel drain's wall clock when each worker has a core of its own,
//! and remains an honest per-core measurement when the host has fewer
//! cores than queues.

use crate::cache::{AttachError, CompiledRx, PlanCache};
use crate::compiler::CompileError;
use crate::datapath::{health_rank, OpenDescDriver, RxBatch};
use crate::evolve::{EvolveConfig, FlipProgress, FlipRecord, RelayoutOutcome};
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

/// The queue count is the caller's: zero is refused, not asserted.
fn at_least_one_queue(queues: usize) -> Result<(), ShardError> {
    if queues == 0 {
        let why = "an engine needs at least one queue".to_string();
        return Err(ShardError::Nic(NicError::BadConfig(why)));
    }
    Ok(())
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
    /// Nanoseconds spent inside drain sections (host datapath only; the
    /// wire-side feed is excluded).
    pub busy_ns: u64,
    /// Validator counter deltas for this round (since the last
    /// `reset_stats`).
    pub validation: ValidationStats,
    /// Watchdog resets requested this round.
    pub watchdog_resets: u64,
    /// Queue health at the time the stats were read.
    pub health: QueueHealth,
}

/// One queue + its driver + its recycled batch + its padded stat cell.
pub struct RxWorker {
    /// Queue index this worker owns.
    pub queue: usize,
    drv: OpenDescDriver,
    batch: RxBatch,
    stats: CachePadded<WorkerStats>,
    /// Validator/watchdog baselines at the last `reset_stats`, so each
    /// round reports deltas over the driver's cumulative counters.
    vbase: ValidationStats,
    rbase: u64,
}

impl RxWorker {
    fn new(queue: usize, mut drv: OpenDescDriver, batch_cap: usize) -> RxWorker {
        drv.set_queue_index(queue as u16);
        let batch = drv.make_batch(batch_cap);
        RxWorker {
            queue,
            drv,
            batch,
            stats: CachePadded::default(),
            vbase: ValidationStats::default(),
            rbase: 0,
        }
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

    /// This worker's queue health right now.
    pub fn health(&self) -> QueueHealth {
        self.drv.health()
    }

    fn reset_stats(&mut self) {
        self.stats.value = WorkerStats::default();
        self.vbase = self.drv.validation_stats();
        self.rbase = self.drv.watchdog_resets();
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

    /// The drain loop every run path shares: poll until the queue
    /// reports nothing published (or `max_polls` are spent), handing
    /// each drained batch — and the device, for a TX half on the same
    /// queue pair — to `each`. Only this section accrues `busy_ns`. An
    /// empty pass feeds the watchdog's stall detector, so repeated
    /// drains are how a wedged queue (hang, lost doorbell) gets reset
    /// and its stranded completions republished.
    fn drain(&mut self, max_polls: u32, mut each: impl FnMut(&RxBatch, &mut SimNic)) {
        let t0 = Instant::now();
        for _ in 0..max_polls {
            let n = self.drv.poll_batch_into(&mut self.batch);
            if n == 0 {
                break;
            }
            self.stats.value.packets += n as u64;
            self.stats.value.batches += 1;
            each(&self.batch, &mut self.drv.nic);
        }
        self.stats.value.busy_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Feed `pool` into the owned queue in batch-capacity chunks and
    /// drain each through the compiled batched datapath, handing every
    /// batch to `each` (a collector copies frames out of it; the perf
    /// path passes a no-op).
    fn pump(&mut self, pool: &[ShardFrame], mut each: impl FnMut(&RxBatch, &mut SimNic)) {
        for chunk in pool.chunks(self.batch.capacity().max(1)) {
            self.feed(chunk);
            self.drain(u32::MAX, &mut each);
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

    /// Drive a pending flip to resolution: drain in-flight work under
    /// the *outgoing* plan (up to `budget` polls, then force-commit
    /// with the stragglers forgiven) and commit. Batches drained on the
    /// way go to `each` — they are delivered packets, not casualties.
    /// A parked (`Deferred`) request returns immediately; the caller
    /// retries at a later boundary, after health recovers. Returns the
    /// final progress and the drain polls spent.
    fn continue_relayout(
        &mut self,
        budget: u32,
        mut each: impl FnMut(&RxBatch, &mut SimNic),
    ) -> (FlipProgress, u32) {
        let mut polls = 0u32;
        loop {
            match self.drv.advance_relayout(polls as u64) {
                FlipProgress::Draining if polls >= budget => {
                    return (self.drv.force_relayout(polls as u64), polls);
                }
                FlipProgress::Draining => {
                    self.drain(1, &mut each);
                    polls += 1;
                }
                prog => return (prog, polls),
            }
        }
    }

    /// Drain everything pending into owned `(frame, metadata)` pairs —
    /// the equivalence-test view of the datapath (allocates; the run
    /// paths drain into a no-op). Metadata is in accessor order.
    fn drain_collect(&mut self) -> Vec<DrainedPacket> {
        let mut out = Vec::new();
        self.drain(u32::MAX, |b, _| {
            out.extend((0..b.len()).map(|pkt| {
                let meta = (0..b.semantics().len()).map(|f| b.value_at(f, pkt));
                (b.frame(pkt).to_vec(), meta.collect())
            }));
        });
        out
    }

    /// Read access to the owned driver (telemetry/inspection path).
    pub fn driver(&self) -> &OpenDescDriver {
        &self.drv
    }

    /// Mutable access to the owned driver (test/setup path).
    pub fn driver_mut(&mut self) -> &mut OpenDescDriver {
        &mut self.drv
    }

    /// Register this worker's device, driver, validator, watchdog, and
    /// softnic counters under its own `rx.q{N}` scope, and again under
    /// `engine_scope` where the registry's additive folding produces
    /// engine-wide totals. Shared by [`ShardedRx::snapshot`] and
    /// [`ShardedEngine::snapshot`].
    fn register_into(&self, reg: &mut MetricRegistry, engine_scope: &str) {
        let scope = format!("rx.q{}", self.queue);
        self.drv.register_metrics(reg, &scope);
        self.drv.register_metrics(reg, engine_scope);
        reg.counter(&format!("{scope}.worker.packets"), self.stats.value.packets);
        reg.counter(&format!("{scope}.worker.batches"), self.stats.value.batches);
        reg.counter(&format!("{scope}.worker.steered"), self.stats.value.steered);
        reg.counter(&format!("{scope}.worker.busy_ns"), self.stats.value.busy_ns);
        reg.counter(
            &format!("{engine_scope}.worker.packets"),
            self.stats.value.packets,
        );
        reg.counter(
            &format!("{engine_scope}.worker.batches"),
            self.stats.value.batches,
        );
        reg.counter(
            &format!("{engine_scope}.worker.steered"),
            self.stats.value.steered,
        );
        reg.counter(
            &format!("{engine_scope}.worker.busy_ns"),
            self.stats.value.busy_ns,
        );
    }
}

/// Gauges are last-write-wins, so the engine-scope health slots hold
/// whichever queue registered last; the honest engine-wide values are
/// the *worst* queue's: the highest severity rank and the fullest
/// fault-rate bucket.
fn register_worst_health<'a>(
    reg: &mut MetricRegistry,
    drivers: impl Iterator<Item = &'a OpenDescDriver>,
) {
    let (rank, level) = drivers
        .map(|d| (health_rank(d.health()), d.health_level().0))
        .fold((0, 0), |(r, l), (rank, level)| (r.max(rank), l.max(level)));
    reg.gauge("rx.engine.health", rank as f64);
    reg.gauge("rx.engine.health_level", level as f64);
}

// Workers move into scoped threads; the artifact they share must be
// readable from all of them.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<RxWorker>();
    assert_send::<WorkerStats>();
    assert_send_sync::<Arc<CompiledRx>>();
};

/// Aggregated view of one parallel run.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Final per-worker cells, in queue order.
    pub per_worker: Vec<WorkerStats>,
}

impl ShardReport {
    /// Packets drained across all workers.
    pub fn total_packets(&self) -> u64 {
        self.per_worker.iter().map(|w| w.packets).sum()
    }

    /// Busy time of the busiest worker — the parallel drain's critical
    /// path (its wall clock given one core per worker).
    pub fn max_busy_ns(&self) -> u64 {
        self.per_worker.iter().map(|w| w.busy_ns).max().unwrap_or(0)
    }

    /// Total datapath work across workers (the single-core equivalent).
    pub fn sum_busy_ns(&self) -> u64 {
        self.per_worker.iter().map(|w| w.busy_ns).sum()
    }

    /// Aggregate throughput: total packets over the critical path.
    pub fn aggregate_mpps(&self) -> f64 {
        let ns = self.max_busy_ns();
        if ns == 0 {
            return 0.0;
        }
        self.total_packets() as f64 * 1e3 / ns as f64
    }
}

/// The coordinator: N workers, one shared steerer, run via scoped
/// threads.
pub struct ShardedRx {
    workers: Vec<RxWorker>,
    steerer: Steerer,
    /// Frames pushed through [`deliver`](ShardedRx::deliver) (the
    /// round-robin stream position).
    delivered: u64,
}

impl ShardedRx {
    /// Uniform-intent engine: every queue attaches the *same*
    /// `Arc<CompiledRx>` out of `cache` — one compilation, N queues.
    #[allow(clippy::too_many_arguments)]
    pub fn new_uniform(
        cache: &PlanCache,
        model: &NicModel,
        intent: &Intent,
        reg: &mut SemanticRegistry,
        queues: usize,
        ring: usize,
        policy: SteerPolicy,
        batch_cap: usize,
    ) -> Result<ShardedRx, ShardError> {
        let intents: Vec<Intent> = (0..queues).map(|_| intent.clone()).collect();
        Self::with_intents(cache, model, &intents, reg, ring, policy, batch_cap)
    }

    /// Per-queue intents — the paper's §3 scenario: each queue may
    /// declare a different intent and gets the matching artifact from
    /// the cache (identical intents still share one compilation).
    pub fn with_intents(
        cache: &PlanCache,
        model: &NicModel,
        intents: &[Intent],
        reg: &mut SemanticRegistry,
        ring: usize,
        policy: SteerPolicy,
        batch_cap: usize,
    ) -> Result<ShardedRx, ShardError> {
        at_least_one_queue(intents.len())?;
        let steerer = Steerer::new(policy, intents.len());
        let mut workers = Vec::with_capacity(intents.len());
        for (q, intent) in intents.iter().enumerate() {
            let rx = cache.get_or_compile(model, intent, reg)?;
            let nic = SimNic::with_contract(model.clone(), cache.contract(model)?, ring)?;
            let drv = OpenDescDriver::attach_shared(nic, rx)?;
            workers.push(RxWorker::new(q, drv, batch_cap));
        }
        Ok(ShardedRx {
            workers,
            steerer,
            delivered: 0,
        })
    }

    /// Number of workers (= queues).
    pub fn queues(&self) -> usize {
        self.workers.len()
    }

    /// The shared steering state.
    pub fn steerer(&self) -> &Steerer {
        &self.steerer
    }

    /// The workers, for direct inspection.
    pub fn workers(&self) -> &[RxWorker] {
        &self.workers
    }

    pub fn workers_mut(&mut self) -> &mut [RxWorker] {
        &mut self.workers
    }

    /// Steer one frame to its queue and deliver it (the sequential
    /// wire-side front end). Returns the queue index.
    pub fn deliver(&mut self, frame: &[u8]) -> Result<usize, NicError> {
        let idx = self.delivered;
        self.delivered += 1;
        let v = self.steerer.steer(idx, frame);
        self.workers[v.queue]
            .drv
            .deliver_steered(frame, v.parsed.as_ref(), v.rss)?;
        self.workers[v.queue].stats.value.steered += 1;
        Ok(v.queue)
    }

    /// One round: stats are reset first, so the report describes
    /// exactly this round; worker `q` pumps `pools[q]`.
    fn round(&mut self, pools: &[Vec<ShardFrame>], parallel: bool) -> ShardReport {
        assert_eq!(pools.len(), self.workers.len(), "one pool per worker");
        let per_worker = on_each_worker(&mut self.workers, parallel, |q, w| {
            w.reset_stats();
            w.pump(&pools[q], |_, _| {});
            w.stats()
        });
        ShardReport { per_worker }
    }

    /// One parallel round: worker `q` pumps `pools[q]` on its own scoped
    /// thread. The per-packet path inside each thread touches only
    /// worker-owned state; the only joins are the thread joins.
    pub fn run(&mut self, pools: &[Vec<ShardFrame>]) -> ShardReport {
        self.round(pools, true)
    }

    /// [`run`](ShardedRx::run) without threads: workers pump one after
    /// another on the calling thread. Produces the same counters — and,
    /// because `busy_ns` is accrued per worker around its own drain
    /// sections, the same *throughput model* — but with each worker
    /// timed in isolation. This is the measurement harness's variant:
    /// on a host with fewer cores than queues, concurrent workers
    /// time-slice and each worker's wall clock absorbs its neighbours'
    /// work, overstating `busy_ns`; sequential pumping keeps per-worker
    /// timings honest, and the aggregate (total packets over the
    /// busiest worker) is then exactly what the parallel run achieves
    /// given one core per worker.
    pub fn run_sequential(&mut self, pools: &[Vec<ShardFrame>]) -> ShardReport {
        self.round(pools, false)
    }

    /// Switch poll-cycle telemetry (histograms + trace rings) on or off
    /// for every worker. Off is the default: the hot path then skips
    /// clock reads, histogram records, and trace writes entirely.
    pub fn set_telemetry_enabled(&mut self, on: bool) {
        for w in &mut self.workers {
            w.drv.set_telemetry_enabled(on);
        }
    }

    /// One unified metric snapshot for the whole engine: every worker
    /// registers its device, driver, validator, watchdog, and softnic
    /// counters under a `rx.q{N}` scope, and registers them *again*
    /// under `rx.engine`, where the registry's additive counter folding
    /// and histogram merging produce the engine-wide totals. Worker
    /// round counters ride along under `rx.q{N}.worker`.
    pub fn snapshot(&self) -> Snapshot {
        let mut reg = MetricRegistry::default();
        reg.gauge("rx.engine.queues", self.workers.len() as f64);
        for w in &self.workers {
            w.register_into(&mut reg, "rx.engine");
        }
        register_worst_health(&mut reg, self.workers.iter().map(|w| &w.drv));
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

    /// Mutable steering state — the rebalancer's RETA write port. The
    /// per-packet path is untouched by rewrites: steering stays a mask +
    /// table load, only the table cell changes.
    pub fn steerer_mut(&mut self) -> &mut Steerer {
        &mut self.steerer
    }

    /// The closed control loop: process `total` frames of `wl` in
    /// control intervals, folding each interval's per-queue busy/packet
    /// telemetry and per-bucket packet counts into the [`Rebalancer`],
    /// and applying its RETA rewrites at interval boundaries — after the
    /// interval's drain, so migrations are reorder-free
    /// (drain-before-remap; non-quiesced queues defer their moves).
    /// With `cfg.rebalance = None` the same loop runs with a frozen RETA
    /// — the static arm every adaptive claim is normalized against.
    ///
    /// Timing follows [`run_sequential`](ShardedRx::run_sequential):
    /// workers pump one after another, generation and steering run off
    /// the clock, so the aggregate (total packets over the busiest
    /// worker's busy time) models one core per worker.
    ///
    /// Every drained batch goes to `sink`, tagged `(interval, queue)`:
    /// the measured runs pass a no-op, the correctness harness passes
    /// [`retain_into`] to check multiset conservation and per-flow
    /// order under live migrations.
    pub fn run_adaptive(
        &mut self,
        wl: &Workload,
        total: usize,
        cfg: &AdaptiveConfig,
        sink: &mut BatchSink<'_>,
    ) -> AdaptiveOutcome {
        let nq = self.workers.len();
        let mut reb = cfg.rebalance.clone().map(Rebalancer::new);
        let (mut prev_busy, mut prev_pkts) = (vec![0u64; nq], vec![0u64; nq]);
        // Interval boundary: fold the busy/packet deltas, check
        // quiescence, and let the rebalancer rewrite the RETA.
        let rebalance: &mut Boundary<'_> = &mut |eng, _, bucket_pkts, _| {
            let Some(reb) = &mut reb else { return };
            let mut busy_delta = vec![0u64; nq];
            let mut pkts_delta = vec![0u64; nq];
            let mut quiesced = vec![false; nq];
            for (q, w) in eng.workers.iter().enumerate() {
                busy_delta[q] = w.stats.value.busy_ns - prev_busy[q];
                pkts_delta[q] = w.stats.value.packets - prev_pkts[q];
                prev_busy[q] = w.stats.value.busy_ns;
                prev_pkts[q] = w.stats.value.packets;
                quiesced[q] = w.in_flight() == 0;
            }
            let moves = reb.plan(
                eng.steerer.reta(),
                bucket_pkts,
                &busy_delta,
                &pkts_delta,
                &quiesced,
            );
            for m in &moves {
                eng.steerer.set_reta(m.bucket, m.to);
            }
        };
        let (_, stolen_chunks) =
            self.run_intervals(wl, total, cfg.interval, cfg.steal, sink, rebalance);
        AdaptiveOutcome {
            report: self.report(),
            rebalance: reb.map(|r| r.stats()),
            stolen_chunks,
            reta: *self.steerer.reta(),
        }
    }

    /// Every worker's counters as they stand.
    fn report(&self) -> ShardReport {
        ShardReport {
            per_worker: self.workers.iter().map(|w| w.stats()).collect(),
        }
    }

    /// The interval driver under [`run_adaptive`] and [`run_evolving`]:
    /// per control interval, generate `interval` frames, steer them
    /// with the *live* RETA (tallying per-bucket arrivals), optionally
    /// hand surplus chunks between pools, pump every worker in turn
    /// (drained batches go to `sink`, tagged with interval and queue),
    /// then run `boundary` — the one place the two loops differ. Ends
    /// with a bounded recovery drain. Returns the number of intervals
    /// run and the chunks the steal planner moved.
    ///
    /// [`run_adaptive`]: ShardedRx::run_adaptive
    /// [`run_evolving`]: ShardedRx::run_evolving
    fn run_intervals(
        &mut self,
        wl: &Workload,
        total: usize,
        interval: usize,
        steal: bool,
        sink: &mut BatchSink<'_>,
        boundary: &mut Boundary<'_>,
    ) -> (u32, u64) {
        for w in &mut self.workers {
            w.reset_stats();
        }
        let mut gen = PktGen::new(wl.clone());
        let mut pools: Vec<Vec<ShardFrame>> = self.workers.iter().map(|_| Vec::new()).collect();
        let mut stolen_chunks = 0u64;
        let mut stream_idx = 0u64;
        let mut remaining = total;
        let mut index = 0u32;
        while remaining > 0 {
            let n = remaining.min(interval.max(1));
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
            if steal {
                let chunk = self.workers[0].batch.capacity().max(1);
                stolen_chunks += steal_surplus_chunks(&mut pools, chunk);
            }
            for (q, (w, pool)) in self.workers.iter_mut().zip(&pools).enumerate() {
                w.pump(pool, |b, _| sink(index, q, b));
            }
            boundary(self, index, &bucket_pkts, sink);
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
                w.drain(u32::MAX, |b, _| sink(index, q, b));
            }
        }
        (index, stolen_chunks)
    }

    /// Process `total` frames of `wl` in control intervals while
    /// executing `cfg.schedule`'s live intent migrations: at each
    /// scheduled boundary every queue drain-and-flips onto the new
    /// compiled interface (see [`crate::evolve`]). Steering runs with
    /// the live RETA but no rebalancing — relayout is the only control
    /// action, so flip latency is not confounded with RETA moves.
    /// Requests parked on a `Degraded` queue are retried at every later
    /// boundary and commit once health recovers. Drained batches —
    /// including those a drain-and-flip pulls in — go to `sink`, as in
    /// [`run_adaptive`](ShardedRx::run_adaptive).
    pub fn run_evolving(
        &mut self,
        wl: &Workload,
        total: usize,
        cfg: &EvolveConfig,
        sink: &mut BatchSink<'_>,
    ) -> RelayoutOutcome {
        let mut flips: Vec<FlipRecord> = Vec::new();
        let mut parked = vec![false; self.workers.len()];
        // Boundary: submit due requests engine-wide, then drive every
        // pending flip — fresh ones and requests parked at an earlier
        // boundary whose queue may have recovered since.
        let relayout: &mut Boundary<'_> = &mut |eng, interval, _, sink| {
            for req in cfg.schedule.iter().filter(|r| r.at_interval == interval) {
                for (q, w) in eng.workers.iter_mut().enumerate() {
                    if w.request_relayout(Arc::clone(&req.rx)) == FlipProgress::Deferred {
                        parked[q] = true;
                    }
                }
            }
            eng.drive_pending_flips(cfg.budget, interval, &mut parked, &mut flips, sink);
        };
        let (intervals, _) = self.run_intervals(wl, total, cfg.interval, false, sink, relayout);
        // Final boundary for flips still parked: a queue whose health
        // recovered during the tail traffic can still commit.
        self.drive_pending_flips(cfg.budget, intervals, &mut parked, &mut flips, sink);
        let unresolved = self
            .workers
            .iter()
            .filter(|w| w.driver().flip_pending())
            .count();
        RelayoutOutcome {
            report: self.report(),
            flips,
            unresolved,
        }
    }

    /// Drive every worker whose flip is pending (one relayout boundary).
    fn drive_pending_flips(
        &mut self,
        budget: u32,
        interval: u32,
        parked: &mut [bool],
        flips: &mut Vec<FlipRecord>,
        sink: &mut BatchSink<'_>,
    ) {
        for (q, w) in self.workers.iter_mut().enumerate() {
            if !w.driver().flip_pending() {
                continue;
            }
            let (prog, polls) = w.continue_relayout(budget, |b, _| sink(interval, q, b));
            if let FlipProgress::Committed(g) = prog {
                flips.push(FlipRecord {
                    interval,
                    queue: q,
                    polls,
                    generation: g,
                    was_deferred: parked[q],
                });
                parked[q] = false;
            }
        }
    }

    /// Parallel drain of everything currently pending (after a
    /// [`deliver`](ShardedRx::deliver) phase), collecting each worker's
    /// `(frame, metadata)` pairs — the equivalence-test entry point.
    pub fn drain_collect_parallel(&mut self) -> Vec<Vec<DrainedPacket>> {
        on_each_worker(&mut self.workers, true, |_, w| w.drain_collect())
    }
}

/// Run `work` once per worker — each on its own scoped thread when
/// `parallel`, otherwise one after another on the calling thread — and
/// return the results in worker order. Scoped threads borrow the
/// workers and hand them back at the join, which is the only
/// synchronization a round needs.
fn on_each_worker<W: Send, R: Send>(
    workers: &mut [W],
    parallel: bool,
    work: impl Fn(usize, &mut W) -> R + Sync,
) -> Vec<R> {
    let work = &work;
    if !parallel {
        return workers
            .iter_mut()
            .enumerate()
            .map(|(q, w)| work(q, w))
            .collect();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .enumerate()
            .map(|(q, w)| s.spawn(move || work(q, w)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// Where the interval loops send each drained batch: `(interval,
/// queue, batch)`. The measured runs pass a no-op (`&mut |_, _, _| {}`).
pub type BatchSink<'a> = dyn FnMut(u32, usize, &RxBatch) + 'a;

/// The "collect" sink: copy every frame out of the batch as
/// `(interval, queue, frame)`, in drain order.
pub fn retain_into(out: &mut Vec<(u32, usize, Vec<u8>)>) -> impl FnMut(u32, usize, &RxBatch) + '_ {
    move |interval, q, b| out.extend((0..b.len()).map(|pkt| (interval, q, b.frame(pkt).to_vec())))
}

/// What runs at an interval boundary: `(engine, interval index, the
/// interval's arrivals per RETA bucket, sink)`.
type Boundary<'a> = dyn FnMut(&mut ShardedRx, u32, &[u64; RETA_SIZE], &mut BatchSink<'_>) + 'a;

/// Configuration of one [`ShardedRx::run_adaptive`] run.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Frames per control interval — the rebalance decision cadence.
    pub interval: usize,
    /// The closed loop; `None` freezes the RETA (the static arm).
    pub rebalance: Option<RebalanceConfig>,
    /// Whole-chunk work stealing between workers. Stealing moves surplus
    /// *tail* chunks of a hot queue's interval pool onto idle queues, so
    /// it trades strict per-flow delivery order for tail latency — keep
    /// it off where order matters, on for throughput under elephants
    /// (the one case RETA rewrites cannot split: a single bucket hotter
    /// than a whole queue's fair share).
    pub steal: bool,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            interval: 2048,
            rebalance: Some(RebalanceConfig::default()),
            steal: true,
        }
    }
}

impl AdaptiveConfig {
    /// The static control arm: same loop, frozen RETA, no stealing.
    pub fn static_reta(interval: usize) -> AdaptiveConfig {
        AdaptiveConfig {
            interval,
            rebalance: None,
            steal: false,
        }
    }
}

/// What one adaptive run produced.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// Whole-run per-worker counters (busy time spans every interval).
    pub report: ShardReport,
    /// Control-loop accounting; `None` for the static arm.
    pub rebalance: Option<RebalanceStats>,
    /// Whole chunks the steal planner handed between queues.
    pub stolen_chunks: u64,
    /// The RETA as the run left it (diagnostics: how far it drifted from
    /// the reset layout).
    pub reta: [u16; RETA_SIZE],
}

impl AdaptiveOutcome {
    /// p99/p50 imbalance across per-queue drained packets.
    pub fn occupancy_imbalance(&self) -> f64 {
        let pkts: Vec<u64> = self.report.per_worker.iter().map(|w| w.packets).collect();
        crate::rebalance::imbalance_p99_p50(&pkts)
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

/// Per-round transmit counters one engine worker owns.
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

/// One full-duplex shard: an [`RxWorker`] paired with a batched
/// [`TxQueue`] on the *same* `SimNic` (one device queue pair), plus the
/// recycled [`TxBatch`] and rewrite scratch the forward path reuses.
pub struct EngineWorker {
    pub rx: RxWorker,
    txq: TxQueue,
    txb: TxBatch,
    rewrite: Vec<u8>,
    tstats: CachePadded<TxWorkerStats>,
    /// TX plan to swap to when the pending RX flip commits (see
    /// [`ShardedEngine::relayout`]); `None` outside a relayout.
    pending_tx: Option<Arc<CompiledTxPlan>>,
}

impl EngineWorker {
    /// This worker's transmit counters for the current round.
    pub fn tx_stats(&self) -> TxWorkerStats {
        self.tstats.value
    }

    fn reset_stats(&mut self) {
        self.rx.reset_stats();
        self.tstats.value = TxWorkerStats::default();
    }

    /// Drive this shard's pending flip: resolve the RX drain-and-flip,
    /// and on commit swap the TX queue onto the plan a
    /// [`relayout`](ShardedEngine::relayout) left pending — the two
    /// directions flip as one unit, on the RX commit edge.
    fn finish_relayout(&mut self, budget: u32) -> (FlipProgress, u32) {
        let (prog, polls) = self.rx.continue_relayout(budget, |_, _| {});
        if matches!(prog, FlipProgress::Committed(_)) {
            if let Some(tx) = self.pending_tx.take() {
                self.txq.set_plan(&mut self.rx.drv.nic, tx);
            }
        }
        (prog, polls)
    }

    /// Feed `pool`, then for each drained batch ask `fwd` for a verdict
    /// per packet and submit the survivors through the batched TX path —
    /// one doorbell per drained batch. Timing covers the host datapath
    /// only (drain + verdicts + submit); the wire-side feed and the
    /// device's TX consumption run off the clock, mirroring
    /// [`RxWorker::pump`]. With `collect`, emitted wire frames are
    /// retained for equivalence checking instead of being discarded.
    fn pump_forward(
        &mut self,
        pool: &[ShardFrame],
        fwd: &ForwardFn,
        mut collect: Option<&mut Vec<Vec<u8>>>,
    ) {
        for chunk in pool.chunks(self.rx.batch.capacity().max(1)) {
            self.rx.feed(chunk);
            // Time the drain spent waiting on the device (ring
            // back-pressure), taken back off the host clock below.
            let mut stalled_ns = 0u64;
            self.rx.drain(u32::MAX, |batch, nic| {
                self.txb.clear();
                for pkt in 0..batch.len() {
                    let (frame, req, rewritten) = match fwd(batch, pkt, &mut self.rewrite) {
                        TxVerdict::Drop => {
                            self.tstats.value.dropped += 1;
                            continue;
                        }
                        TxVerdict::Forward(req) => (batch.frame(pkt), req, 0),
                        TxVerdict::Rewrite(req) => (self.rewrite.as_slice(), req, 1),
                    };
                    if self.txb.push(frame, req) {
                        self.tstats.value.forwarded += 1;
                        self.tstats.value.rewritten += rewritten;
                    } else {
                        self.tstats.value.dropped += 1;
                    }
                }
                let mut from = 0;
                while from < self.txb.len() {
                    from += self
                        .txq
                        .submit_from(nic, &mut self.txb, from)
                        .expect("batch matches the queue's slots; descriptor fits the ring's");
                    if from < self.txb.len() {
                        // Ring back-pressure (the only reason a submit
                        // comes up short): the device consumes, then the
                        // remainder is resubmitted.
                        let t = Instant::now();
                        drain_device(nic, &mut self.tstats.value, &mut collect);
                        stalled_ns += t.elapsed().as_nanos() as u64;
                    }
                }
            });
            let busy = &mut self.rx.stats.value.busy_ns;
            *busy = busy.saturating_sub(stalled_ns);
            // Off the clock: the device consumes this chunk's frames.
            drain_device(&mut self.rx.drv.nic, &mut self.tstats.value, &mut collect);
        }
    }
}

/// Let the device consume what the TX ring holds, counting (or, with
/// `collect`, retaining) the wire frames it emits.
fn drain_device(
    nic: &mut SimNic,
    tstats: &mut TxWorkerStats,
    collect: &mut Option<&mut Vec<Vec<u8>>>,
) {
    match collect.as_deref_mut() {
        Some(out) => {
            let frames = nic.process_tx();
            tstats.wire_frames += frames.len() as u64;
            out.extend(frames);
        }
        None => tstats.wire_frames += nic.process_tx_drain(),
    }
}

const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<EngineWorker>();
};

/// Aggregated view of one full-duplex round.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Per-worker RX counters, in queue order.
    pub rx: Vec<WorkerStats>,
    /// Per-worker TX counters, in queue order.
    pub tx: Vec<TxWorkerStats>,
}

impl EngineReport {
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

    /// Packets drained through the RX datapath.
    pub fn total_rx_packets(&self) -> u64 {
        self.rx.iter().map(|w| w.packets).sum()
    }

    /// Busy time of the busiest worker (drain + verdict + submit).
    pub fn max_busy_ns(&self) -> u64 {
        self.rx.iter().map(|w| w.busy_ns).max().unwrap_or(0)
    }

    /// Total host datapath work across workers.
    pub fn sum_busy_ns(&self) -> u64 {
        self.rx.iter().map(|w| w.busy_ns).sum()
    }

    /// Aggregate forwarding throughput: forwarded packets over the
    /// busiest worker's busy time.
    pub fn aggregate_forward_mpps(&self) -> f64 {
        let ns = self.max_busy_ns();
        if ns == 0 {
            return 0.0;
        }
        self.total_forwarded() as f64 * 1e3 / ns as f64
    }
}

/// The full-duplex coordinator: N RX+TX shard pairs, one shared
/// steerer, one shared forward verdict function. Each shard owns one
/// `SimNic` queue pair end to end — the RX→TX forward path never
/// crosses a lock.
pub struct ShardedEngine {
    workers: Vec<EngineWorker>,
    steerer: Steerer,
    forward: Arc<ForwardFn>,
}

impl ShardedEngine {
    /// Uniform engine: every queue shares one `Arc<CompiledRx>` and one
    /// `Arc<CompiledTxPlan>` out of `cache` — two compilations total for
    /// N full-duplex queues.
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
        at_least_one_queue(queues)?;
        let steerer = Steerer::new(policy, queues);
        let mut workers = Vec::with_capacity(queues);
        for q in 0..queues {
            let rx = cache.get_or_compile(model, rx_intent, reg)?;
            let plan = cache.get_or_compile_tx(model, tx_intent, reg)?;
            let nic = SimNic::with_contract(model.clone(), cache.contract(model)?, ring)?;
            let mut drv = OpenDescDriver::attach_shared(nic, rx)?;
            let txq = TxQueue::attach(&mut drv.nic, plan, max_frame);
            workers.push(EngineWorker {
                rx: RxWorker::new(q, drv, batch_cap),
                txq,
                txb: TxBatch::new(batch_cap, max_frame),
                rewrite: Vec::new(),
                tstats: CachePadded::default(),
                pending_tx: None,
            });
        }
        Ok(ShardedEngine {
            workers,
            steerer,
            forward,
        })
    }

    /// Number of full-duplex shard pairs.
    pub fn queues(&self) -> usize {
        self.workers.len()
    }

    /// The shared steering state.
    pub fn steerer(&self) -> &Steerer {
        &self.steerer
    }

    /// The shard pairs, for direct inspection.
    pub fn workers(&self) -> &[EngineWorker] {
        &self.workers
    }

    pub fn workers_mut(&mut self) -> &mut [EngineWorker] {
        &mut self.workers
    }

    /// Live-relayout the whole engine between rounds: every shard
    /// drain-and-flips its RX side onto `rx` (see [`crate::evolve`]),
    /// then swaps its TX queue onto `tx` — TX is quiesced between
    /// `run` calls, so the swap needs no drain of its own. Returns
    /// per-queue flip progress; `Deferred` entries (queues mid-fault)
    /// keep their request and commit on a later call once health
    /// recovers — their TX side flips together with the RX commit,
    /// which is why the TX plan is remembered per worker here. Each
    /// entry is `(progress, drain_polls)`.
    pub fn relayout(
        &mut self,
        rx: &Arc<CompiledRx>,
        tx: Option<&Arc<CompiledTxPlan>>,
        budget: u32,
    ) -> Vec<(FlipProgress, u32)> {
        self.workers
            .iter_mut()
            .map(|ew| {
                ew.rx.request_relayout(Arc::clone(rx));
                if let Some(tx) = tx {
                    ew.pending_tx = Some(Arc::clone(tx));
                }
                ew.finish_relayout(budget)
            })
            .collect()
    }

    /// One round: every worker resets its stats, runs `work` with the
    /// shared verdict function, and reports its RX and TX cells; what
    /// `work` returns comes back per worker, in queue order.
    fn round<R: Send>(
        &mut self,
        pools: &[Vec<ShardFrame>],
        parallel: bool,
        work: impl Fn(usize, &mut EngineWorker, &ForwardFn) -> R + Sync,
    ) -> (EngineReport, Vec<R>) {
        assert_eq!(pools.len(), self.workers.len(), "one pool per worker");
        let fwd: &ForwardFn = &*self.forward;
        let cells = on_each_worker(&mut self.workers, parallel, |q, w| {
            w.reset_stats();
            let out = work(q, w, fwd);
            ((w.rx.stats(), w.tstats.value), out)
        });
        let (cells, outs): (Vec<_>, Vec<R>) = cells.into_iter().unzip();
        let (rx, tx) = cells.into_iter().unzip();
        (EngineReport { rx, tx }, outs)
    }

    /// One parallel round: worker `q` pumps and forwards `pools[q]` on
    /// its own scoped thread. Stats are reset first.
    pub fn run(&mut self, pools: &[Vec<ShardFrame>]) -> EngineReport {
        self.round(pools, true, |q, w, fwd| {
            w.pump_forward(&pools[q], fwd, None)
        })
        .0
    }

    /// [`run`](ShardedEngine::run) without threads — the measurement
    /// harness's variant, for the same reason as
    /// [`ShardedRx::run_sequential`]: per-worker timings stay honest on
    /// hosts with fewer cores than queues.
    pub fn run_sequential(&mut self, pools: &[Vec<ShardFrame>]) -> EngineReport {
        self.round(pools, false, |q, w, fwd| {
            w.pump_forward(&pools[q], fwd, None)
        })
        .0
    }

    /// [`run_sequential`](ShardedEngine::run_sequential) that also
    /// retains every emitted wire frame, per queue — the
    /// equivalence-test entry point.
    pub fn run_collect(&mut self, pools: &[Vec<ShardFrame>]) -> (EngineReport, Vec<Vec<Vec<u8>>>) {
        self.round(pools, false, |q, w, fwd| {
            let mut wire = Vec::new();
            w.pump_forward(&pools[q], fwd, Some(&mut wire));
            wire
        })
    }

    /// One unified snapshot for the whole engine: the RX side registers
    /// exactly like [`ShardedRx::snapshot`] (per-queue `rx.q{N}` scopes
    /// folded into `rx.engine`), and the TX side mirrors it with
    /// `tx.q{N}` scopes folded into `tx.engine`.
    pub fn snapshot(&self) -> Snapshot {
        let mut reg = MetricRegistry::default();
        reg.gauge("rx.engine.queues", self.workers.len() as f64);
        reg.gauge("tx.engine.queues", self.workers.len() as f64);
        for w in &self.workers {
            w.rx.register_into(&mut reg, "rx.engine");
            let scope = format!("tx.q{}", w.rx.queue);
            let q = &w.txq.stats;
            let t = &w.tstats.value;
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
        register_worst_health(&mut reg, self.workers.iter().map(|w| &w.rx.drv));
        reg.snapshot()
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

    #[test]
    fn uniform_engine_shares_one_artifact() {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let i = intent(&mut reg);
        let eng = ShardedRx::new_uniform(
            &cache,
            &models::e1000e(),
            &i,
            &mut reg,
            4,
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
        let eng = ShardedRx::with_intents(
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
        let mut eng = ShardedRx::with_intents(
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
        assert_eq!(eng.deliver(&frames[0]).unwrap(), 0);
        assert_eq!(eng.deliver(&frames[1]).unwrap(), 1);
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
        let (i, ti) = (intent(&mut reg), tx_intent(&mut reg));
        let model = models::e1000e();
        let refused = |r: Result<(), ShardError>| {
            assert!(
                matches!(r, Err(ShardError::Nic(NicError::BadConfig(_)))),
                "{r:?}"
            );
        };
        let rx = ShardedRx::with_intents(&cache, &model, &[], &mut reg, 64, SteerPolicy::Rss, 16);
        refused(rx.map(drop));
        let rx = ShardedRx::new_uniform(&cache, &model, &i, &mut reg, 0, 64, SteerPolicy::Rss, 16);
        refused(rx.map(drop));
        let fwd: Arc<ForwardFn> = Arc::new(|_: &RxBatch, _, _: &mut Vec<u8>| TxVerdict::Drop);
        let policy = SteerPolicy::Rss;
        let eng = ShardedEngine::new_uniform(
            &cache, &model, &i, &ti, &mut reg, 0, 64, policy, 16, 256, fwd,
        );
        refused(eng.map(drop));
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
            let eng =
                ShardedRx::new_uniform(&cache, &model, &i, &mut reg, 2, 64, SteerPolicy::Rss, 16)
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
        let mut eng = ShardedRx::new_uniform(
            &cache,
            &models::e1000e(),
            &i,
            &mut reg,
            4,
            256,
            SteerPolicy::Rss,
            32,
        )
        .unwrap();
        let pools = ShardedPktGen::generate(Workload::default(), eng.steerer(), 500).into_pools();
        let report = eng.run(&pools);
        assert_eq!(report.total_packets(), 500);
        assert_eq!(report.per_worker.len(), 4);
        for (q, w) in report.per_worker.iter().enumerate() {
            assert_eq!(
                w.packets,
                pools[q].len() as u64,
                "queue {q} drained exactly its pool"
            );
            assert_eq!(w.steered, pools[q].len() as u64);
            assert!(w.packets == 0 || w.busy_ns > 0);
        }
        assert!(report.aggregate_mpps() > 0.0);
        // A second run reports only its own round (stats reset).
        let report2 = eng.run(&pools);
        assert_eq!(report2.total_packets(), 500);
        // The sequential measurement harness drains identical counts.
        let seq = eng.run_sequential(&pools);
        assert_eq!(seq.total_packets(), 500);
        for (p, w) in report.per_worker.iter().zip(&seq.per_worker) {
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
        let mut eng = ShardedRx::new_uniform(
            &cache,
            &models::e1000e(),
            &i,
            &mut reg,
            2,
            256,
            SteerPolicy::RoundRobin,
            16,
        )
        .unwrap();
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
        let frames = opendesc_nicsim::PktGen::new(Workload::default()).batch(40);
        for f in &frames {
            eng.deliver(f).unwrap();
        }
        let drained: usize = eng
            .drain_collect_parallel()
            .iter()
            .map(|per_q| per_q.len())
            .sum();
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
        // Device-injected and host-caught numbers line up in the merged
        // view: every injected duplicate was discarded by a validator.
        let injected = snap.counter("rx.engine.nic.duplicated");
        assert!(injected > 0);
        assert_eq!(injected, snap.counter("rx.engine.validation.duplicates"));
    }

    fn tx_intent(reg: &mut SemanticRegistry) -> Intent {
        Intent::builder("fwd").want(reg, names::TX_IP_CSUM).build()
    }

    #[test]
    fn full_duplex_engine_forwards_every_packet() {
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
            2,
            256,
            SteerPolicy::Rss,
            32,
            2048,
            Arc::new(|_b: &RxBatch, _i: usize, _s: &mut Vec<u8>| {
                TxVerdict::Forward(TxRequest::default())
            }),
        )
        .unwrap();
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
        let (report2, wires) = eng.run_collect(&pools);
        assert_eq!(report2.total_forwarded(), 400);
        for (q, wire) in wires.iter().enumerate() {
            let want: Vec<&[u8]> = pools[q].iter().map(|sf| sf.bytes.as_slice()).collect();
            let got: Vec<&[u8]> = wire.iter().map(|f| f.as_slice()).collect();
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
        let (report, wires) = eng.run_collect(&pools);
        assert_eq!(
            report.total_forwarded() + report.total_dropped(),
            100,
            "every packet got a verdict"
        );
        assert_eq!(report.tx[0].rewritten, report.total_forwarded());
        for (wire, orig) in wires[0]
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
    fn adaptive_run_conserves_and_flattens_skew() {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let i = intent(&mut reg);
        let mut eng = ShardedRx::new_uniform(
            &cache,
            &models::e1000e(),
            &i,
            &mut reg,
            4,
            256,
            SteerPolicy::Rss,
            32,
        )
        .unwrap();
        let wl = Workload::zipf(64, 1.3, 2);
        let total = 6_000;
        // Static arm: frozen RETA, no stealing.
        let stat = eng.run_adaptive(
            &wl,
            total,
            &AdaptiveConfig::static_reta(1_000),
            &mut |_, _, _| {},
        );
        assert_eq!(stat.report.total_packets(), total as u64);
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
        let adp = eng.run_adaptive(
            &wl,
            total,
            &AdaptiveConfig {
                interval: 1_000,
                ..AdaptiveConfig::default()
            },
            &mut |_, _, _| {},
        );
        assert_eq!(adp.report.total_packets(), total as u64);
        let reb = adp.rebalance.expect("adaptive arm reports control stats");
        assert!(reb.migrations > 0, "skew must trigger migrations: {reb:?}");
        assert!(
            adp.occupancy_imbalance() <= stat.occupancy_imbalance(),
            "adaptive {} vs static {}",
            adp.occupancy_imbalance(),
            stat.occupancy_imbalance()
        );
        for w in &adp.report.per_worker {
            assert_eq!(w.health, QueueHealth::Healthy);
        }
    }

    #[test]
    fn sequential_deliver_then_parallel_drain() {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let i = intent(&mut reg);
        let mut eng = ShardedRx::new_uniform(
            &cache,
            &models::ixgbe(),
            &i,
            &mut reg,
            2,
            512,
            SteerPolicy::Rss,
            32,
        )
        .unwrap();
        let frames = opendesc_nicsim::PktGen::new(Workload::default()).batch(100);
        for f in &frames {
            eng.deliver(f).unwrap();
        }
        let got: usize = eng
            .drain_collect_parallel()
            .iter()
            .map(|per_q| per_q.len())
            .sum();
        assert_eq!(got, 100);
    }
}
