//! `fwd_2q`: the `fwd` traffic and intents through the production run
//! loop, `ShardedEngine::run`, really run on two threads. One sample is
//! one `run` over the per-queue pools, wall-clock.

use crate::clock;
use crate::negotiate::{bench7, tx_intent};
use crate::oracle::Oracle;
use crate::packet::{forward_traffic, BATCH, FORWARD_REQ, MAX_FRAME};
use opendesc_core::{EngineReport, ForwardFn, PlanCache, RxBatch, ShardedEngine, TxVerdict};
use opendesc_ir::{names, SemanticRegistry};
use opendesc_nicsim::{models, ShardFrame, ShardedPktGen, SteerPolicy};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const QUEUES: usize = 2;
/// Per-queue ring; the engine feeds it in `BATCH`-sized chunks.
pub const QUEUE_RING: usize = 256;
/// Frames per run, across both queues.
pub const POOL: usize = 4096;

/// What the verdict function shares with the main thread. The oracle
/// is consulted only while `verifying` is set (untimed runs).
struct Shared {
    verifying: AtomicBool,
    oracle: Mutex<Oracle>,
}

pub struct Engine {
    eng: ShardedEngine,
    pools: Vec<Vec<ShardFrame>>,
    cache: PlanCache,
    shared: Arc<Shared>,
}

/// One `run`, in core cycles by the probes on the calling thread.
pub struct Run {
    pub wall_cyc: f64,
    /// `EngineReport::sum_busy_ns`: host datapath work of both workers.
    pub busy_cyc: f64,
    pub wall_ns: u64,
    pub busy_ns: u64,
    pub max_busy_ns: u64,
    pub packets: u64,
}

impl Engine {
    pub fn setup(seed: u64) -> Result<Engine, String> {
        let model = models::ice();
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let rx = bench7(&mut reg);
        let tx = tx_intent(&mut reg);
        // The verdict needs the accessor table before the engine exists;
        // the engine's own requests for the same plan then hit the cache.
        let compiled = cache
            .get_or_compile(&model, &rx, &mut reg)
            .map_err(|e| format!("fwd_2q: {e}"))?;
        let rss = reg.id(names::RSS_HASH).expect("builtin semantic");
        let rss_field = compiled
            .accessors
            .accessors
            .iter()
            .position(|a| a.semantic == rss)
            .expect("bench7 asks for rss_hash");
        let fields = compiled.accessors.accessors.len();
        let shared = Arc::new(Shared {
            verifying: AtomicBool::new(false),
            oracle: Mutex::new(Oracle::new(&compiled, false)),
        });
        let sh = Arc::clone(&shared);
        let forward: Arc<ForwardFn> = Arc::new(move |b: &RxBatch, pkt: usize, _: &mut Vec<u8>| {
            let mut acc = 0u128;
            for field in 0..fields {
                acc ^= b.value_at(field, pkt).unwrap_or(0);
            }
            black_box(acc);
            if sh.verifying.load(Ordering::Relaxed) {
                sh.oracle
                    .lock()
                    .expect("no verdict panics while holding the oracle")
                    .check_packet(b.frame(pkt), |field| b.value_at(field, pkt));
            }
            match b.value_at(rss_field, pkt) {
                Some(_) => TxVerdict::Forward(FORWARD_REQ),
                None => TxVerdict::Drop,
            }
        });
        let eng = ShardedEngine::new_uniform(
            &cache,
            &model,
            &rx,
            &tx,
            &mut reg,
            QUEUES,
            QUEUE_RING,
            SteerPolicy::Rss,
            BATCH,
            MAX_FRAME,
            forward,
        )
        .map_err(|e| format!("fwd_2q: {e}"))?;
        let pools =
            ShardedPktGen::generate(forward_traffic(seed), eng.steerer(), POOL).into_pools();
        Ok(Engine {
            eng,
            pools,
            cache,
            shared,
        })
    }

    pub fn run(&mut self) -> (Run, EngineReport) {
        let pa = clock::probe_ns();
        let t = Instant::now();
        let rep = self.eng.run(&self.pools);
        let wall_ns = t.elapsed().as_nanos() as u64;
        let pb = clock::probe_ns();
        let run = Run {
            wall_cyc: clock::cycles(wall_ns, pa, pb),
            busy_cyc: clock::cycles(rep.sum_busy_ns(), pa, pb),
            wall_ns,
            busy_ns: rep.sum_busy_ns(),
            max_busy_ns: rep.max_busy_ns(),
            packets: rep.total_rx_packets(),
        };
        (run, rep)
    }

    /// One verified run: every packet's values against the reference in
    /// the verdict, and offered == rx == forwarded == wire.
    pub fn verify_run(&mut self) -> EngineReport {
        self.shared.verifying.store(true, Ordering::Relaxed);
        let (_, rep) = self.run();
        self.shared.verifying.store(false, Ordering::Relaxed);
        let offered: u64 = self.pools.iter().map(|p| p.len() as u64).sum();
        let mut o = self.shared.oracle.lock().expect("workers have joined");
        o.expect_eq("rx packets", rep.total_rx_packets(), offered);
        o.expect_eq("forwarded", rep.total_forwarded(), offered);
        o.expect_eq("wire frames", rep.total_wire_frames(), offered);
        o.attempted += offered;
        drop(o);
        rep
    }

    /// The oracle's `(attempted, failed, examples)` over all verified
    /// runs so far.
    pub fn verdict(&self) -> (u64, u64, Vec<String>) {
        let o = self.shared.oracle.lock().expect("workers have joined");
        (o.attempted, o.failed, o.examples.clone())
    }

    /// `(hits, misses)` of the plan cache over set-up, RX and TX.
    pub fn cache_stats(&self) -> (u64, u64) {
        let (rh, rm) = self.cache.stats();
        let (th, tm) = self.cache.tx_stats();
        (rh + th, rm + tm)
    }
}
