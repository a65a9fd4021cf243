//! The four single-queue packet workloads and the loop that drives
//! them: closed loop, one generator thread, in-process simulated NIC.
//!
//! A *chunk* is 256 frames (half the ring): the device model is fed the
//! chunk, then the host drains the queue until nothing is in flight. A
//! *lap* is one pass over the workload's fixed frame pool, so every lap
//! does identical work. Each chunk is bracketed by a probe and its
//! phases are reported in core cycles.

use crate::alloc;
use crate::clock;
use crate::negotiate::{bench7, tx_intent, RING};
use crate::oracle::Oracle;
use crate::trace::{Name, Spans};
use opendesc_core::{
    AccessorKind, OpenDescDriver, PlanCache, RxBatch, TxBatch, TxQueue, TxRequest,
};
use opendesc_ir::{names, SemanticRegistry};
use opendesc_nicsim::{
    models, FaultConfig, NicModel, PktGen, SimNic, SteerPolicy, Steerer, Transport, Workload,
};
use opendesc_softnic::wire::ParsedFrame;
use opendesc_softnic::{ShimMemo, ShimOp, SoftNic};
use std::hint::black_box;
use std::time::Instant;

/// Frames per probed chunk: half the ring, so a chunk (plus the
/// duplicates a faulty device replays) always fits.
pub const CHUNK: usize = RING / 2;
/// RX poll budget and TX batch size (a typical NAPI budget).
pub const BATCH: usize = 32;
/// Largest frame the TX arena accepts.
pub const MAX_FRAME: usize = 1600;
/// Per-class fault rate of `rx_faulty`.
pub const FAULT_RATE: f64 = 0.01;

pub struct Spec {
    pub name: &'static str,
    pub model: fn() -> NicModel,
    pub traffic: fn(u64) -> Workload,
    pub pool: usize,
    /// Feed through `Steerer::steer` + `deliver_steered`, so completions
    /// carry the device's RSS hash; otherwise plain `deliver`.
    pub steered: bool,
    pub faulty: bool,
    pub forward: bool,
}

fn small_udp(seed: u64) -> Workload {
    Workload {
        seed,
        ..Workload::min_size(256)
    }
}

pub fn forward_traffic(seed: u64) -> Workload {
    Workload {
        flows: 256,
        payload: (18, 1400),
        transport: Transport::Udp,
        vlan_fraction: 0.5,
        seed,
        ..Workload::default()
    }
}

pub const RX_HW: Spec = Spec {
    name: "rx_hw",
    model: models::qdma_default,
    traffic: small_udp,
    pool: 8192,
    steered: true,
    faulty: false,
    forward: false,
};

pub const RX_SW: Spec = Spec {
    name: "rx_sw",
    model: models::e1000e,
    traffic: |seed| Workload {
        seed,
        ..Workload::kvs(256)
    },
    pool: 8192,
    steered: false,
    faulty: false,
    forward: false,
};

pub const RX_FAULTY: Spec = Spec {
    name: "rx_faulty",
    model: models::ixgbe,
    traffic: small_udp,
    pool: 8192,
    steered: true,
    faulty: true,
    forward: false,
};

pub const FWD: Spec = Spec {
    name: "fwd",
    model: models::ice,
    traffic: forward_traffic,
    pool: 4096,
    steered: true,
    faulty: false,
    forward: true,
};

/// The packet workload called `name`, if there is one.
pub fn spec(name: &str) -> Option<&'static Spec> {
    [&RX_HW, &RX_SW, &RX_FAULTY, &FWD]
        .into_iter()
        .find(|s| s.name == name)
}

/// The fault classes whose handling has one right outcome under the
/// default `Structural` validation: short records are served degraded,
/// replays and stale generations are discarded, hidden completions are
/// republished by the watchdog. Bit corruption and torn writebacks are
/// left out: `Structural` mode lets structurally plausible corruptions
/// through by design, and a benchmark workload must not fail operations.
pub fn faults(seed: u64) -> FaultConfig {
    FaultConfig::builder()
        .truncate_chance(FAULT_RATE)
        .duplicate_chance(FAULT_RATE)
        .stale_gen_chance(FAULT_RATE)
        .doorbell_loss_chance(FAULT_RATE)
        .seed(seed)
        .build()
        .expect("rates are probabilities")
}

pub const FORWARD_REQ: TxRequest = TxRequest {
    ip_csum: true,
    l4_csum: false,
    vlan: None,
};

/// What one lap measured. Cycles are totals over the lap.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lap {
    /// Device feed: steer + deliver.
    pub feed_cyc: f64,
    /// Host: poll + value reads + verdict + push + submit.
    pub host_cyc: f64,
    /// Device TX drain.
    pub drain_cyc: f64,
    pub host_ns: u64,
    pub wall_ns: u64,
    pub delivered: u64,
    pub polls: u64,
    pub empty_polls: u64,
}

impl Lap {
    pub fn wall_cyc(&self) -> f64 {
        self.feed_cyc + self.host_cyc + self.drain_cyc
    }
    pub fn per_op(&self, cyc: f64) -> f64 {
        cyc / self.delivered.max(1) as f64
    }
}

/// State of the verification laps: the oracle plus the exact counts
/// that are read only at phase boundaries.
pub struct Check {
    pub oracle: Oracle,
    /// Frames handed to `TxBatch::push` in the current chunk.
    sent: Vec<Vec<u8>>,
    pub device_allocs: u64,
    pub host_allocs: u64,
    pub cmpt_bytes: u64,
    pub offered: u64,
    pub wire_frames: u64,
}

pub struct Packet {
    pub spec: &'static Spec,
    pool: Vec<Vec<u8>>,
    steerer: Steerer,
    pub drv: OpenDescDriver,
    batch: RxBatch,
    pub tx: Option<(TxQueue, TxBatch)>,
    /// Position of `rss_hash` in accessor order (the forward verdict).
    rss_field: usize,
    fields: usize,
    forward: [bool; BATCH],
    sink: u128,
}

impl Packet {
    /// Pool generation + `SimNic::new` + compile + attach: everything a
    /// fresh process pays before its first packet.
    pub fn setup(spec: &'static Spec, seed: u64) -> Result<Packet, String> {
        let pool = PktGen::new((spec.traffic)(seed)).batch(spec.pool);
        let model = (spec.model)();
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let intent = bench7(&mut reg);
        let rx = cache
            .get_or_compile(&model, &intent, &mut reg)
            .map_err(|e| format!("{}: {e}", spec.name))?;
        let nic = SimNic::new(model.clone(), RING).map_err(|e| format!("{}: {e}", spec.name))?;
        let mut drv =
            OpenDescDriver::attach_shared(nic, rx).map_err(|e| format!("{}: {e}", spec.name))?;
        if spec.faulty {
            drv.nic
                .set_faults(faults(seed))
                .map_err(|e| format!("{}: {e}", spec.name))?;
        }
        let tx = if spec.forward {
            let intent = tx_intent(&mut reg);
            let plan = cache
                .get_or_compile_tx(&model, &intent, &mut reg)
                .map_err(|e| format!("{} tx: {e}", spec.name))?;
            Some((
                TxQueue::attach(&mut drv.nic, plan, MAX_FRAME),
                TxBatch::new(BATCH, MAX_FRAME),
            ))
        } else {
            None
        };
        let batch = drv.make_batch(BATCH);
        let rss = reg.id(names::RSS_HASH).expect("builtin semantic");
        let rss_field = batch
            .semantics()
            .iter()
            .position(|s| *s == rss)
            .expect("bench7 asks for rss_hash");
        Ok(Packet {
            spec,
            pool,
            steerer: Steerer::new(SteerPolicy::Rss, 1),
            fields: batch.semantics().len(),
            batch,
            drv,
            tx,
            rss_field,
            forward: [false; BATCH],
            sink: 0,
        })
    }

    pub fn check(&self) -> Check {
        Check {
            oracle: Oracle::new(&self.drv.iface, self.spec.faulty),
            sent: Vec::new(),
            device_allocs: 0,
            host_allocs: 0,
            cmpt_bytes: 0,
            offered: 0,
            wire_frames: 0,
        }
    }

    /// `(hardware, software)` accessor counts of the compiled interface.
    pub fn field_split(&self) -> (usize, usize) {
        let hw = self
            .drv
            .iface
            .accessors
            .accessors
            .iter()
            .filter(|a| a.kind == AccessorKind::Hardware)
            .count();
        (hw, self.fields - hw)
    }

    /// One pass over the pool. With `check`, the lap also verifies every
    /// delivered packet and wire frame and takes the exact counts; such
    /// laps are never timed.
    pub fn lap<S: Spans>(&mut self, s: &mut S, mut check: Option<&mut Check>) -> Lap {
        let mut out = Lap::default();
        let steered = self.spec.steered;
        let mut verdicts = Vec::with_capacity(BATCH);
        for (c, chunk) in self.pool.chunks(CHUNK).enumerate() {
            let dma0 = self.drv.nic.dma.bytes;
            let pa = clock::probe_ns();
            let root = s.open(Name::Chunk);
            let a0 = alloc::events();
            let t0 = Instant::now();

            // Steer a batch, then deliver it: one span per call site per
            // batch, so the clock reads do not distort per-frame costs.
            for (b, sub) in chunk.chunks(BATCH).enumerate() {
                if steered {
                    let first = (c * CHUNK + b * BATCH) as u64;
                    s.call(Name::Steer, || {
                        for (i, f) in sub.iter().enumerate() {
                            verdicts.push(self.steerer.steer(first + i as u64, f));
                        }
                    });
                    s.call(Name::Deliver, || {
                        for (f, v) in sub.iter().zip(&verdicts) {
                            self.drv
                                .deliver_steered(f, v.parsed.as_ref(), v.rss)
                                .expect("a chunk fits the ring");
                        }
                    });
                    verdicts.clear();
                } else {
                    s.call(Name::Deliver, || {
                        for f in sub {
                            self.drv.deliver(f).expect("a chunk fits the ring");
                        }
                    });
                }
            }

            let a1 = alloc::events();
            let dma1 = self.drv.nic.dma.bytes;
            let t1 = Instant::now();

            let mut oracle_allocs = 0;
            let mut next = 0;
            let mut idle = 0u32;
            loop {
                let n = s.call(Name::Poll, || self.drv.poll_batch_into(&mut self.batch));
                out.polls += 1;
                if n == 0 {
                    out.empty_polls += 1;
                    if self.drv.in_flight() == 0 {
                        break;
                    }
                    idle += 1;
                    assert!(idle < 4096, "{}: queue never quiesced", self.spec.name);
                    continue;
                }
                idle = 0;
                out.delivered += n as u64;
                s.call(Name::Verdict, || {
                    let mut acc = 0u128;
                    for field in 0..self.fields {
                        for pkt in 0..n {
                            acc ^= self.batch.value_at(field, pkt).unwrap_or(0);
                        }
                    }
                    for pkt in 0..n {
                        self.forward[pkt] = self.batch.value_at(self.rss_field, pkt).is_some();
                    }
                    self.sink ^= acc;
                });
                if let Some(chk) = check.as_deref_mut() {
                    let before = alloc::events();
                    for pkt in 0..n {
                        let frame = self.batch.frame(pkt);
                        // Delivery is in order: the frame is the next
                        // offered one, or — behind a faulty device — a
                        // later one, the skipped frames being lost.
                        match chunk[next..].iter().position(|f| f.as_slice() == frame) {
                            Some(skip) => next += skip + 1,
                            None => chk
                                .oracle
                                .fail(1, "delivered a frame that was not offered".into()),
                        }
                        chk.oracle
                            .check_packet(frame, |field| self.batch.value_at(field, pkt));
                        if self.tx.is_some() && self.forward[pkt] {
                            chk.sent.push(frame.to_vec());
                        }
                    }
                    oracle_allocs += alloc::events() - before;
                }
                if let Some((q, tb)) = self.tx.as_mut() {
                    s.call(Name::TxPush, || {
                        tb.clear();
                        for pkt in 0..n {
                            if self.forward[pkt] {
                                let fits = tb.push(self.batch.frame(pkt), FORWARD_REQ);
                                assert!(fits, "frame fits the TX arena");
                            }
                        }
                    });
                    let placed = s
                        .call(Name::TxSubmit, || q.submit(&mut self.drv.nic, tb))
                        .expect("descriptor fits the ring slot");
                    assert_eq!(placed, tb.len(), "a chunk fits the TX ring");
                }
            }

            let a2 = alloc::events();
            let t2 = Instant::now();

            if self.tx.is_some() {
                match check.as_deref_mut() {
                    None => {
                        black_box(s.call(Name::TxDrain, || self.drv.nic.process_tx_drain()));
                    }
                    Some(chk) => {
                        let wire = self.drv.nic.process_tx();
                        chk.wire_frames += wire.len() as u64;
                        chk.oracle.expect_eq(
                            "wire frames",
                            wire.len() as u64,
                            chk.sent.len() as u64,
                        );
                        for (input, w) in chk.sent.iter().zip(&wire) {
                            chk.oracle.check_wire(input, w);
                        }
                        chk.sent.clear();
                    }
                }
            }

            let t3 = Instant::now();
            let a3 = alloc::events();
            s.close(root);
            let pb = clock::probe_ns();
            s.fold(root, pa, pb);

            let (feed, host, drain) = (
                (t1 - t0).as_nanos() as u64,
                (t2 - t1).as_nanos() as u64,
                (t3 - t2).as_nanos() as u64,
            );
            out.feed_cyc += clock::cycles(feed, pa, pb);
            out.host_cyc += clock::cycles(host, pa, pb);
            out.drain_cyc += clock::cycles(drain, pa, pb);
            out.host_ns += host;
            out.wall_ns += feed + host + drain;
            if let Some(chk) = check.as_deref_mut() {
                chk.offered += chunk.len() as u64;
                chk.device_allocs += (a1 - a0) + (a3 - a2);
                chk.host_allocs += (a2 - a1) - oracle_allocs;
                chk.cmpt_bytes += dma1 - dma0;
            }
        }
        black_box(self.sink);
        out
    }
}

/// Isolated replays of single public functions over the same pool, for
/// the layers a span around `poll_batch_into` cannot separate.
pub struct Replay {
    /// Twin NIC on the same contract and context, fault-free.
    twin: SimNic,
    soft: SoftNic,
    frames: Vec<Vec<u8>>,
    cmpts: Vec<Vec<u8>>,
}

impl Replay {
    pub fn new(p: &Packet) -> Result<Replay, String> {
        let mut twin = SimNic::new((p.spec.model)(), RING).map_err(|e| e.to_string())?;
        if let Some(ctx) = &p.drv.iface.context {
            twin.configure(ctx.clone()).map_err(|e| e.to_string())?;
        }
        Ok(Replay {
            twin,
            soft: SoftNic::new(),
            frames: vec![Vec::new(); BATCH],
            cmpts: vec![Vec::new(); BATCH],
        })
    }

    /// `receive_into_hinted` alone: the twin is fed exactly like the
    /// workload's NIC (off the clock), then drained into recycled
    /// buffers. Cycles per frame.
    pub fn ring_consume(&mut self, p: &Packet) -> f64 {
        let mut cyc = 0.0;
        for (c, chunk) in p.pool.chunks(CHUNK).enumerate() {
            for (i, f) in chunk.iter().enumerate() {
                let fed = if p.spec.steered {
                    let v = p.steerer.steer((c * CHUNK + i) as u64, f);
                    self.twin.deliver_steered(f, v.parsed.as_ref(), v.rss)
                } else {
                    self.twin.deliver(f)
                };
                fed.expect("a chunk fits the ring");
            }
            cyc += clock::timed_cycles(|| {
                let mut i = 0;
                while let Some(side) = self
                    .twin
                    .receive_into_hinted(&mut self.frames[i % BATCH], &mut self.cmpts[i % BATCH])
                {
                    black_box(side);
                    i += 1;
                }
            })
            .1;
        }
        cyc / p.pool.len() as f64
    }

    /// `SimNic::offload_record`: the device's offload engines, no rings.
    pub fn offload(&mut self, p: &Packet) -> f64 {
        let mut cyc = 0.0;
        for chunk in p.pool.chunks(CHUNK) {
            cyc += clock::timed_cycles(|| {
                for f in chunk {
                    black_box(self.twin.offload_record(f));
                }
            })
            .1;
        }
        cyc / p.pool.len() as f64
    }

    /// `ParsedFrame::parse`.
    pub fn parse(&mut self, p: &Packet) -> f64 {
        let mut cyc = 0.0;
        for chunk in p.pool.chunks(CHUNK) {
            cyc += clock::timed_cycles(|| {
                for f in chunk {
                    black_box(ParsedFrame::parse(black_box(f)));
                }
            })
            .1;
        }
        cyc / p.pool.len() as f64
    }

    /// `SoftNic::exec_op` for one semantic over frames parsed off the
    /// clock, the memo primed with the device's hash where the
    /// workload's completions carry one (as the compiled plan does).
    pub fn shim(&mut self, p: &Packet, semantic: &str) -> f64 {
        let op = ShimOp::from_name(semantic);
        let mut cyc = 0.0;
        for (c, chunk) in p.pool.chunks(CHUNK).enumerate() {
            let parsed: Vec<_> = chunk
                .iter()
                .enumerate()
                .filter_map(|(i, f)| {
                    let hint = if p.spec.steered {
                        p.steerer.steer((c * CHUNK + i) as u64, f).rss
                    } else {
                        None
                    };
                    Some((ParsedFrame::parse(f)?, f.len(), hint))
                })
                .collect();
            cyc += clock::timed_cycles(|| {
                for (frame, len, hint) in &parsed {
                    let mut memo = ShimMemo::default();
                    if let Some(h) = hint {
                        memo.prime_rss(*h);
                    }
                    black_box(self.soft.exec_op(op, frame, *len, &mut memo));
                }
            })
            .1;
        }
        cyc / p.pool.len() as f64
    }
}
