//! One benchmark run: set-up, warm-up, timed samples, verification.
//!
//! Untraced (`--trace 0`) a run measures the end-to-end metrics and
//! nothing else. Traced (`--trace 1`) it spends the same time on the
//! per-layer metrics: untraced, traced and telemetry-on laps take turns
//! lap by lap (so drift hits them alike and their ratios hold), then
//! isolated replays, then staged negotiations of the workload's model.

use crate::alloc;
use crate::clock::{self, Summary};
use crate::engine::{self, Engine};
use crate::metrics::Report;
use crate::negotiate::{staged_lap, Negotiate};
use crate::packet::{self, Packet, Replay, BATCH};
use crate::trace::{LapTotals, Name, Off, Tracer};
use opendesc_core::ValidationStats;
use opendesc_nicsim::NicModel;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 6] = ["rx_hw", "rx_sw", "rx_faulty", "fwd", "fwd_2q", "negotiate"];
/// Runs by name like the others but is not in `BENCHMARK.json`: on the
/// two virtual cores this repository is measured on, the share of a
/// second core a process really gets moves by tens of percent for
/// minutes at a time, and the driver admits no bound that wide.
pub const UNGATED: &str = "fwd_2q";

/// Fresh set-ups timed per run, spread over it; `setup_s` is their
/// median.
const SETUPS: usize = 25;
/// Verification laps: untimed, at the workload seed, so their counts
/// repeat exactly.
const VERIFY_LAPS: usize = 2;
/// Warm-up before any sample is kept.
const WARM_UP: Duration = Duration::from_millis(300);
const MIB: f64 = 1024.0 * 1024.0;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One timed sample, per operation.
pub struct Sample {
    pub wall_cyc: f64,
    pub host_cyc: f64,
    pub wall_ns: f64,
    pub host_ns: f64,
}

/// What verification found, with the exact per-layer counts it took.
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub examples: Vec<String>,
    pub counts: Vec<(&'static str, f64)>,
}

/// What the generic run needs from a workload.
trait Bench: Sized {
    const THREADS: usize = 1;
    const PARALLEL: &'static str = "single";
    fn setup(name: &str, seed: u64) -> Result<Self, String>;
    fn sample(&mut self) -> Result<Sample, String>;
    fn verify(&mut self) -> Verdict;
    /// Spend about `budget` on the per-layer metrics.
    fn layers(&mut self, budget: Duration, rep: &mut Report) -> Result<(), String>;
}

pub fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "fwd_2q" => run_bench::<Engine>(args),
        "negotiate" => run_bench::<Negotiate>(args),
        name if packet::spec(name).is_some() => run_bench::<Packet>(args),
        other => Err(format!(
            "unknown workload `{other}`; one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

fn run_bench<B: Bench>(args: &Args) -> Result<Report, String> {
    let name = WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == args.workload)
        .expect("dispatched on a listed name");
    let mut rep = Report::new(name, args.seed, args.seconds, args.trace);
    rep.threads = B::THREADS;
    rep.parallel = B::PARALLEL;
    let budget = Duration::from_secs(args.seconds);

    // Set-up under the counting allocator, plus one lap: what is live
    // now is what the workload keeps resident.
    alloc::start();
    let mut b = B::setup(name, args.seed)?;
    b.sample()?;
    let live = alloc::live_bytes();
    alloc::stop();

    warm_up(&mut b)?;
    if args.trace {
        b.layers(budget, &mut rep)?;
    } else {
        rep.set("mem_mib", live as f64 / MIB);
        // Fresh set-ups are timed between laps, spread evenly over the
        // run, so that a slow spell of the machine catches only some.
        let mut setups = Vec::with_capacity(SETUPS);
        let (mut wall, mut host) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while start.elapsed() < budget {
            if start.elapsed() >= budget.mul_f64(setups.len() as f64 / SETUPS as f64) {
                let (fresh, cyc) = clock::timed_cycles(|| B::setup(name, args.seed));
                drop(fresh?);
                setups.push(cyc / clock::NOMINAL_HZ);
            }
            rep.probes.push(clock::probe_ns() as f64);
            let s = b.sample()?;
            wall.push(s.wall_cyc);
            host.push(s.host_cyc);
        }
        rep.set("setup_s", Summary::of(&setups).p50);
        rep.noise = rep.set_p10("wall_cyc_per_op", &wall).noise();
        rep.set_p10("host_cyc_per_op", &host);
    }

    alloc::start();
    let v = b.verify();
    alloc::stop();
    rep.attempted = v.attempted;
    rep.failed = v.failed;
    rep.examples = v.examples;
    if args.trace {
        for (name, value) in v.counts {
            rep.set(name, value);
        }
    }
    Ok(rep)
}

fn warm_up<B: Bench>(b: &mut B) -> Result<(), String> {
    let end = Instant::now() + WARM_UP;
    while Instant::now() < end {
        b.sample()?;
    }
    Ok(())
}

/// Samples of the untraced reference laps taken during a traced run,
/// turned into the self-check metrics every workload reports.
#[derive(Default)]
struct Reference {
    wall_cyc: Vec<f64>,
    host_cyc: Vec<f64>,
    wall_ns: Vec<f64>,
    host_ns: Vec<f64>,
}

impl Reference {
    fn push(&mut self, rep: &mut Report, s: Sample) {
        rep.probes.push(clock::probe_ns() as f64);
        self.wall_cyc.push(s.wall_cyc);
        self.host_cyc.push(s.host_cyc);
        self.wall_ns.push(s.wall_ns);
        self.host_ns.push(s.host_ns);
    }

    /// Returns the untraced wall and host low deciles.
    fn report(&self, rep: &mut Report) -> (f64, f64) {
        let wall = Summary::of(&self.wall_cyc);
        rep.noise = wall.noise();
        rep.set("bench.noise", rep.noise);
        rep.set("bench.samples", wall.n as f64);
        rep.set("bench.probe_ns_p50", Summary::of(&rep.probes).p50);
        rep.set("bench.host_ns_per_op_raw", Summary::of(&self.host_ns).p50);
        let wall_ns = Summary::of(&self.wall_ns).p50;
        rep.set(
            "bench.wall_mops_raw",
            if wall_ns > 0.0 { 1e3 / wall_ns } else { 0.0 },
        );
        (wall.p10, Summary::of(&self.host_cyc).p10)
    }
}

/// The spans of a staged negotiation and the metric each feeds: the
/// device boot, then the stages in order, then the whole negotiation.
const STAGES: [(Name, &str); 11] = [
    (Name::NicBoot, "nicsim.boot_kcyc"),
    (Name::Intent, "core.intent_kcyc"),
    (Name::ParseCheck, "p4.parse_check_kcyc"),
    (Name::Extract, "ir.extract_kcyc"),
    (Name::Enumerate, "ir.enumerate_kcyc"),
    (Name::SelectSynth, "core.select_synth_kcyc"),
    (Name::LowerVerify, "core.lower_verify_kcyc"),
    (Name::CompileTx, "core.compile_tx_kcyc"),
    (Name::Manifest, "core.manifest_kcyc"),
    (Name::Release, "core.release_kcyc"),
    (Name::Negotiation, "core.negotiate_kcyc"),
];

/// Stage metrics from staged negotiations of `models`, each lap one
/// pass over them; values are per negotiation. `turn` runs before every
/// lap (whatever is to take turns with the staged laps). The last user
/// of the tracer: hands its kept spans to the report.
fn staged_metrics(
    models: &[NicModel],
    budget: Duration,
    tracer: &mut Tracer,
    rep: &mut Report,
    mut turn: impl FnMut(&mut Report) -> Result<(), String>,
) -> Result<(), String> {
    let per = 1e3 * models.len() as f64;
    let mut laps: Vec<LapTotals> = Vec::new();
    let (mut paths, mut bytes) = (0, 0);
    let end = Instant::now() + budget;
    while laps.len() < 3 || Instant::now() < end {
        turn(rep)?;
        (paths, bytes) = (0, 0);
        for m in models {
            let staged = staged_lap(m, tracer)?;
            paths += staged.paths;
            bytes += staged.manifest.len();
        }
        laps.push(tracer.end_lap());
    }
    for (stage, metric) in STAGES {
        let samples: Vec<f64> = laps.iter().map(|l| l.get(stage) / per).collect();
        rep.set_p10(metric, &samples);
    }
    rep.set("ir.paths", paths as f64 / models.len() as f64);
    rep.set("core.manifest_bytes", bytes as f64 / models.len() as f64);
    rep.spans_json = Some(tracer.spans_json());
    Ok(())
}

/// What the validator and the watchdog did, per accepted packet.
fn robust_counts(v: &ValidationStats, resets: u64) -> [(&'static str, f64); 4] {
    let pkts = v.accepted.max(1) as f64;
    let discarded = (v.stale + v.duplicates) as f64;
    [
        ("robust.degraded_share", v.degraded_packets as f64 / pkts),
        ("robust.discarded_share", discarded / (pkts + discarded)),
        (
            "robust.repaired_per_kpkt",
            v.repaired_fields as f64 * 1e3 / pkts,
        ),
        ("robust.watchdog_resets", resets as f64),
    ]
}

// ---------------------------------------------------------------- packet

fn lap_sample(l: &packet::Lap) -> Sample {
    let ops = l.delivered.max(1) as f64;
    Sample {
        wall_cyc: l.per_op(l.wall_cyc()),
        host_cyc: l.per_op(l.host_cyc),
        wall_ns: l.wall_ns as f64 / ops,
        host_ns: l.host_ns as f64 / ops,
    }
}

impl Bench for Packet {
    fn setup(name: &str, seed: u64) -> Result<Self, String> {
        let spec = packet::spec(name).expect("dispatched on a packet workload");
        Packet::setup(spec, seed)
    }

    fn sample(&mut self) -> Result<Sample, String> {
        Ok(lap_sample(&self.lap(&mut Off, None)))
    }

    fn verify(&mut self) -> Verdict {
        let mut chk = self.check();
        let dev0 = self.drv.nic.stats.clone();
        let host0 = self.drv.validation_stats();
        let (resets0, moves0) = (self.drv.watchdog_resets(), self.drv.health_transitions());
        let tx0 = self.tx.as_ref().map(|(q, _)| q.stats);
        let mut total = packet::Lap::default();
        for _ in 0..VERIFY_LAPS {
            let l = self.lap(&mut Off, Some(&mut chk));
            total.delivered += l.delivered;
            total.polls += l.polls;
            total.empty_polls += l.empty_polls;
        }
        let dev = &self.drv.nic.stats;
        let host = self.drv.validation_stats().since(&host0);
        let delivered = total.delivered;
        let pkts = delivered.max(1) as f64;

        // The device's fault ledger and the host's must reconcile, and
        // only a stale generation tag may cost a frame.
        let stale = dev.stale_gen - dev0.stale_gen;
        let o = &mut chk.oracle;
        o.attempted = chk.offered;
        o.expect_eq("delivered", delivered, chk.offered - stale);
        o.expect_eq("accepted", host.accepted, delivered);
        o.expect_eq("stale discards", host.stale, stale);
        o.expect_eq(
            "duplicate discards",
            host.duplicates,
            dev.duplicated - dev0.duplicated,
        );
        o.expect_eq(
            "ring-full drops",
            dev.dropped_ring_full,
            dev0.dropped_ring_full,
        );
        if self.tx.is_some() {
            o.expect_eq("wire frames", chk.wire_frames, delivered);
        }

        let (hw, sw) = self.field_split();
        let full_polls = (total.polls - total.empty_polls).max(1) as f64;
        let mut counts = vec![
            ("nicsim.allocs_per_pkt", chk.device_allocs as f64 / pkts),
            ("nicsim.cmpt_bytes_per_pkt", chk.cmpt_bytes as f64 / pkts),
            ("core.allocs_per_pkt", chk.host_allocs as f64 / pkts),
            ("core.fields_hw", hw as f64),
            ("core.fields_sw", sw as f64),
            ("core.batch_fill", pkts / full_polls / BATCH as f64),
            (
                "core.empty_poll_share",
                total.empty_polls as f64 / total.polls.max(1) as f64,
            ),
            (
                "robust.health_transitions",
                (self.drv.health_transitions() - moves0) as f64,
            ),
        ];
        counts.extend(robust_counts(&host, self.drv.watchdog_resets() - resets0));
        if let (Some((q, _)), Some(before)) = (&self.tx, tx0) {
            let submits =
                (q.stats.doorbells - before.doorbells + q.stats.stalls - before.stalls).max(1);
            counts.push((
                "core.tx_doorbells_per_pkt",
                (q.stats.doorbells - before.doorbells) as f64 / pkts,
            ));
            counts.push((
                "core.tx_stall_share",
                (q.stats.stalls - before.stalls) as f64 / submits as f64,
            ));
        }
        Verdict {
            attempted: chk.oracle.attempted,
            failed: chk.oracle.failed,
            examples: chk.oracle.examples,
            counts,
        }
    }

    fn layers(&mut self, budget: Duration, rep: &mut Report) -> Result<(), String> {
        const SPANS: [(Name, &str); 7] = [
            (Name::Steer, "nicsim.steer_cyc"),
            (Name::Deliver, "nicsim.deliver_cyc"),
            (Name::Poll, "core.poll_cyc"),
            (Name::Verdict, "app.verdict_cyc"),
            (Name::TxPush, "core.tx_push_cyc"),
            (Name::TxSubmit, "core.tx_submit_cyc"),
            (Name::TxDrain, "nicsim.tx_drain_cyc"),
        ];
        let mut tracer = Tracer::new();
        let mut reference = Reference::default();
        // Per traced lap: wall cycles and span totals, per delivered packet.
        let mut traced: Vec<(f64, LapTotals)> = Vec::new();
        let mut telemetry_on = Vec::new();

        let end = Instant::now() + budget.mul_f64(0.5);
        while traced.len() < 3 || Instant::now() < end {
            reference.push(rep, lap_sample(&self.lap(&mut Off, None)));
            let lap = self.lap(&mut tracer, None);
            let totals = tracer.end_lap().per(lap.delivered.max(1) as f64);
            traced.push((lap.per_op(lap.wall_cyc()), totals));
            self.drv.set_telemetry_enabled(true);
            let on = self.lap(&mut Off, None);
            self.drv.set_telemetry_enabled(false);
            telemetry_on.push(on.per_op(on.host_cyc));
        }
        let (wall, host) = reference.report(rep);
        let column =
            |f: &dyn Fn(&(f64, LapTotals)) -> f64| -> Vec<f64> { traced.iter().map(f).collect() };
        for (span, metric) in SPANS {
            rep.set_p10(metric, &column(&|(_, t)| t.get(span)));
        }
        rep.set(
            "trace.sum_over_wall",
            Summary::of(&column(&|(_, t)| t.covered(Name::Chunk))).p50,
        );
        rep.set(
            "trace.overhead",
            Summary::of(&column(&|(w, _)| *w)).p10 / wall,
        );
        rep.set(
            "telemetry.on_over_off",
            Summary::of(&telemetry_on).p10 / host,
        );

        // Replays: one pass over the pool per turn, taking turns.
        let software: Vec<String> = {
            let iface = &self.drv.iface;
            iface
                .accessors
                .software()
                .map(|a| iface.reg.name(a.semantic).to_string())
                .collect()
        };
        let shim_metric = |sem: &str| {
            crate::metrics::PER_LAYER
                .iter()
                .map(|(n, _, _)| *n)
                .find(|n| n.strip_prefix("softnic.shim_cyc.") == Some(sem))
                .expect("every bench7 semantic has a shim metric")
        };
        let mut replay = Replay::new(self)?;
        let mut ring = Vec::new();
        let mut offload = Vec::new();
        let mut parse = Vec::new();
        let mut shims: Vec<Vec<f64>> = vec![Vec::new(); software.len()];
        let end = Instant::now() + budget.mul_f64(0.3);
        while ring.len() < 3 || Instant::now() < end {
            ring.push(replay.ring_consume(self));
            offload.push(replay.offload(self));
            if !software.is_empty() {
                parse.push(replay.parse(self));
            }
            for (sem, samples) in software.iter().zip(&mut shims) {
                samples.push(replay.shim(self, sem));
            }
        }
        let ring = rep.set_p10("nicsim.ring_consume_cyc", &ring).p10;
        rep.set_p10("nicsim.offload_cyc", &offload);
        // The host parses only when the plan has a software field.
        let mut software_cyc = rep.set_p10("softnic.parse_cyc", &parse).p10;
        for (sem, samples) in software.iter().zip(&shims) {
            software_cyc += rep.set_p10(shim_metric(sem), samples).p10;
        }
        rep.set(
            "core.poll_residual_cyc",
            rep.get("core.poll_cyc") - ring - software_cyc,
        );

        staged_metrics(
            &[(self.spec.model)()],
            budget.mul_f64(0.2),
            &mut tracer,
            rep,
            |_| Ok(()),
        )
    }
}

// ---------------------------------------------------------------- fwd_2q

fn run_sample(r: &engine::Run) -> Sample {
    let ops = r.packets.max(1) as f64;
    Sample {
        wall_cyc: r.wall_cyc / ops,
        host_cyc: r.busy_cyc / ops,
        wall_ns: r.wall_ns as f64 / ops,
        host_ns: r.busy_ns as f64 / ops,
    }
}

impl Bench for Engine {
    const THREADS: usize = engine::QUEUES;
    const PARALLEL: &'static str = "run";

    fn setup(_: &str, seed: u64) -> Result<Self, String> {
        Engine::setup(seed)
    }

    fn sample(&mut self) -> Result<Sample, String> {
        Ok(run_sample(&self.run().0))
    }

    fn verify(&mut self) -> Verdict {
        let (mut v, mut resets) = (ValidationStats::default(), 0);
        for _ in 0..VERIFY_LAPS {
            for w in &self.verify_run().rx {
                v.merge(&w.validation);
                resets += w.watchdog_resets;
            }
        }
        let (attempted, failed, examples) = self.verdict();
        let (hits, misses) = self.cache_stats();
        let mut counts = robust_counts(&v, resets).to_vec();
        counts.push((
            "cache.hit_share",
            hits as f64 / (hits + misses).max(1) as f64,
        ));
        Verdict {
            attempted,
            failed,
            examples,
            counts,
        }
    }

    fn layers(&mut self, budget: Duration, rep: &mut Report) -> Result<(), String> {
        // The run loop is the product's own, so no span fits inside it;
        // what can be had from outside is the engine's busy ledger and
        // the same traffic through the single-queue loop, turn by turn.
        let mut single = Packet::setup(&packet::FWD, rep.seed)?;
        let mut reference = Reference::default();
        let (mut imbalance, mut single_wall) = (Vec::new(), Vec::new());
        let end = Instant::now() + budget.mul_f64(0.8);
        while single_wall.len() < 3 || Instant::now() < end {
            let (run, _) = self.run();
            let mean_busy = run.busy_ns as f64 / engine::QUEUES as f64;
            imbalance.push(run.max_busy_ns as f64 / mean_busy.max(1.0));
            reference.push(rep, run_sample(&run));
            let l = single.lap(&mut Off, None);
            single_wall.push(l.per_op(l.wall_cyc()));
        }
        let (wall, busy) = reference.report(rep);
        rep.set("engine.busy_cyc", busy);
        rep.set_p10("engine.imbalance", &imbalance);
        rep.set(
            "engine.speedup_vs_fwd",
            Summary::of(&single_wall).p10 / wall,
        );
        staged_metrics(
            &[opendesc_nicsim::models::ice()],
            budget.mul_f64(0.2),
            &mut Tracer::new(),
            rep,
            |_| Ok(()),
        )
    }
}

// ------------------------------------------------------------- negotiate

fn sweep_sample(n: &Negotiate) -> Result<Sample, String> {
    let t = Instant::now();
    let cyc = n.sweep()?;
    let ns = t.elapsed().as_nanos() as f64 / n.models.len() as f64;
    Ok(Sample {
        wall_cyc: cyc,
        host_cyc: cyc,
        wall_ns: ns,
        host_ns: ns,
    })
}

impl Bench for Negotiate {
    fn setup(_: &str, seed: u64) -> Result<Self, String> {
        Negotiate::setup(seed)
    }

    fn sample(&mut self) -> Result<Sample, String> {
        sweep_sample(self)
    }

    fn verify(&mut self) -> Verdict {
        let (attempted, failures) = Negotiate::verify(self);
        Verdict {
            attempted,
            failed: failures.len() as u64,
            examples: failures.into_iter().take(5).collect(),
            counts: Vec::new(),
        }
    }

    fn layers(&mut self, budget: Duration, rep: &mut Report) -> Result<(), String> {
        // Untraced and staged sweeps take turns; both visit the same
        // models in the same order.
        let mut reference = Reference::default();
        staged_metrics(&self.models, budget, &mut Tracer::new(), rep, |rep| {
            reference.push(rep, sweep_sample(self)?);
            Ok(())
        })?;
        let (wall, _) = reference.report(rep);
        let stages: f64 = STAGES[1..STAGES.len() - 1]
            .iter()
            .map(|(_, metric)| rep.get(metric))
            .sum();
        rep.set("trace.sum_over_wall", stages * 1e3 / wall);
        rep.set(
            "trace.overhead",
            rep.get("core.negotiate_kcyc") * 1e3 / wall,
        );
        Ok(())
    }
}
