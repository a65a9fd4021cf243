//! Correctness of live interface evolution: hot relayout under traffic
//! must be invisible in the data and robust against the fault machine.
//!
//! Four properties, mirroring the adaptive-steering harness, plus the
//! two control actions in one run:
//!
//! 1. **Multiset conservation**: N random intent migrations mid-stream
//!    deliver *exactly* the generated frame multiset — zero loss, zero
//!    duplication — on all four packaged NIC models.
//! 2. **Per-flow order**: every flow's frames arrive in generation
//!    order through every flip. Drain-and-flip makes this structural: a
//!    queue commits only after quiescing, so a flow's frames are never
//!    in flight across two plan generations at once.
//! 3. **Degraded deferral**: a relayout requested while the queue is
//!    `Degraded` parks, keeps serving traffic under the old plan, and
//!    commits after health recovers — with nothing lost across the
//!    whole request → defer → recover → commit arc.
//! 4. **Roll-forward**: a watchdog reset firing mid-flip lands the
//!    queue on the NEW generation — the device reprograms forward,
//!    stranded old-generation writebacks are discarded as stale (the
//!    nicsim stale-generation fault class, exercised intentionally),
//!    and the old plan is never resurrected.
//! 5. **Relayouts beside the rebalancer**: scheduled migrations and an
//!    eager RETA rebalancer at the same boundaries still deliver every
//!    frame once, in per-flow order, with every flip committed.
//!
//! `CHAOS_SEED` fans the fault schedules across the CI chaos matrix.

use opendesc::compiler::cache::CompiledRx;
use opendesc::compiler::{
    retain_into, Control, FlipProgress, Intent, OpenDescDriver, PlanCache, QueueHealth,
    RebalanceConfig, RelayoutRequest, RunOutcome, ShardedEngine, TraceKind,
};
use opendesc::ir::{names, SemanticRegistry};
use opendesc::nicsim::models::NicModel;
use opendesc::nicsim::{models, FaultConfig, PktGen, SimNic, SteerPolicy, Workload};
use opendesc::softnic::testpkt;
use opendesc::softnic::wire::ParsedFrame;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// The four packaged models the migrations must hold on.
fn model(ix: usize) -> NicModel {
    match ix % 4 {
        0 => models::e1000e(),
        1 => models::ixgbe(),
        2 => models::mlx5(),
        _ => models::qdma_default(),
    }
}

/// Distinct intents that every packaged model compiles — the migration
/// pool. `k = 3` is the full shim-heavy intent the engines start on.
fn intent_k(reg: &mut SemanticRegistry, k: usize) -> Intent {
    let sems: [&[&str]; 4] = [
        &[names::RSS_HASH, names::PKT_LEN, names::IP_CHECKSUM],
        &[names::VLAN_TCI, names::PKT_LEN, names::PACKET_TYPE],
        &[names::KVS_KEY_HASH, names::PAYLOAD_OFFSET, names::PKT_LEN],
        &[
            names::RSS_HASH,
            names::QUEUE_HINT,
            names::VLAN_TCI,
            names::PKT_LEN,
            names::PACKET_TYPE,
            names::PAYLOAD_OFFSET,
            names::KVS_KEY_HASH,
            names::IP_CHECKSUM,
        ],
    ];
    let mut b = Intent::builder(&format!("evolve-{}", k % 4));
    for s in sems[k % 4] {
        b = b.want(reg, s);
    }
    b.build()
}

/// An engine on `model(model_ix)` plus the cache/registry it compiles
/// migration targets from.
fn evolving_engine(model_ix: usize, queues: usize) -> (PlanCache, SemanticRegistry, ShardedEngine) {
    let cache = PlanCache::default();
    let mut reg = SemanticRegistry::with_builtins();
    let i0 = intent_k(&mut reg, 3);
    let eng = ShardedEngine::with_intents(
        &cache,
        &model(model_ix),
        &vec![i0; queues],
        &mut reg,
        256,
        SteerPolicy::Rss,
        16,
    )
    .expect("evolving engine builds on every packaged model");
    (cache, reg, eng)
}

/// Schedule `migrations` intent flips at every other interval boundary,
/// each under a fresh cache generation (the eviction protocol's entry
/// point).
fn schedule(
    cache: &PlanCache,
    reg: &mut SemanticRegistry,
    model_ix: usize,
    migrations: usize,
) -> Vec<RelayoutRequest> {
    (0..migrations)
        .map(|mi| {
            cache.begin_generation();
            let rx = cache
                .get_or_compile(&model(model_ix), &intent_k(reg, mi), reg)
                .expect("migration intent compiles");
            RelayoutRequest {
                at_interval: mi as u32 * 2 + 1,
                rx,
            }
        })
        .collect()
}

/// Run `ctl` on `total` frames of `wl`, keeping every delivered frame.
fn run(
    eng: &mut ShardedEngine,
    wl: &Workload,
    total: usize,
    ctl: &Control,
) -> (RunOutcome, Vec<Vec<u8>>) {
    let mut delivered = Vec::new();
    let out = eng.run_intervals(wl, total, ctl, &mut retain_into(&mut delivered));
    (out, delivered.into_iter().map(|(_, _, f)| f).collect())
}

fn flow_of(frame: &[u8]) -> u32 {
    let p = ParsedFrame::parse(frame).expect("generated frames parse");
    (p.ports().expect("udp traffic").0 - 10_000) as u32
}

/// Frames grouped by flow, each flow's in arrival order.
fn by_flow(frames: impl IntoIterator<Item = Vec<u8>>) -> HashMap<u32, Vec<Vec<u8>>> {
    let mut flows: HashMap<u32, Vec<Vec<u8>>> = HashMap::new();
    for f in frames {
        flows.entry(flow_of(&f)).or_default().push(f);
    }
    flows
}

/// What the seed-deterministic generator produces, grouped by flow: the
/// reference per-flow order.
fn generated_by_flow(wl: &Workload, total: usize) -> HashMap<u32, Vec<Vec<u8>>> {
    let mut gen = PktGen::new(wl.clone());
    by_flow((0..total).map(|_| gen.next_frame()))
}

fn env_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property 1: N live intent migrations conserve the frame multiset
    /// exactly, on all four models — and the plan cache ends the run
    /// holding at most the current generation plus the pinned previous
    /// one.
    #[test]
    fn migrations_preserve_the_multiset_on_all_models(
        model_ix in 0usize..4,
        queues in 1u32..4u32,
        alpha in (80u32..140).prop_map(|x| x as f64 / 100.0),
        migrations in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let queues = 1usize << queues;
        let total = 4096usize;
        let mut wl = Workload::zipf(64, alpha, 1);
        wl.seed = seed;
        let (cache, mut reg, mut eng) = evolving_engine(model_ix, queues);
        let ctl = Control {
            relayouts: schedule(&cache, &mut reg, model_ix, migrations),
            ..Control::fixed(512)
        };
        let (out, mut got) = run(&mut eng, &wl, total, &ctl);

        prop_assert_eq!(out.unresolved, 0, "a healthy run must not park flips");
        prop_assert_eq!(
            out.flips.len(),
            queues * migrations,
            "every queue must commit every scheduled migration"
        );
        prop_assert!(
            out.max_flip_polls() <= 16,
            "flip latency {} polls exceeds the drain budget",
            out.max_flip_polls()
        );
        // Zero loss, zero duplication, zero invention: exact multiset.
        prop_assert_eq!(got.len(), total, "relayouts lost or invented frames");
        let mut gen = PktGen::new(wl);
        let mut generated: Vec<Vec<u8>> = (0..total).map(|_| gen.next_frame()).collect();
        generated.sort();
        got.sort();
        prop_assert_eq!(got, generated, "delivered multiset diverged across migrations");
        // Superseded generations are reclaimable: once the schedule's
        // own handles drop, only the live plan (and at most the one the
        // last flip retired) survive eviction.
        drop(ctl);
        cache.evict_superseded();
        prop_assert!(
            cache.len() <= 2,
            "{} live generations after {} migrations — the cache leaks plans",
            cache.len(),
            migrations
        );
    }

    /// Property 2: per-flow delivery order survives every flip.
    #[test]
    fn per_flow_order_survives_relayout(
        model_ix in 0usize..4,
        queues in 1u32..4u32,
        alpha in (80u32..140).prop_map(|x| x as f64 / 100.0),
        migrations in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let queues = 1usize << queues;
        let total = 4096usize;
        let mut wl = Workload::zipf(64, alpha, 1);
        wl.seed = seed;
        let (cache, mut reg, mut eng) = evolving_engine(model_ix, queues);
        let ctl = Control {
            relayouts: schedule(&cache, &mut reg, model_ix, migrations),
            ..Control::fixed(512)
        };
        let (out, delivered) = run(&mut eng, &wl, total, &ctl);
        prop_assert_eq!(out.report.total_rx_packets() as usize, total);

        let (want, got) = (generated_by_flow(&wl, total), by_flow(delivered));
        prop_assert_eq!(got.len(), want.len(), "flows appeared or vanished");
        for (flow, frames) in want {
            prop_assert_eq!(
                got.get(&flow),
                Some(&frames),
                "flow {} reordered across a flip",
                flow
            );
        }
    }
}

/// Property 5: the two control actions at one set of boundaries — an
/// eager RETA rebalancer (stealing off, so order is owed) and three
/// scheduled relayouts — on all four models. Every frame is delivered
/// once and in per-flow order, every queue commits every migration, and
/// the rebalancer really moved buckets.
#[test]
fn relayouts_beside_the_rebalancer_conserve_order() {
    let (queues, total, migrations) = (8, 8192, 3);
    let mut wl = Workload::zipf(64, 1.3, 2);
    wl.seed = env_seed().wrapping_mul(0x9e37_79b9).wrapping_add(5);
    let want = generated_by_flow(&wl, total);
    let eager = RebalanceConfig {
        trigger_ratio: 1.05,
        max_moves_per_interval: 16,
        bucket_cooldown: 1,
        min_window_packets: 64,
    };
    for model_ix in 0..4 {
        let (cache, mut reg, mut eng) = evolving_engine(model_ix, queues);
        let ctl = Control {
            rebalance: Some(eager.clone()),
            relayouts: schedule(&cache, &mut reg, model_ix, migrations),
            ..Control::fixed(512)
        };
        let (out, delivered) = run(&mut eng, &wl, total, &ctl);
        let name = &model(model_ix).name;
        assert_eq!(delivered.len(), total, "{name}: lost or invented frames");
        assert_eq!(by_flow(delivered), want, "{name}: a flow lost its order");
        assert_eq!(out.unresolved, 0, "{name}: a flip stayed parked");
        assert_eq!(
            out.flips.len(),
            queues * migrations,
            "{name}: a flip never committed"
        );
        let reb = out.rebalance.expect("the rebalancer ran");
        assert!(
            reb.migrations > 0,
            "{name}: the rebalancer never migrated: {reb:?}"
        );
    }
}

fn clean_frame(i: u32) -> Vec<u8> {
    testpkt::udp4(
        [10, 0, 0, 1],
        [10, 0, (i >> 8) as u8, i as u8],
        10_000 + (i % 7) as u16,
        2000,
        b"evolve",
        Some(0x0042),
    )
}

/// A single-queue driver pair `(driver, target_plan)` for the
/// fault-interplay tests: attached on `intent_k(3)`, with `intent_k(1)`
/// compiled as the relayout target.
fn driver_and_target(seed: u64) -> (OpenDescDriver, Arc<CompiledRx>, PlanCache) {
    let cache = PlanCache::default();
    let mut reg = SemanticRegistry::with_builtins();
    let a = cache
        .get_or_compile(&models::e1000e(), &intent_k(&mut reg, 3), &mut reg)
        .unwrap();
    cache.begin_generation();
    let b = cache
        .get_or_compile(&models::e1000e(), &intent_k(&mut reg, 1), &mut reg)
        .unwrap();
    let nic = SimNic::new(models::e1000e(), 64).unwrap();
    let mut drv = OpenDescDriver::attach_shared(nic, a).unwrap();
    drv.set_telemetry_enabled(true);
    // Seed-tagged no-op so the chaos matrix varies the schedule below.
    let _ = seed;
    (drv, b, cache)
}

/// Property 3: a relayout requested while `Degraded` defers, keeps
/// serving, and completes after the health machine recovers — nothing
/// lost across the whole arc.
#[test]
fn relayout_during_degraded_defers_and_completes_after_recovery() {
    let seed = env_seed();
    let (mut drv, target, _cache) = driver_and_target(seed);
    let mut served = 0usize;

    // Phase 1: a lying device (every completion duplicated) degrades
    // health without losing anything — duplicates are discarded, the
    // originals are served.
    drv.nic
        .set_faults(
            FaultConfig::builder()
                .duplicate_chance(1.0)
                .seed(seed.wrapping_add(41))
                .build()
                .unwrap(),
        )
        .unwrap();
    for i in 0..8 {
        drv.deliver(&clean_frame(i)).unwrap();
        while drv.poll().is_some() {
            served += 1;
        }
    }
    assert_eq!(served, 8, "duplicates must not lose or multiply packets");
    assert_eq!(drv.health(), QueueHealth::Degraded);

    // Phase 2: the request parks.
    assert_eq!(
        drv.request_relayout(Arc::clone(&target)),
        FlipProgress::Deferred
    );
    assert_eq!(drv.relayout_counters().deferred, 1);
    assert_eq!(drv.advance_relayout(0), FlipProgress::Deferred);
    assert_eq!(drv.generation(), 0, "a parked flip must not commit");

    // Phase 3: faults stop; clean traffic walks health back. The queue
    // keeps serving under the OLD plan the whole time.
    drv.nic.set_faults(FaultConfig::default()).unwrap();
    let mut committed = None;
    for i in 8..120 {
        drv.deliver(&clean_frame(i)).unwrap();
        while drv.poll().is_some() {
            served += 1;
        }
        if let FlipProgress::Committed(g) = drv.advance_relayout(0) {
            committed = Some((g, i));
            break;
        }
        assert_eq!(
            drv.health(),
            QueueHealth::Degraded,
            "flip must promote the moment health leaves Degraded"
        );
    }
    let (gen, at) = committed.expect("flip never committed after recovery");
    assert_eq!(gen, 1);
    assert_ne!(
        drv.health(),
        QueueHealth::Degraded,
        "commit must only happen after recovery"
    );
    assert!(
        Arc::ptr_eq(&drv.iface, &target),
        "queue must run the new plan"
    );
    let c = drv.relayout_counters();
    assert_eq!(
        (c.requested, c.deferred, c.completed, c.rolled_forward),
        (1, 1, 1, 0)
    );

    // Phase 4: traffic continues under the new plan, losslessly.
    for i in at + 1..at + 9 {
        drv.deliver(&clean_frame(i)).unwrap();
        while drv.poll().is_some() {
            served += 1;
        }
    }
    assert_eq!(served as u32, at + 9, "frames lost across the deferral arc");
    assert_eq!(drv.in_flight(), 0);

    // The trace ring has the story in order: deferral strictly before
    // completion.
    let events = drv.telemetry().trace.events();
    let deferred_at = events
        .iter()
        .position(|e| e.kind == TraceKind::RelayoutDeferred)
        .expect("deferral must trace");
    let completed_at = events
        .iter()
        .position(|e| e.kind == TraceKind::RelayoutCompleted)
        .expect("completion must trace");
    assert!(deferred_at < completed_at);
}

/// Property 4: a watchdog reset mid-flip rolls the queue *forward* —
/// the device reprograms onto the new ring generation, stranded
/// old-generation writebacks are discarded as stale rather than
/// misparsed, and the queue ends on the new plan, not wedged and not
/// resurrected onto the old one.
#[test]
fn watchdog_reset_mid_flip_lands_on_the_new_generation() {
    let seed = env_seed();
    let (mut drv, target, _cache) = driver_and_target(seed);

    // Every doorbell lost: completions are written but never published,
    // so the drain stalls with frames in flight and the watchdog must
    // fire mid-flip.
    drv.nic
        .set_faults(
            FaultConfig::builder()
                .doorbell_loss_chance(1.0)
                .seed(seed.wrapping_add(59))
                .build()
                .unwrap(),
        )
        .unwrap();
    for i in 0..6 {
        drv.deliver(&clean_frame(i)).unwrap();
    }
    assert_eq!(drv.in_flight(), 6);

    // The flip starts draining (health is still Healthy — the device
    // hasn't been caught yet).
    assert_eq!(
        drv.request_relayout(Arc::clone(&target)),
        FlipProgress::Draining
    );
    let mut polls = 0u64;
    let generation = loop {
        match drv.advance_relayout(polls) {
            FlipProgress::Committed(g) => break g,
            FlipProgress::Idle => panic!("flip aborted"),
            _ => {}
        }
        assert!(polls < 64, "flip wedged (seed {seed})");
        let _ = drv.poll();
        polls += 1;
    };

    assert_eq!(generation, 1, "queue must land on the new generation");
    assert_eq!(
        drv.nic.ring_generation(),
        1,
        "device must tick its ring generation"
    );
    assert!(Arc::ptr_eq(&drv.iface, &target), "old plan resurrected");
    let c = drv.relayout_counters();
    assert_eq!(
        c.rolled_forward, 1,
        "the reset must roll forward, not re-arm"
    );
    assert_eq!(c.completed, 1);
    assert_eq!(drv.nic.stats.reprograms, 1);
    assert_eq!(
        drv.validation_stats().stale,
        6,
        "stranded old-generation writebacks are stale-discarded, not misparsed"
    );
    assert_eq!(drv.in_flight(), 0, "queue wedged after roll-forward");
    assert!(
        drv.watchdog_resets() >= 1,
        "the watchdog must actually have fired"
    );

    // Trace order: the roll-forward happens at (or before) the reset
    // event that triggered it, and strictly before the commit.
    let events = drv.telemetry().trace.events();
    let rolled = events
        .iter()
        .position(|e| e.kind == TraceKind::RelayoutRolledForward)
        .expect("roll-forward must trace");
    let completed = events
        .iter()
        .position(|e| e.kind == TraceKind::RelayoutCompleted)
        .expect("commit must trace");
    assert!(rolled < completed);
    assert_eq!(
        events[rolled].a, 1,
        "roll-forward targets the new generation"
    );
    assert_eq!(events[rolled].b, 6, "all six pending writebacks stranded");

    // Fresh traffic flows under the new plan: sequence admission
    // resynchronized across the generation tick (wb_seq is monotonic),
    // and the new layout parses.
    drv.nic.set_faults(FaultConfig::default()).unwrap();
    let reg = SemanticRegistry::with_builtins();
    let vlan = reg.id(names::VLAN_TCI).unwrap();
    for i in 10..14 {
        drv.deliver(&clean_frame(i)).unwrap();
        let pkt = drv
            .poll()
            .expect("fresh completions admitted after the tick");
        assert_eq!(
            pkt.get(vlan),
            Some(0x0042),
            "new plan must parse the new layout"
        );
    }
    assert_eq!(
        drv.validation_stats().duplicates,
        0,
        "no replay admitted across generations"
    );
}

/// Property 5 (fail closed): an artifact whose plan did not lower to
/// verifier-accepted bytecode has no executable form. Attach refuses
/// it; a relayout onto it is refused too, leaving generation, plan and
/// device context exactly as they were — counted and traced, not
/// executed.
#[test]
fn manual_plans_are_refused_at_attach_and_at_relayout() {
    use opendesc::compiler::{AttachError, Compiler};
    use opendesc::nicsim::models::{programmable, ProgField, ProgGuard, ProgLayout, ProgSpec};
    use opendesc::nicsim::NicError;

    // Behind an opaque guard (`ctx.a == ctx.b`) no context can be
    // programmed, so every winner is manual and no device selects it.
    let layout = |sem: &str, bits| ProgLayout {
        fields: vec![ProgField::sem("f", sem, bits)],
    };
    let opaque = programmable(&ProgSpec {
        name: "opaque".into(),
        layouts: vec![layout(names::PKT_LEN, 16), layout(names::RSS_HASH, 32)],
        guard: ProgGuard::Opaque,
        tail: None,
        tx: None,
    })
    .unwrap();
    let mut reg = SemanticRegistry::with_builtins();
    let intent = Intent::builder("hash")
        .want(&mut reg, names::RSS_HASH)
        .build();
    let manual = Compiler::default()
        .compile_model(&opaque, &intent, &mut reg)
        .unwrap();
    assert!(manual.context.is_none(), "{}", manual.report());
    assert!(manual.report().contains("MANUAL"));

    let nic = SimNic::new(opaque, 64).unwrap();
    let err = OpenDescDriver::attach(nic, manual.clone())
        .err()
        .expect("attach must refuse a plan the device does not select");
    assert!(
        matches!(err, AttachError::Nic(NicError::NoPathForContext)),
        "{err}"
    );

    let good = Compiler::default()
        .compile_model(&models::e1000e(), &intent_k(&mut reg, 3), &mut reg)
        .unwrap();
    let mut drv = OpenDescDriver::attach(SimNic::new(models::e1000e(), 64).unwrap(), good).unwrap();
    drv.set_telemetry_enabled(true);
    let plan_before = Arc::clone(&drv.iface);
    let manual = Arc::new(CompiledRx::new(manual));
    assert_eq!(drv.request_relayout(manual), FlipProgress::Idle);
    assert!(!drv.flip_pending(), "a refused request must not pend");
    assert_eq!(drv.advance_relayout(0), FlipProgress::Idle);
    assert!(Arc::ptr_eq(&drv.iface, &plan_before));
    let c = drv.relayout_counters();
    assert_eq!((c.requested, c.refused, c.completed), (1, 1, 0));
    assert!(drv
        .telemetry()
        .trace
        .events()
        .iter()
        .any(|e| e.kind == TraceKind::RelayoutRefused));
}

#[test]
fn a_flip_the_device_refuses_at_commit_is_counted_and_traced() {
    // A plan whose context selects another completion path than the one
    // it reads: accepted at request (it has a context), refused by the
    // device at commit — and that refusal is as visible as any other.
    use opendesc::compiler::Compiler;

    let mut reg = SemanticRegistry::with_builtins();
    let good = Compiler::default()
        .compile_model(&models::e1000e(), &intent_k(&mut reg, 0), &mut reg)
        .unwrap();
    let mut lying = good.clone();
    let ctx = lying.context.as_mut().unwrap();
    for v in ctx.values_mut() {
        *v ^= 1; // e1000e's one context bit: the other path
    }
    let mut drv = OpenDescDriver::attach(SimNic::new(models::e1000e(), 64).unwrap(), good).unwrap();
    drv.set_telemetry_enabled(true);
    let plan_before = Arc::clone(&drv.iface);
    let lying = Arc::new(CompiledRx::new(lying));
    assert_eq!(drv.request_relayout(lying), FlipProgress::Draining);
    assert_eq!(drv.advance_relayout(0), FlipProgress::Idle);
    assert!(!drv.flip_pending());
    assert!(Arc::ptr_eq(&drv.iface, &plan_before), "plan swapped");
    assert_eq!((drv.generation(), drv.nic.ring_generation()), (0, 0));
    let c = drv.relayout_counters();
    assert_eq!((c.requested, c.refused, c.completed), (1, 1, 0));
    assert!(drv
        .telemetry()
        .trace
        .events()
        .iter()
        .any(|e| e.kind == TraceKind::RelayoutRefused));
    drv.deliver(&clean_frame(0)).unwrap();
    let pkt = drv.poll().expect("the old plan still serves");
    assert_eq!(pkt.meta.len(), plan_before.accessors.accessors.len());
}

#[test]
fn unlowerable_artifacts_are_refused_at_attach_and_at_relayout() {
    use opendesc::compiler::{Accessor, AccessorSet, AttachError, Compiler, LowerError, RxPlan};
    use opendesc::ir::SemanticId;

    let mut reg = SemanticRegistry::with_builtins();
    let good = Compiler::default()
        .compile_model(&models::e1000e(), &intent_k(&mut reg, 3), &mut reg)
        .unwrap();
    // A layout lying about its completion size (the field sits at bytes
    // [8, 12) of a record declared 8 bytes long: the verifier refuses
    // to prove the window), and one with more fields than the
    // bytecode's slot masks address.
    let liar = AccessorSet {
        accessors: vec![Accessor::hardware(SemanticId(0), "liar", 64, 32)],
        completion_bytes: 8,
    };
    let wide = AccessorSet {
        accessors: (0..129)
            .map(|i| Accessor::software(SemanticId(0), format!("f{i}"), 8))
            .collect(),
        completion_bytes: good.accessors.completion_bytes,
    };
    for (what, set) in [("liar", liar), ("wide", wide)] {
        let mut bad = good.clone();
        bad.plan = RxPlan::compile(&set, &bad.reg);
        bad.accessors = set;
        let bad = Arc::new(CompiledRx::new(bad));
        match (what, bad.lowering_error()) {
            ("liar", Some(LowerError::Verify { .. }))
            | ("wide", Some(LowerError::TooManyFields { .. })) => {}
            (_, other) => panic!("{what}: expected a lowering error, got {other:?}"),
        }

        let nic = SimNic::new(models::e1000e(), 64).unwrap();
        let err = OpenDescDriver::attach_shared(nic, Arc::clone(&bad))
            .err()
            .unwrap_or_else(|| panic!("{what}: attach must refuse an unlowerable artifact"));
        assert!(matches!(err, AttachError::Unlowerable(_)), "{what}: {err}");

        let nic = SimNic::new(models::e1000e(), 64).unwrap();
        let mut drv = OpenDescDriver::attach(nic, good.clone()).unwrap();
        drv.set_telemetry_enabled(true);
        let plan_before = Arc::clone(&drv.iface);
        let ring_generation = drv.nic.ring_generation();
        assert_eq!(
            drv.request_relayout(Arc::clone(&bad)),
            FlipProgress::Idle,
            "{what}"
        );
        assert!(
            !drv.flip_pending(),
            "{what}: a refused request must not pend"
        );
        assert_eq!(drv.advance_relayout(0), FlipProgress::Idle, "{what}");
        assert_eq!(drv.generation(), 0, "{what}");
        assert!(
            Arc::ptr_eq(&drv.iface, &plan_before),
            "{what}: plan swapped"
        );
        assert_eq!(drv.nic.ring_generation(), ring_generation, "{what}");
        assert_eq!(drv.nic.stats.reprograms, 0, "{what}: device reprogrammed");
        let c = drv.relayout_counters();
        assert_eq!((c.requested, c.refused, c.completed), (1, 1, 0), "{what}");
        let events = drv.telemetry().trace.events();
        let refused = events
            .iter()
            .find(|e| e.kind == TraceKind::RelayoutRefused)
            .unwrap_or_else(|| panic!("{what}: the refusal must trace"));
        assert_eq!(refused.a, 1, "{what}: names the generation it refused");
        // The queue keeps serving under the plan it had.
        drv.deliver(&clean_frame(0)).unwrap();
        let pkt = drv.poll().expect("old plan still serves");
        assert_eq!(pkt.meta.len(), plan_before.accessors.accessors.len());
    }
}

/// A batch built before a flip is not a trap: polled after the commit
/// it is reshaped for the plan now running, even when the old and new
/// intents have the same number of fields (so nothing about its size
/// gives the staleness away), and every value it then reports is the
/// SoftNIC reference *under the new semantics*. A batch another
/// driver made for a differently-shaped artifact is adopted the same
/// way instead of tripping an assertion.
#[test]
fn a_batch_built_before_a_flip_reshapes_for_the_new_plan() {
    use opendesc::compiler::AccessorKind;
    use opendesc::ir::bits::width_mask;
    use opendesc::softnic::SoftNic;

    let cache = PlanCache::default();
    let mut reg = SemanticRegistry::with_builtins();
    let model = models::e1000e();
    let old = cache
        .get_or_compile(&model, &intent_k(&mut reg, 0), &mut reg)
        .unwrap();
    let new = cache
        .get_or_compile(&model, &intent_k(&mut reg, 1), &mut reg)
        .unwrap();
    let sems =
        |rx: &CompiledRx| -> Vec<_> { rx.accessors.accessors.iter().map(|a| a.semantic).collect() };
    assert_eq!(sems(&old).len(), sems(&new).len(), "same arity");
    assert_ne!(sems(&old), sems(&new), "different semantics");

    let mut drv =
        OpenDescDriver::attach_shared(SimNic::new(model.clone(), 64).unwrap(), old.clone())
            .unwrap();
    let mut batch = drv.make_batch(4);
    for i in 0..2 {
        drv.deliver(&clean_frame(i)).unwrap();
    }
    assert_eq!(drv.poll_batch_into(&mut batch), 2);
    assert_eq!(batch.semantics(), &sems(&old)[..]);

    assert_eq!(drv.request_relayout(new.clone()), FlipProgress::Draining);
    assert_eq!(drv.advance_relayout(0), FlipProgress::Committed(1));

    let check = |drv: &OpenDescDriver, batch: &opendesc::compiler::RxBatch, n: usize| {
        assert_eq!(batch.semantics(), &sems(&new)[..], "stale field list");
        let mut soft = SoftNic::new();
        for pkt in 0..n {
            for (field, acc) in drv.iface.accessors.accessors.iter().enumerate() {
                let name = drv.iface.reg.name(acc.semantic);
                let r = soft
                    .compute_by_name(name, batch.frame(pkt))
                    .expect("clean frames have a reference for every field");
                let want = match acc.kind {
                    AccessorKind::Hardware => r as u128 & width_mask(acc.width_bits),
                    AccessorKind::Software => r as u128,
                };
                assert_eq!(batch.value_at(field, pkt), Some(want), "{name}");
                assert_eq!(batch.get(pkt, acc.semantic), Some(want), "{name}");
            }
        }
    };
    for i in 2..5 {
        drv.deliver(&clean_frame(i)).unwrap();
    }
    assert_eq!(drv.poll_batch_into(&mut batch), 3, "old batch still polls");
    check(&drv, &batch, 3);

    // A batch from a driver running an eight-field artifact.
    let wide = cache
        .get_or_compile(&model, &intent_k(&mut reg, 3), &mut reg)
        .unwrap();
    let other = OpenDescDriver::attach_shared(SimNic::new(model, 64).unwrap(), wide).unwrap();
    let mut foreign = other.make_batch(2);
    assert_ne!(foreign.semantics().len(), sems(&new).len());
    drv.deliver(&clean_frame(9)).unwrap();
    assert_eq!(drv.poll_batch_into(&mut foreign), 1);
    check(&drv, &foreign, 1);
}
