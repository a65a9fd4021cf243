//! Integration tests for the unified telemetry layer.
//!
//! Three properties the observability path must hold:
//!
//! 1. **Histogram algebra** — merging per-worker histograms at snapshot
//!    time must be exactly equivalent to recording every value into one
//!    histogram (associativity/commutativity of `Hist::merge`), and
//!    every value must land in the log2 bucket whose `[lo, hi]` range
//!    contains it. Proptests, since the bucket boundaries (powers of
//!    two, the `u64::MAX` clamp) are where off-by-ones live.
//! 2. **Snapshot determinism** — two sharded engines built from the
//!    same seed and fed the same pools must serialize byte-identical
//!    registry snapshots once wall-clock metrics are stripped
//!    (`Snapshot::without_timing`). This is what makes the JSON records
//!    diffable in CI.
//! 3. **Trace attribution** — fault-injection events must appear in
//!    the injecting queue's ring, in poll order, with that queue's
//!    index on every event; a clean queue's ring must carry no fault
//!    events.

use opendesc::compiler::{Intent, MetricValue, PlanCache, QueueHealth, ShardedEngine, TraceKind};
use opendesc::ir::{names, SemanticRegistry};
use opendesc::nicsim::pktgen::{ShardFrame, ShardedPktGen};
use opendesc::nicsim::{models, FaultConfig, SteerPolicy, Workload};
use opendesc::telemetry::{bucket_hi, bucket_index, bucket_lo, Hist, HIST_BUCKETS};
use proptest::prelude::*;

proptest! {
    /// Merge-at-snapshot equals record-everything, regardless of how
    /// the values are split across workers and in which order the
    /// partial histograms are merged.
    #[test]
    fn hist_merge_is_associative_and_order_free(
        a in proptest::collection::vec(any::<u64>(), 0..40),
        b in proptest::collection::vec(any::<u64>(), 0..40),
        c in proptest::collection::vec(any::<u64>(), 0..40),
    ) {
        let part = |vs: &[u64]| {
            let mut h = Hist::default();
            for &v in vs {
                h.record(v);
            }
            h
        };
        let (ha, hb, hc) = (part(&a), part(&b), part(&c));

        let mut all = Hist::default();
        for &v in a.iter().chain(&b).chain(&c) {
            all.record(v);
        }

        // (a ⊕ b) ⊕ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ⊕ (b ⊕ c)
        let mut right = hb.clone();
        right.merge(&hc);
        let mut right_outer = ha.clone();
        right_outer.merge(&right);
        // c ⊕ a ⊕ b (commuted)
        let mut commuted = hc.clone();
        commuted.merge(&ha);
        commuted.merge(&hb);

        for h in [&left, &right_outer, &commuted] {
            prop_assert_eq!(h, &all);
        }
    }

    /// Every value lands in the bucket whose range contains it, and the
    /// bucket ranges tile the u64 domain in order.
    #[test]
    fn hist_bucket_boundaries_contain_their_values(v in any::<u64>()) {
        let i = bucket_index(v);
        prop_assert!(i < HIST_BUCKETS);
        prop_assert!(bucket_lo(i) <= v, "{v} below bucket {i} lo");
        prop_assert!(v <= bucket_hi(i), "{v} above bucket {i} hi");
        let mut h = Hist::default();
        h.record(v);
        prop_assert_eq!(h.nonzero_buckets(), vec![(bucket_lo(i), 1)]);
        prop_assert_eq!((h.min(), h.max(), h.count()), (v, v, 1));
    }

    /// Quantiles are bracketed by the recorded extremes for any data.
    #[test]
    fn hist_quantiles_stay_in_range(
        vs in proptest::collection::vec(any::<u64>(), 1..60),
        q_bp in 0u32..10_000,
    ) {
        let mut h = Hist::default();
        for &v in &vs {
            h.record(v);
        }
        let q = h.quantile(q_bp as f64 / 10_000.0);
        prop_assert!(h.min() <= q && q <= h.max());
    }
}

/// E13-shaped intent: the shim-heavy mix the perf records use.
fn intent(reg: &mut SemanticRegistry) -> Intent {
    Intent::builder("telemetry-it")
        .want(reg, names::RSS_HASH)
        .want(reg, names::VLAN_TCI)
        .want(reg, names::PKT_LEN)
        .want(reg, names::KVS_KEY_HASH)
        .build()
}

fn engine(queues: usize, policy: SteerPolicy) -> ShardedEngine {
    let cache = PlanCache::default();
    let mut reg = SemanticRegistry::with_builtins();
    let i = intent(&mut reg);
    ShardedEngine::with_intents(
        &cache,
        &models::e1000e(),
        &vec![i; queues],
        &mut reg,
        256,
        policy,
        32,
    )
    .expect("engine builds")
}

fn pools(eng: &ShardedEngine, seed: u64, n: usize) -> Vec<Vec<ShardFrame>> {
    let wl = Workload {
        flows: 64,
        payload: (18, 128),
        transport: opendesc::nicsim::Transport::Udp,
        vlan_fraction: 0.5,
        seed,
        ..Workload::default()
    };
    ShardedPktGen::generate(wl, eng.steerer(), n).into_pools()
}

/// Same seed, same config → byte-identical snapshot JSON (wall-clock
/// metrics stripped). Run the whole pipeline twice from scratch and
/// diff the serialized registries.
#[test]
fn sharded_snapshot_json_is_deterministic() {
    let run = || {
        let mut eng = engine(4, SteerPolicy::Rss);
        eng.set_telemetry_enabled(true);
        let pools = pools(&eng, 42, 600);
        let rep = eng.run(&pools);
        assert_eq!(rep.total_rx_packets(), 600);
        eng.snapshot().without_timing().to_json()
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "same seed must serialize identically");
    // The stripped snapshot still carries the engine-wide counters...
    assert!(a.contains("\"rx.engine.worker.packets\": 600"));
    assert!(a.contains("rx.engine.fields_hw"));
    // ...but no wall-clock metric survives the filter.
    assert!(!a.contains("_ns\""), "timing keys must be stripped:\n{a}");
    assert!(
        !a.contains(".time."),
        "histogram timing scopes must be stripped"
    );
}

/// The registry's additive fold: the engine scope equals the sum of the
/// per-queue scopes, counter by counter.
#[test]
fn engine_scope_is_the_sum_of_queue_scopes() {
    let mut eng = engine(2, SteerPolicy::RoundRobin);
    eng.set_telemetry_enabled(true);
    let pools = pools(&eng, 7, 300);
    eng.run(&pools);
    let snap = eng.snapshot();
    for metric in [
        "worker.packets",
        "nic.rx_frames",
        "validation.accepted",
        "fields_hw",
        "fields_sw",
        "softnic.shim_ops",
    ] {
        let q_sum =
            snap.counter(&format!("rx.q0.{metric}")) + snap.counter(&format!("rx.q1.{metric}"));
        assert_eq!(
            snap.counter(&format!("rx.engine.{metric}")),
            q_sum,
            "engine scope diverged from queue sum on {metric}"
        );
    }
    match snap.get("rx.engine.time.poll_ns") {
        Some(MetricValue::Hist(h)) => assert!(h.count() > 0),
        other => panic!("merged poll histogram missing: {other:?}"),
    }
}

/// Fault injection on one queue shows up in that queue's trace ring —
/// in order, with the right queue index — and nowhere else.
#[test]
fn trace_ring_attributes_fault_events_to_the_faulting_queue() {
    let mut eng = engine(2, SteerPolicy::RoundRobin);
    eng.set_telemetry_enabled(true);
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
    let pools = ShardedPktGen::generate(Workload::default(), eng.steerer(), 40).into_pools();
    let (_, kept) = eng.run_collect(&pools);
    let drained: usize = kept.iter().map(|c| c.rx.len()).sum();
    assert_eq!(drained, 40);
    assert_eq!(eng.workers()[1].health(), QueueHealth::Degraded);

    let ring0 = &eng.workers()[0].driver().telemetry().trace;
    let ring1 = &eng.workers()[1].driver().telemetry().trace;
    let events0 = ring0.events();
    let events1 = ring1.events();
    assert!(!events0.is_empty() && !events1.is_empty());

    // Queue attribution: every event carries its own queue's index.
    assert!(
        events0.iter().all(|e| e.queue == 0),
        "queue 0 ring mislabeled"
    );
    assert!(
        events1.iter().all(|e| e.queue == 1),
        "queue 1 ring mislabeled"
    );

    // The clean queue saw doorbells and writebacks, never a discard.
    assert!(events0.iter().any(|e| e.kind == TraceKind::Doorbell));
    assert!(events0.iter().any(|e| e.kind == TraceKind::Writeback));
    assert!(
        !events0
            .iter()
            .any(|e| e.kind == TraceKind::DiscardDuplicate),
        "clean queue must record no duplicate discards"
    );

    // The faulting queue's discards are on the record, in poll order
    // (monotonic event sequence), and each replay is discarded only
    // after the original's writeback was admitted.
    let dups = events1
        .iter()
        .filter(|e| e.kind == TraceKind::DiscardDuplicate)
        .count();
    assert!(dups > 0, "duplicate discards missing from the trace");
    for w in events1.windows(2) {
        assert!(w[0].seq < w[1].seq, "trace must be in poll order");
    }
    let first_discard = events1
        .iter()
        .position(|e| e.kind == TraceKind::DiscardDuplicate)
        .unwrap();
    assert!(
        events1[..first_discard]
            .iter()
            .any(|e| e.kind == TraceKind::Writeback),
        "a discard must follow the original's admitted writeback"
    );

    // The engine-wide dump names both queues (the artifact a failing
    // test would print).
    let dump = eng.trace_dump();
    assert!(dump.contains("q0") && dump.contains("q1"), "dump: {dump}");
}

/// Telemetry is off by default: no trace events, no histogram samples,
/// and the snapshot's histograms stay empty.
#[test]
fn telemetry_disabled_records_nothing() {
    let mut eng = engine(1, SteerPolicy::RoundRobin);
    let pools = pools(&eng, 9, 100);
    eng.run(&pools);
    let w = &eng.workers()[0];
    assert!(!w.driver().telemetry().enabled());
    assert!(w.driver().telemetry().trace.events().is_empty());
    match eng.snapshot().get("rx.engine.time.poll_ns") {
        Some(MetricValue::Hist(h)) => assert_eq!(h.count(), 0),
        other => panic!("histogram should exist but be empty: {other:?}"),
    }
}
