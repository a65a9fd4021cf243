//! Equivalence of the sharded parallel RX engine with a sequential
//! single-queue drain.
//!
//! Sharding must be invisible in the data: for the same wire traffic,
//! the *multiset* of (frame, metadata) pairs produced by N workers
//! draining their queues concurrently must be bit-identical to one
//! driver receiving everything on a single queue — on every NIC model,
//! under both `Rss` (RETA-indirected Toeplitz) and `DstPort`
//! (flow-director style) steering. Only packet *order across queues* may
//! differ, which is exactly what the multiset comparison allows.
//!
//! The intent deliberately holds stateless semantics only: per-flow
//! state (`flow_tag`) and device clocks (`timestamp`) legitimately
//! depend on which queue a frame lands on, so they are out of scope for
//! bit-equivalence — the engine shards *stateless* metadata extraction.
//!
//! Also pins the plan cache's determinism: identical `(model, context,
//! intent)` requests return pointer-equal `Arc<CompiledRx>` artifacts.

use opendesc::compiler::{Intent, OpenDescDriver, PlanCache, ShardedEngine};
use opendesc::ir::{names, SemanticRegistry};
use opendesc::nicsim::{models, NicModel, ShardFrame, SimNic, SteerPolicy};
use opendesc::softnic::testpkt;
use proptest::prelude::*;
use std::sync::Arc;

fn intent(reg: &mut SemanticRegistry) -> Intent {
    Intent::builder("sharded-equiv")
        .want(reg, names::RSS_HASH)
        .want(reg, names::QUEUE_HINT)
        .want(reg, names::VLAN_TCI)
        .want(reg, names::PKT_LEN)
        .want(reg, names::PACKET_TYPE)
        .want(reg, names::PAYLOAD_OFFSET)
        .want(reg, names::KVS_KEY_HASH)
        .want(reg, names::IP_CHECKSUM)
        .build()
}

/// Sorted (frame, metadata) pairs of a sequential single-queue drain.
fn sequential_pairs(model: NicModel, frames: &[Vec<u8>]) -> Vec<(Vec<u8>, Vec<Option<u128>>)> {
    let mut reg = SemanticRegistry::with_builtins();
    let i = intent(&mut reg);
    let compiled = opendesc::compiler::Compiler::default()
        .compile_model(&model, &i, &mut reg)
        .expect("intent compiles on every model");
    let mut drv = OpenDescDriver::attach(SimNic::new(model, 256).unwrap(), compiled).unwrap();
    for f in frames {
        drv.deliver(f).unwrap();
    }
    let mut out = Vec::new();
    while let Some(pkt) = drv.poll() {
        let meta = pkt.meta.iter().map(|(_, v)| *v).collect();
        out.push((pkt.frame, meta));
    }
    out.sort();
    out
}

/// Sorted (frame, metadata) pairs of an N-worker parallel run: frames
/// steered into per-queue pools, then pumped on the engine's threads.
fn sharded_pairs(
    model: NicModel,
    policy: SteerPolicy,
    workers: usize,
    frames: &[Vec<u8>],
) -> Vec<(Vec<u8>, Vec<Option<u128>>)> {
    let cache = PlanCache::default();
    let mut reg = SemanticRegistry::with_builtins();
    let i = intent(&mut reg);
    let intents = vec![i; workers];
    let mut eng =
        ShardedEngine::with_intents(&cache, &model, &intents, &mut reg, 256, policy, 8).unwrap();
    let mut pools = vec![Vec::new(); workers];
    for (i, f) in frames.iter().enumerate() {
        let v = eng.steerer().steer(i as u64, f);
        pools[v.queue].push(ShardFrame {
            bytes: f.clone(),
            rss: v.rss,
        });
    }
    let (_, kept) = eng.run_collect(&pools);
    let mut out: Vec<(Vec<u8>, Vec<Option<u128>>)> = kept.into_iter().flat_map(|c| c.rx).collect();
    out.sort();
    out
}

/// One arbitrary frame: valid UDP/TCP (VLAN-tagged or not), a KVS GET
/// request, or raw bytes (non-IP ethertypes, runts, garbage).
fn arb_frame() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (
            any::<[u8; 4]>(),
            any::<[u8; 4]>(),
            any::<u16>(),
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..64usize),
            any::<bool>(),
            any::<u16>(),
        )
            .prop_map(|(s, d, sp, dp, pay, tagged, tci)| {
                testpkt::udp4(s, d, sp, dp, &pay, tagged.then_some(tci & 0x0FFF))
            }),
        (
            any::<[u8; 4]>(),
            any::<[u8; 4]>(),
            any::<u16>(),
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..64usize),
            any::<bool>(),
            any::<u16>(),
        )
            .prop_map(|(s, d, sp, dp, pay, tagged, tci)| {
                testpkt::tcp4(s, d, sp, dp, &pay, tagged.then_some(tci & 0x0FFF))
            }),
        "\\PC{1,12}".prop_map(|key| {
            testpkt::udp4(
                [10, 0, 0, 1],
                [10, 0, 0, 2],
                40000,
                11211,
                &testpkt::kvs_get_payload(&key),
                None,
            )
        }),
        proptest::collection::vec(any::<u8>(), 0..120usize),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_drain_multiset_equals_sequential_single_queue(
        frames in proptest::collection::vec(arb_frame(), 1..24),
        workers in 2..5usize,
    ) {
        for model in [models::e1000e(), models::ixgbe(), models::mlx5(), models::qdma_default()] {
            let want = sequential_pairs(model.clone(), &frames);
            for policy in [
                SteerPolicy::Rss,
                SteerPolicy::DstPort { table: vec![(11211, 1), (443, 0)], default: 0 },
            ] {
                let pname = match &policy {
                    SteerPolicy::Rss => "Rss",
                    _ => "DstPort",
                };
                let got = sharded_pairs(model.clone(), policy, workers, &frames);
                prop_assert_eq!(
                    &got,
                    &want,
                    "{} / {} / {} workers: sharded drain diverged from sequential",
                    model.name.clone(),
                    pname,
                    workers
                );
            }
        }
    }
}

#[test]
fn plan_cache_returns_pointer_equal_artifacts() {
    // Deterministic (not property) per the issue: identical (model,
    // context, intent) must yield pointer-equal Arc artifacts, both via
    // direct cache hits and across a uniform engine's workers.
    let cache = PlanCache::default();
    for model in [models::e1000e(), models::mlx5()] {
        let mut reg = SemanticRegistry::with_builtins();
        let i = intent(&mut reg);
        let a = cache.get_or_compile(&model, &i, &mut reg).unwrap();
        let b = cache.get_or_compile(&model, &i, &mut reg).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "{}: repeated compilation not shared",
            model.name
        );
        let intents = vec![i.clone(); 4];
        let eng = ShardedEngine::with_intents(
            &cache,
            &model,
            &intents,
            &mut reg,
            64,
            SteerPolicy::Rss,
            8,
        )
        .unwrap();
        for w in eng.workers() {
            assert!(
                Arc::ptr_eq(&a, w.artifact()),
                "{}: worker artifact not the cached one",
                model.name
            );
        }
    }
    // Two models → exactly two artifacts, every other request was a hit.
    assert_eq!(cache.len(), 2);
    let (hits, misses) = cache.stats();
    assert_eq!(misses, 2);
    assert_eq!(hits, 2 * (1 + 4));
}
