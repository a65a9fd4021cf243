//! Multiple OpenDesc instances on one device (paper §3): each receive
//! queue gets its own intent, its own compiled completion layout, and
//! its own context — tailored to the traffic steered at it.
//!
//! Queue 0 ("fast path"): KVS requests steered by destination port,
//! minimal intent {kvs_key_hash, pkt_len} — on mlx5 the compiler still
//! needs the full CQE (the key hash lives in the programmable slot).
//! Queue 1 ("bulk"): everything else, intent {rss_hash, pkt_len} — the
//! compiler picks the 8 B compressed mini-CQE, an 8× smaller DMA
//! footprint on the high-volume queue.
//!
//! ```sh
//! cargo run --example multi_queue
//! ```

use opendesc::ir::names;
use opendesc::nicsim::{SteerPolicy, Transport};
use opendesc::prelude::*;

fn main() {
    let model = models::mlx5();

    // Two intents, one contract: the engine compiles each queue's
    // artifact out of one cache and programs each queue's own context.
    let mut reg = SemanticRegistry::with_builtins();
    let kvs_intent = Intent::builder("kvs_fastpath")
        .want(&mut reg, names::KVS_KEY_HASH)
        .want(&mut reg, names::PKT_LEN)
        .build();
    let bulk_intent = Intent::builder("bulk")
        .want(&mut reg, names::RSS_HASH)
        .want(&mut reg, names::PKT_LEN)
        .build();
    // One device, two queues, port steering: 11211 → queue 0.
    let policy = SteerPolicy::DstPort {
        table: vec![(11211, 0)],
        default: 1,
    };
    let mut eng = ShardedEngine::with_intents(
        &PlanCache::default(),
        &model,
        &[kvs_intent, bulk_intent],
        &mut reg,
        1024,
        policy,
        32,
    )
    .unwrap();
    let (kvs, bulk) = (eng.workers()[0].artifact(), eng.workers()[1].artifact());
    println!(
        "queue 0 (kvs):  {}B completion, fallbacks: {:?}",
        kvs.path.size_bytes(),
        kvs.missing_features()
    );
    println!(
        "queue 1 (bulk): {}B completion, fallbacks: {:?}",
        bulk.path.size_bytes(),
        bulk.missing_features()
    );
    assert!(kvs.path.size_bytes() > bulk.path.size_bytes());

    // Mixed traffic.
    let mut kvs_gen = PktGen::new(Workload {
        transport: Transport::KvsGet,
        flows: 8,
        ..Workload::default()
    });
    let mut bulk_gen = PktGen::new(Workload {
        flows: 24,
        seed: 42,
        ..Workload::default()
    });
    // The device's steering stage picks each frame's queue; the frame
    // then lands on that queue's driver with its steering-time parse.
    let mut steered = [0u64; 2];
    for i in 0..900u64 {
        let f = match i % 3 {
            0 => kvs_gen.next_frame(),
            _ => bulk_gen.next_frame(),
        };
        let v = eng.steerer().steer(i, &f);
        steered[v.queue] += 1;
        let drv = eng.workers_mut()[v.queue].driver_mut();
        drv.deliver_steered(&f, v.parsed.as_ref(), v.rss).unwrap();
    }
    println!("\nsteering: {steered:?} frames per queue");
    assert_eq!(steered, [300, 600]);

    // Each queue polls through its own compiled driver.
    let [kvs_worker, bulk_worker] = eng.workers_mut() else {
        unreachable!("two intents, two workers");
    };

    let kvs_sem = reg.id(names::KVS_KEY_HASH).unwrap();
    let mut keys = std::collections::HashSet::new();
    while let Some(pkt) = kvs_worker.driver_mut().poll() {
        if let Some(h) = pkt.get(kvs_sem) {
            keys.insert(h);
        }
    }
    println!(
        "queue 0 saw {} distinct KVS keys (hash from the NIC's programmable slot)",
        keys.len()
    );

    let rss_sem = reg.id(names::RSS_HASH).unwrap();
    let (mut n, mut bytes) = (0u64, 0u64);
    while let Some(pkt) = bulk_worker.driver_mut().poll() {
        assert!(pkt.get(rss_sem).is_some());
        n += 1;
        bytes += pkt.frame.len() as u64;
    }
    println!("queue 1 drained {n} bulk frames ({bytes} bytes) through 8B mini-CQEs");
    assert_eq!(n, 600);
    println!("\ntwo intents, two layouts, one NIC — per-queue contracts as §3 describes.");
}
