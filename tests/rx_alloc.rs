//! Zero-allocation guarantee for the RX path, host and device: the
//! twin of `tx_alloc.rs`.
//!
//! A counting global allocator wraps `System`. After a warm-up round of
//! the same traffic, delivering a batch's worth of frames
//! (`OpenDescDriver::deliver`, the device's compiled writeback into
//! its ring slots) and draining them with
//! [`OpenDescDriver::poll_batch_into`] performs no heap allocation, in
//! every disposition a batch can take: trusted, trusted with truncated
//! records among its rows, verified (`ValidationMode::Full`, repairs
//! included) and degraded; and after a relayout commit, on the new
//! plan. [`OpenDescDriver::poll`], the one-slot batch, allocates only
//! what the packet it returns owns, and an empty poll nothing.
//! This file holds exactly one test: the counter is process-global, so
//! any concurrent test would pollute the measurement.

use opendesc::compiler::{
    FlipProgress, HealthConfig, Intent, OpenDescDriver, PlanCache, QueueHealth, RxBatch,
    ValidationMode,
};
use opendesc::ir::{names, SemanticRegistry};
use opendesc::nicsim::{models, FaultConfig, SimNic};
use opendesc::softnic::testpkt;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// Only allocation events are counted; deallocation is free to happen.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.realloc(p, l, new)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Allocations `f` makes, and what it returns.
fn allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::SeqCst);
    let out = f();
    (ALLOCS.load(Ordering::SeqCst) - before, out)
}

const BATCH: usize = 32;
const RING: usize = 64;
const WARM_UP: usize = 2 * RING / BATCH;

/// A batch's frames: UDP, half of them VLAN-tagged, a third KVS GETs,
/// so every software shim of the intent below has work. Each round
/// sends the same batch, so a ring slot always takes the same frame.
fn frames() -> Vec<Vec<u8>> {
    (0..BATCH as u32)
        .map(|k| {
            let vlan = (k % 2 == 0).then_some(0x0042);
            let payload = match k % 3 {
                0 => testpkt::kvs_get_payload("steady"),
                _ => b"steady".to_vec(),
            };
            testpkt::udp4(
                [10, 0, 0, 1],
                [10, 0, 0, (k % 8) as u8],
                4000,
                11211,
                &payload,
                vlan,
            )
        })
        .collect()
}

/// An intent named `name` that wants `sems`.
fn intent(reg: &mut SemanticRegistry, name: &str, sems: &[&str]) -> Intent {
    let mut b = Intent::builder(name);
    for s in sems {
        b = b.want(reg, s);
    }
    b.build()
}

/// The two plans a relayout flips between. On e1000e, `WIDE` reads
/// three fields from the completion and runs four SoftNIC shims.
const WIDE: [&str; 7] = [
    names::RSS_HASH,
    names::VLAN_TCI,
    names::PKT_LEN,
    names::PACKET_TYPE,
    names::PAYLOAD_OFFSET,
    names::KVS_KEY_HASH,
    names::IP_CHECKSUM,
];
const NARROW: [&str; 3] = [names::VLAN_TCI, names::PKT_LEN, names::PACKET_TYPE];

/// Deliver a batch and drain it with `poll_batch_into`: the
/// allocations the device's delivery made, those the polls made, and
/// the rows served.
fn round(drv: &mut OpenDescDriver, batch: &mut RxBatch) -> (u64, u64, usize) {
    let frames = frames();
    let (device, ()) = allocs(|| {
        for f in &frames {
            drv.deliver(f).unwrap();
        }
    });
    let (host, rows) = allocs(|| {
        let mut rows = 0;
        loop {
            match drv.poll_batch_into(batch) {
                0 => break rows,
                n => rows += n,
            }
        }
    });
    (device, host, rows)
}

/// Warm up until every ring slot has taken its frame twice, then hold
/// as many rounds again to zero allocations.
fn steady(what: &str, drv: &mut OpenDescDriver, batch: &mut RxBatch) {
    for _ in 0..WARM_UP {
        round(drv, batch);
    }
    for i in 0..WARM_UP {
        let (device, host, rows) = round(drv, batch);
        assert!(rows > 0, "{what}: round {i} served nothing");
        assert_eq!(device, 0, "{what}: round {i}: delivery hit the allocator");
        assert_eq!(
            host, 0,
            "{what}: round {i}: poll_batch_into hit the allocator"
        );
    }
}

#[test]
fn steady_state_rx_allocates_nothing() {
    let model = models::e1000e();
    let cache = PlanCache::default();
    let mut reg = SemanticRegistry::with_builtins();
    let wide = (cache.get_or_compile(&model, &intent(&mut reg, "wide", &WIDE), &mut reg)).unwrap();
    let narrow =
        (cache.get_or_compile(&model, &intent(&mut reg, "narrow", &NARROW), &mut reg)).unwrap();
    let attach = || {
        let nic = SimNic::new(model.clone(), RING).unwrap();
        OpenDescDriver::attach_shared(nic, Arc::clone(&wide)).unwrap()
    };

    // Trusted.
    let mut drv = attach();
    let mut batch = drv.make_batch(BATCH);
    steady("trusted", &mut drv, &mut batch);
    assert_eq!(drv.validation_stats().degraded_packets, 0);

    // Trusted, with truncated records among the rows (served degraded
    // in the same pass).
    let truncate = FaultConfig::builder()
        .truncate_chance(0.05)
        .seed(3)
        .build()
        .unwrap();
    drv.nic.set_faults(truncate).unwrap();
    steady("truncated", &mut drv, &mut batch);
    assert!(drv.validation_stats().truncated > 0, "nothing truncated");
    assert_eq!(drv.health(), QueueHealth::Healthy);

    // Verified: every row cross-checked, lies repaired.
    let mut drv = attach();
    drv.set_validation_mode(ValidationMode::Full);
    drv.set_health_config(HealthConfig {
        degraded_clean: 8,
        recovering_clean: 8,
    });
    let lies = FaultConfig::builder()
        .corrupt_chance(0.005)
        .seed(5)
        .build()
        .unwrap();
    drv.nic.set_faults(lies).unwrap();
    steady("verified", &mut drv, &mut batch);
    assert!(
        drv.validation_stats().repaired_fields > 0,
        "nothing repaired"
    );
    assert_eq!(
        drv.validation_stats().degraded_packets,
        0,
        "a verified batch was demoted"
    );

    // Degraded: ten truncated records demote the queue, and it stays
    // down for the whole window.
    let mut drv = attach();
    drv.set_health_config(HealthConfig {
        degraded_clean: u32::MAX,
        recovering_clean: 8,
    });
    let wedge = FaultConfig::builder().truncate_chance(1.0).build().unwrap();
    drv.nic.set_faults(wedge).unwrap();
    for f in &frames()[..10] {
        drv.deliver(f).unwrap();
    }
    while drv.poll_batch_into(&mut batch) > 0 {}
    assert_eq!(drv.health(), QueueHealth::Degraded);
    drv.nic.set_faults(FaultConfig::default()).unwrap();
    let before = drv.validation_stats().degraded_packets;
    steady("degraded", &mut drv, &mut batch);
    assert_eq!(drv.health(), QueueHealth::Degraded);
    assert_eq!(
        drv.validation_stats().degraded_packets - before,
        (2 * WARM_UP * BATCH) as u64
    );

    // `poll()`: a one-slot batch through the same pipeline. What it
    // allocates is the packet it hands out: its metadata vector, and the
    // frame buffer it took, which the device's next delivery into that
    // slot allocates again. An empty poll allocates nothing.
    let mut drv = attach();
    for _ in 0..WARM_UP {
        for f in &frames() {
            drv.deliver(f).unwrap();
            drv.poll().unwrap();
        }
    }
    for _ in 0..WARM_UP {
        for f in &frames() {
            let (device, ()) = allocs(|| drv.deliver(f).unwrap());
            let (host, pkt) = allocs(|| drv.poll());
            assert_eq!(pkt.map(|p| p.meta.len()), Some(WIDE.len()));
            assert_eq!(
                (device, host),
                (1, 1),
                "poll() allocates the returned packet's metadata, delivery the frame buffer it took"
            );
        }
    }
    let (n, pkt) = allocs(|| drv.poll());
    assert!(pkt.is_none());
    assert_eq!(n, 0, "an empty poll() hit the allocator");

    // Relayout: flip between two plans and poll on each. After the
    // first cycles, the deliveries and polls after a commit (the batch
    // reshaping for the new plan included) allocate nothing. The
    // commit itself is a control-plane call and is not held here: the
    // device's reprogram builds its new context map and offload
    // program.
    let mut drv = attach();
    let mut batch = drv.make_batch(BATCH);
    let mut generation = 0;
    for cycle in 0..WARM_UP {
        for target in [&narrow, &wide] {
            let target = Arc::clone(target);
            assert_eq!(drv.request_relayout(target), FlipProgress::Draining);
            generation += 1;
            assert_eq!(drv.advance_relayout(0), FlipProgress::Committed(generation));
            let (device, host, rows) = round(&mut drv, &mut batch);
            assert_eq!(rows, BATCH);
            if cycle >= WARM_UP / 2 {
                assert_eq!(
                    device, 0,
                    "cycle {cycle}: delivery after a flip hit the allocator"
                );
                assert_eq!(
                    host, 0,
                    "cycle {cycle}: the polls after a flip hit the allocator"
                );
            }
        }
    }
}
