//! Zero-allocation guarantee for the TX path, host and device.
//!
//! A counting global allocator wraps `System`; after one warm-up round
//! the steady state — filling a [`TxBatch`], submitting it through
//! [`TxQueue::submit`] (software fixups, buffer exchange and bytecode
//! deparse included) and draining it on the device with
//! `SimNic::process_tx_drain` (table-driven descriptor read, buffer
//! copy, VLAN insert and checksum fill in reused scratch) — must
//! perform no heap allocation at all.
//! A second window holds [`TxDriver::send`], the one-slot case of the
//! same path, to the same zero.
//! The counter (`counting/mod.rs`) counts the allocations of the
//! thread that reads it.

use opendesc::compiler::{
    compile_tx, CompiledTxPlan, Intent, Selector, TxBatch, TxDriver, TxQueue, TxRequest,
};
use opendesc::ir::{names, SemanticRegistry};
use opendesc::nicsim::{models, SimNic};
use opendesc::softnic::testpkt;
use std::sync::Arc;

mod counting;
use counting::{allocs, counted};

#[test]
fn steady_state_batched_submit_allocates_nothing() {
    // e1000e: IP checksum rides the descriptor, VLAN and L4 fall to the
    // driver — so the measured window covers the software-fixup path
    // (in-buffer VLAN insert + checksum fill), not just the exchange.
    let model = models::e1000e();
    let mut reg = SemanticRegistry::with_builtins();
    let intent = Intent::builder("alloc")
        .want(&mut reg, names::TX_L4_CSUM)
        .want(&mut reg, names::TX_IP_CSUM)
        .want(&mut reg, names::TX_VLAN_INSERT)
        .build();
    let compiled = compile_tx(
        &Selector::default(),
        &model.p4_source,
        model.desc_parser.as_deref().unwrap(),
        &model.name,
        &intent,
        &mut reg,
    )
    .unwrap();
    let plan = Arc::new(CompiledTxPlan::new(compiled.clone(), &reg));
    let mut nic = SimNic::new(model.clone(), 256).unwrap();
    let mut q = TxQueue::attach(&mut nic, plan, 2048);
    let mut batch = TxBatch::new(32, 2048);

    let mut frame = testpkt::udp4([10, 3, 0, 1], [10, 3, 0, 2], 5000, 6000, b"steady", None);
    frame[24] = 0;
    frame[25] = 0;
    frame[40] = 0;
    frame[41] = 0;
    let req = TxRequest {
        ip_csum: true,
        l4_csum: true,
        vlan: Some(0x0123),
    };

    // One warm-up round fills whatever lazily grows (the device's
    // descriptor and frame scratch); the claim under test is the steady
    // state, not first touch.
    for _ in 0..32 {
        assert!(batch.push(&frame, req));
    }
    q.submit(&mut nic, &mut batch).unwrap();
    batch.clear();
    assert_eq!(nic.process_tx_drain(), 32);

    // Measured steady state: several full batch cycles, zero allocs.
    for round in 0..4 {
        let before = allocs();
        for _ in 0..32 {
            assert!(batch.push(&frame, req));
        }
        let placed = q.submit(&mut nic, &mut batch).unwrap();
        let submitted = allocs();
        let drained = nic.process_tx_drain();
        let after = allocs();
        assert_eq!((placed, drained), (32, 32));
        assert_eq!(
            submitted - before,
            0,
            "round {round}: batched submit hit the allocator"
        );
        assert_eq!(
            after - submitted,
            0,
            "round {round}: device TX drain hit the allocator"
        );
        batch.clear();
    }
    assert!(
        nic.active_tx_layout().is_some(),
        "drain was not table-driven"
    );
    assert_eq!(q.stats.frames, 5 * 32);
    assert_eq!(q.stats.doorbells, 5);

    // Submit trades buffers with the queue's DMA buffers instead of
    // copying into them, and takes the one the device consumed last: a
    // drain after every batch would keep only a few dozen of them in
    // circulation. So each lap fills the ring before the device drains
    // it, which sends every DMA buffer through every role. Three such
    // laps stay off the allocator and leak nothing: the device's memory
    // holds what attach registered.
    let slots = nic.tx_ring.capacity();
    assert_eq!(nic.host_mem.len(), slots);
    let ((), laps) = counted(|| {
        for _ in 0..3 {
            for _ in 0..slots / 32 {
                for _ in 0..32 {
                    assert!(batch.push(&frame, req));
                }
                assert_eq!(q.submit(&mut nic, &mut batch).unwrap(), 32);
                batch.clear();
            }
            assert_eq!(q.in_flight(&nic), slots as u64, "the lap filled the ring");
            assert_eq!(nic.process_tx_drain(), slots as u64);
        }
    });
    assert_eq!(laps, 0, "buffer exchange hit the allocator");
    assert_eq!(
        nic.host_mem.len(),
        slots,
        "submit registered or lost a buffer"
    );
    // Every buffer in circulation — the ring's worth the next full lap
    // fills, then the batch's own, which that lap handed back — still
    // takes a full-size frame plus its software VLAN tag.
    let full = testpkt::udp4([10, 3, 0, 1], [10, 3, 0, 2], 1, 2, &[0x5a; 2048 - 42], None);
    assert_eq!(full.len(), 2048);
    for lap in 0..slots / 32 + 1 {
        for _ in 0..32 {
            assert!(batch.push(&full, req), "lap {lap}: a batch buffer shrank");
        }
        assert_eq!(q.submit(&mut nic, &mut batch).unwrap(), 32);
        batch.clear();
        if q.in_flight(&nic) == slots as u64 || lap == slots / 32 {
            let wire = nic.process_tx();
            assert!(wire.len() >= 32, "lap {lap}: drained {}", wire.len());
            for wire in wire {
                assert_eq!(wire.len(), 2052, "lap {lap}: no room left for the tag");
            }
        }
    }
    assert_eq!(q.in_flight(&nic), 0);

    // Second window: the per-send driver, on its own NIC. One warm-up
    // send, then 256 sends and their device drains allocate nothing.
    let mut nic = SimNic::new(model, 256).unwrap();
    let mut tx = TxDriver::attach(&mut nic, compiled, reg).unwrap();
    tx.send(&mut nic, &frame, req).unwrap();
    assert_eq!(nic.process_tx_drain(), 1);
    let ((), sends) = counted(|| {
        for _ in 0..256 {
            tx.send(&mut nic, &frame, req).unwrap();
            assert_eq!(nic.process_tx_drain(), 1);
        }
    });
    assert_eq!(
        sends, 0,
        "TxDriver::send or its device drain hit the allocator"
    );
}
