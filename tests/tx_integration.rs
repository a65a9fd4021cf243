//! TX-direction integration: intent → layout selection → descriptor
//! writing → device parse → offload execution, across models; plus the
//! wire-equivalence property between hardware offload and driver
//! software fallback.

use opendesc::compiler::{compile_tx, Intent, Selector, TxDriver, TxRequest};
use opendesc::ir::{names, SemanticRegistry};
use opendesc::nicsim::{models, NicError, RingError, SimNic};
use opendesc::softnic::checksum::{verify_ipv4_checksum, verify_l4_checksum};
use opendesc::softnic::testpkt;
use opendesc::softnic::wire::ParsedFrame;

fn zeroed(payload: &[u8]) -> Vec<u8> {
    let mut f = testpkt::udp4([10, 5, 0, 1], [10, 5, 0, 2], 7000, 8000, payload, None);
    f[24] = 0;
    f[25] = 0;
    f[40] = 0;
    f[41] = 0;
    f
}

fn tx_models() -> Vec<opendesc::nicsim::NicModel> {
    models::catalog()
        .into_iter()
        .filter(|m| m.desc_parser.is_some())
        .collect()
}

#[test]
fn wire_frames_identical_across_all_tx_models() {
    // Same frame, same offload request, every TX-capable model: the wire
    // bytes must agree no matter who (NIC or driver) does the work.
    let req = TxRequest {
        l4_csum: true,
        ip_csum: true,
        vlan: Some(0x0999),
    };
    let mut wires = Vec::new();
    for model in tx_models() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("tx")
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
        .unwrap_or_else(|e| panic!("{}: {e}", model.name));
        let mut nic = SimNic::new(model.clone(), 16).unwrap();
        let mut tx = TxDriver::attach(&mut nic, compiled, reg).unwrap();
        tx.send(&mut nic, &zeroed(b"across models"), req).unwrap();
        let sent = nic.process_tx();
        assert_eq!(sent.len(), 1, "{}", model.name);
        wires.push((model.name.clone(), sent.into_iter().next().unwrap()));
    }
    for w in wires.windows(2) {
        assert_eq!(
            w[0].1, w[1].1,
            "wire frames diverge between {} and {}",
            w[0].0, w[1].0
        );
    }
    // And the result is actually valid on the wire.
    let p = ParsedFrame::parse(&wires[0].1).unwrap();
    assert_eq!(p.vlan_tci, Some(0x0999));
    assert!(verify_l4_checksum(&p));
    assert!(verify_ipv4_checksum(p.ipv4.unwrap().header()));
}

#[test]
fn tx_stats_track_descriptor_flow() {
    let model = models::ice();
    let mut reg = SemanticRegistry::with_builtins();
    let intent = Intent::builder("t")
        .want(&mut reg, names::TX_IP_CSUM)
        .build();
    let compiled = compile_tx(
        &Selector::default(),
        &model.p4_source,
        "DescParser",
        &model.name,
        &intent,
        &mut reg,
    )
    .unwrap();
    let mut nic = SimNic::new(model, 64).unwrap();
    let mut tx = TxDriver::attach(&mut nic, compiled, reg).unwrap();
    let capacity = nic.tx_ring.capacity();
    assert_eq!(
        nic.host_mem.len(),
        capacity,
        "one DMA buffer per ring entry, registered at attach"
    );
    for i in 0..10 {
        tx.send(
            &mut nic,
            &zeroed(format!("pkt {i}").as_bytes()),
            TxRequest {
                ip_csum: true,
                ..Default::default()
            },
        )
        .unwrap();
    }
    let sent = nic.process_tx();
    assert_eq!(sent.len(), 10);
    assert_eq!(nic.tx_stats.descs, 10);
    assert_eq!(nic.tx_stats.frames, 10);
    assert_eq!(nic.tx_stats.parse_rejects, 0);
    assert_eq!(nic.tx_stats.bad_buffers, 0);
    for f in &sent {
        assert!(verify_ipv4_checksum(&f[14..34]));
    }
    // Sending reuses those buffers: ten laps of the ring later the
    // device's host memory holds exactly what attach registered.
    for lap in 0..10 {
        for _ in 0..capacity {
            tx.send(&mut nic, &zeroed(b"lap"), TxRequest::default())
                .unwrap();
        }
        assert_eq!(nic.process_tx_drain() as usize, capacity, "lap {lap}");
    }
    assert_eq!(
        nic.host_mem.len(),
        capacity,
        "send must not register buffers"
    );
}

#[test]
fn send_fails_closed_on_an_oversize_frame_and_on_a_full_ring() {
    let model = models::qdma_default();
    let mut reg = SemanticRegistry::with_builtins();
    let intent = Intent::builder("t").build();
    let compiled = compile_tx(
        &Selector::default(),
        &model.p4_source,
        "DescParser",
        &model.name,
        &intent,
        &mut reg,
    )
    .unwrap();
    let mut nic = SimNic::new(model, 4).unwrap();
    let mut tx = TxDriver::attach(&mut nic, compiled, reg).unwrap();

    // Longer than the driver's fixed slot: refused, nothing posted.
    let err = tx.send(&mut nic, &[0u8; 4096], TxRequest::default());
    assert!(matches!(err, Err(NicError::BadConfig(_))), "{err:?}");
    assert_eq!(nic.tx_ring.len(), 0);
    assert_eq!(nic.process_tx_drain(), 0);
    assert_eq!(nic.tx_stats.descs, 0);

    // A full ring: refused, nothing posted beyond what filled it.
    for _ in 0..nic.tx_ring.capacity() {
        tx.send(&mut nic, &zeroed(b"fill"), TxRequest::default())
            .unwrap();
    }
    let err = tx.send(&mut nic, &zeroed(b"one more"), TxRequest::default());
    assert_eq!(err, Err(NicError::Ring(RingError::Full)));
    assert_eq!(nic.tx_ring.len(), nic.tx_ring.capacity());
    assert_eq!(nic.process_tx_drain() as usize, nic.tx_ring.capacity());
    assert_eq!(nic.tx_stats.descs as usize, nic.tx_ring.capacity());
    assert_eq!(nic.tx_stats.bad_buffers + nic.tx_stats.parse_rejects, 0);
    // And the ring drains back to usable.
    tx.send(&mut nic, &zeroed(b"after"), TxRequest::default())
        .unwrap();
}

#[test]
fn qdma_context_steers_descriptor_size() {
    // The compiler derives desc_size=16 for an offload-carrying intent
    // and desc_size=12 for a plain one; both rings work against the same
    // contract.
    let model = models::qdma_default();
    for (want_offload, expect_bytes) in [(true, 16u32), (false, 12)] {
        let mut reg = SemanticRegistry::with_builtins();
        let mut b = Intent::builder("q");
        if want_offload {
            b = b.want(&mut reg, names::TX_L4_CSUM);
        }
        let intent = b.build();
        let compiled = compile_tx(
            &Selector::default(),
            &model.p4_source,
            "DescParser",
            &model.name,
            &intent,
            &mut reg,
        )
        .unwrap();
        assert_eq!(compiled.layout.size_bytes(), expect_bytes);
        let mut nic = SimNic::new(model.clone(), 16).unwrap();
        let mut tx = TxDriver::attach(&mut nic, compiled, reg).unwrap();
        tx.send(
            &mut nic,
            &zeroed(b"steered"),
            TxRequest {
                l4_csum: want_offload,
                ..Default::default()
            },
        )
        .unwrap();
        let sent = nic.process_tx();
        assert_eq!(sent.len(), 1);
        if want_offload {
            let p = ParsedFrame::parse(&sent[0]).unwrap();
            assert!(verify_l4_checksum(&p));
        }
    }
}

#[test]
fn rx_and_tx_coexist_on_one_nic() {
    // Full duplex through a single SimNic: receive with compiled RX
    // accessors while transmitting with the compiled TX plan.
    let model = models::ice();
    let mut reg = SemanticRegistry::with_builtins();
    let rx_intent = Intent::builder("rx")
        .want(&mut reg, names::RSS_HASH)
        .want(&mut reg, names::PKT_LEN)
        .build();
    let rx = opendesc::compiler::Compiler::default()
        .compile_model(&model, &rx_intent, &mut reg)
        .unwrap();
    let tx_intent = Intent::builder("tx")
        .want(&mut reg, names::TX_IP_CSUM)
        .build();
    let txc = compile_tx(
        &Selector::default(),
        &model.p4_source,
        "DescParser",
        &model.name,
        &tx_intent,
        &mut reg,
    )
    .unwrap();

    let mut nic = SimNic::new(model, 64).unwrap();
    nic.configure(rx.context.clone().unwrap()).unwrap();
    let mut tx = TxDriver::attach(&mut nic, txc, reg.clone()).unwrap();

    // Interleave RX and TX.
    let rss = reg.id(names::RSS_HASH).unwrap();
    for i in 0..8u16 {
        let inbound = testpkt::udp4([10, 1, 1, 1], [10, 1, 1, 2], 100 + i, 200, b"in", None);
        nic.deliver(&inbound).unwrap();
        tx.send(
            &mut nic,
            &zeroed(format!("out {i}").as_bytes()),
            TxRequest {
                ip_csum: true,
                ..Default::default()
            },
        )
        .unwrap();
    }
    let outs = nic.process_tx();
    assert_eq!(outs.len(), 8);
    let mut rx_count = 0;
    while let Some((frame, cmpt)) = nic.receive() {
        let acc = rx.accessors.for_semantic(rss).unwrap();
        let mut soft = opendesc::softnic::SoftNic::new();
        assert_eq!(
            acc.read(&cmpt),
            soft.compute(&reg, rss, &frame).unwrap() as u128
        );
        rx_count += 1;
    }
    assert_eq!(rx_count, 8);
}
