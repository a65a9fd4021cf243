//! Transmit-side offloads: the same intent, two NICs, one driver.
//!
//! The host wants the NIC to insert the L4 checksum and an 802.1Q tag on
//! transmit. On the QDMA model, the compiler selects the 16-byte
//! extended descriptor whose contract carries both hints and programs
//! `h2c_ctx.desc_size = 16`; on e1000e, whose descriptor carries only an
//! IP-checksum flag, the driver performs the work in software before
//! posting. Either way the wire frames are byte-identical — the paper's
//! "missing features are implemented in software" for the TX direction.
//!
//! ```sh
//! cargo run --example tx_offload
//! ```

use opendesc::compiler::{compile_tx, Selector, TxDriver, TxRequest};
use opendesc::ir::names;
use opendesc::nicsim::SimNic;
use opendesc::prelude::*;
use opendesc::softnic::checksum::verify_l4_checksum;
use opendesc::softnic::testpkt;
use opendesc::softnic::wire::ParsedFrame;

fn main() {
    // A frame whose checksums are deliberately zeroed: someone must fill
    // them before the wire — the question is who.
    let mut frame = testpkt::udp4(
        [10, 8, 0, 1],
        [10, 8, 0, 2],
        4000,
        5000,
        b"tx offload",
        None,
    );
    frame[24] = 0;
    frame[25] = 0; // IP header checksum
    frame[40] = 0;
    frame[41] = 0; // UDP checksum

    let req = TxRequest {
        l4_csum: true,
        ip_csum: true,
        vlan: Some(0x0042),
    };
    let mut wires = Vec::new();

    for model in [models::qdma_default(), models::e1000e()] {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("tx_intent")
            .want(&mut reg, names::TX_L4_CSUM)
            .want(&mut reg, names::TX_IP_CSUM)
            .want(&mut reg, names::TX_VLAN_INSERT)
            .build();
        let compiled = compile_tx(
            &Selector::default(),
            &model.p4_source,
            model.desc_parser.as_deref().expect("model has a TX parser"),
            &model.name,
            &intent,
            &mut reg,
        )
        .expect("TX intent compiles");

        let context = (compiled.context.iter())
            .map(|(f, v)| format!("{}={v}", f.dotted()))
            .collect::<Vec<_>>()
            .join(",");
        println!(
            "{:<14} descriptor={}B layouts={} context={} software=[{}]",
            model.name,
            compiled.layout.size_bytes(),
            compiled.layouts_considered,
            if context.is_empty() { "-" } else { &context },
            compiled.software_features().join(","),
        );

        let mut nic = SimNic::new(model, 64).unwrap();
        let mut tx = TxDriver::attach(&mut nic, compiled, reg).unwrap();
        tx.send(&mut nic, &frame, req).unwrap();
        let mut sent = nic.process_tx();
        assert_eq!(sent.len(), 1, "one frame on the wire");
        wires.push(sent.remove(0));
    }

    assert_eq!(
        wires[0], wires[1],
        "hardware offload and software fallback must agree on the wire"
    );
    let p = ParsedFrame::parse(&wires[0]).unwrap();
    println!(
        "\nwire frame: {} bytes, vlan={:#06x}, l4 checksum valid: {}",
        wires[0].len(),
        p.vlan_tci.unwrap(),
        verify_l4_checksum(&p)
    );
    assert_eq!(p.vlan_tci, Some(0x0042));
    assert!(verify_l4_checksum(&p));
    println!("identical wire bytes from both NICs — who does the work is the compiler's call.");
}
