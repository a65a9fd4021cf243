//! End-to-end integration: contract → compiler → NIC → driver → values,
//! across every catalog model.

use opendesc::ir::{names, SemanticRegistry};
use opendesc::nicsim::{models, FaultConfig, PktGen, SimNic, Workload};
use opendesc::prelude::*;
use opendesc::softnic::{testpkt, SoftNic};
use opendesc_bench::baseline::LcdDriver;

fn fig1_intent(reg: &mut SemanticRegistry) -> Intent {
    Intent::from_p4(opendesc::compiler::FIG1_INTENT_P4, reg).unwrap()
}

#[test]
fn every_catalog_model_serves_the_fig1_intent() {
    for model in models::catalog() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = fig1_intent(&mut reg);
        let compiled = Compiler::default()
            .compile_model(&model, &intent, &mut reg)
            .unwrap_or_else(|e| panic!("{}: {e}", model.name));
        let nic = SimNic::new(model.clone(), 128).unwrap();
        let mut drv = OpenDescDriver::attach(nic, compiled).unwrap();

        let mut gen = PktGen::new(Workload {
            transport: opendesc::nicsim::Transport::KvsGet,
            ..Workload::default()
        });
        for _ in 0..32 {
            drv.deliver(&gen.next_frame()).unwrap();
        }
        let pkts = drv.poll_batch(32);
        assert_eq!(pkts.len(), 32, "{}: all packets received", model.name);
        let mut soft = SoftNic::new();
        for p in &pkts {
            // Every value the driver reports must equal the softnic
            // reference computed from the frame (the alignment property).
            for (sem, v) in &p.meta {
                let reference = soft.compute(&reg, *sem, &p.frame).map(|x| x as u128);
                if let (Some(got), Some(want)) = (v, reference) {
                    assert_eq!(*got, want, "{}: {} diverged", model.name, reg.name(*sem));
                }
            }
        }
    }
}

#[test]
fn identical_metadata_across_all_models() {
    let frame = testpkt::udp4(
        [10, 2, 3, 4],
        [10, 2, 3, 5],
        5555,
        11211,
        &testpkt::kvs_get_payload("it:works"),
        Some(0x0ABC),
    );
    let mut all: Vec<Vec<Option<u128>>> = Vec::new();
    for model in models::catalog() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = fig1_intent(&mut reg);
        let compiled = Compiler::default()
            .compile_model(&model, &intent, &mut reg)
            .unwrap();
        let mut drv = OpenDescDriver::attach(SimNic::new(model, 16).unwrap(), compiled).unwrap();
        drv.deliver(&frame).unwrap();
        let p = drv.poll().unwrap();
        all.push(p.meta.iter().map(|(_, v)| *v).collect());
    }
    for w in all.windows(2) {
        assert_eq!(w[0], w[1]);
    }
}

#[test]
fn datapaths_agree_under_load_on_every_model() {
    // OpenDesc driver vs LCD baseline on identical traffic: values match
    // for every software-computable semantic.
    for model in [models::e1000e(), models::mlx5()] {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("i")
            .want(&mut reg, names::RSS_HASH)
            .want(&mut reg, names::PKT_LEN)
            .want(&mut reg, names::VLAN_TCI)
            .build();
        let compiled = Compiler::default()
            .compile_model(&model, &intent, &mut reg)
            .unwrap();
        let ctx = compiled.context.clone().unwrap();

        let mut od =
            OpenDescDriver::attach(SimNic::new(model.clone(), 512).unwrap(), compiled).unwrap();
        let mut nic2 = SimNic::new(model.clone(), 512).unwrap();
        nic2.configure(ctx).unwrap();
        let mut lcd = LcdDriver::attach(nic2, intent, reg);

        // All-tagged traffic: on untagged frames a hardware vlan slot
        // reads 0 while the software shim reports "absent" — the
        // information-loss inherent to the LCD model, not a divergence
        // of the computed values.
        let wl = Workload {
            vlan_fraction: 1.0,
            ..Workload::default()
        };
        let mut gen1 = PktGen::new(wl.clone());
        let mut gen2 = PktGen::new(wl);
        for _ in 0..200 {
            od.deliver(&gen1.next_frame()).unwrap();
            lcd.deliver(&gen2.next_frame()).unwrap();
        }
        for _ in 0..200 {
            let a = od.poll().expect("opendesc packet");
            let b = lcd.poll().expect("lcd packet");
            assert_eq!(a.meta, b.meta, "{} datapaths diverged", model.name);
        }
    }
}

#[test]
fn fault_injection_does_not_break_the_driver() {
    let mut reg = SemanticRegistry::with_builtins();
    let intent = Intent::builder("i").want(&mut reg, names::PKT_LEN).build();
    let model = models::mlx5();
    let compiled = Compiler::default()
        .compile_model(&model, &intent, &mut reg)
        .unwrap();
    let mut nic = SimNic::new(model, 64).unwrap();
    nic.set_faults(
        FaultConfig::builder()
            .drop_chance(0.2)
            .corrupt_chance(0.2)
            .seed(77)
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut drv = OpenDescDriver::attach(nic, compiled).unwrap();
    let mut gen = PktGen::new(Workload::default());
    let mut received = 0;
    for _ in 0..300 {
        drv.deliver(&gen.next_frame()).unwrap();
        while drv.poll().is_some() {
            received += 1;
        }
    }
    assert!(received > 150, "most packets still delivered: {received}");
    assert!(drv.nic.stats.dropped_faults > 20);
    assert!(drv.nic.stats.corrupted > 20);
}

#[test]
fn ring_backpressure_surfaces_in_stats() {
    let mut reg = SemanticRegistry::with_builtins();
    let intent = Intent::builder("i").want(&mut reg, names::PKT_LEN).build();
    let model = models::e1000_legacy();
    let compiled = Compiler::default()
        .compile_model(&model, &intent, &mut reg)
        .unwrap();
    let mut drv = OpenDescDriver::attach(SimNic::new(model, 8).unwrap(), compiled).unwrap();
    let f = testpkt::udp4([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, b"x", None);
    for _ in 0..20 {
        drv.deliver(&f).unwrap();
    }
    assert_eq!(drv.nic.stats.completions, 8);
    assert_eq!(drv.nic.stats.dropped_ring_full, 12);
    assert_eq!(drv.poll_batch(20).len(), 8);
}

#[test]
fn qdma_custom_provisioning_end_to_end() {
    // An application installs its own QDMA layout tailored to its intent
    // and gets a perfect (no-fallback) compilation.
    let layouts = [opendesc::nicsim::QdmaLayout::new(&[
        ("kvs_key_hash", 32),
        ("rss_hash", 32),
        ("pkt_len", 16),
    ])];
    let model = opendesc::nicsim::qdma(&layouts).unwrap();
    let mut reg = SemanticRegistry::with_builtins();
    let intent = Intent::builder("i")
        .want(&mut reg, names::KVS_KEY_HASH)
        .want(&mut reg, names::RSS_HASH)
        .build();
    let compiled = Compiler::default()
        .compile_model(&model, &intent, &mut reg)
        .unwrap();
    assert!(compiled.missing_features().is_empty());
    assert_eq!(compiled.path.size_bytes(), 16, "8+4+2 → 16B class");

    let mut drv = OpenDescDriver::attach(SimNic::new(model, 16).unwrap(), compiled).unwrap();
    let f = testpkt::udp4(
        [9, 9, 9, 9],
        [8, 8, 8, 8],
        1,
        11211,
        &testpkt::kvs_get_payload("q"),
        None,
    );
    drv.deliver(&f).unwrap();
    let p = drv.poll().unwrap();
    let want = opendesc::softnic::kvs_key_hash(b"get q\r\n").unwrap() as u128;
    assert_eq!(p.get(reg.id(names::KVS_KEY_HASH).unwrap()), Some(want));
}
