//! The simulated NIC's completions against the contract's deparser:
//! the device writes from its enumerated layout table, and every byte
//! must be what the `CmptDeparser` — interpreted over the same offload
//! record, under the same programmed context — says it writes
//! ([`opendesc_reference::device::completion`]). Every solvable path of
//! every catalog model and of 48 generated NICs, four frame shapes each.

use opendesc_ir::Assignment;
use opendesc_nicsim::models::{self, programmable, NicModel, ProgField, ProgGuard, ProgLayout};
use opendesc_nicsim::{MetaRecord, OffloadEngine, OffloadProgram, SimNic};
use opendesc_reference::conformance::{gen_spec, Rng};
use opendesc_reference::device::completion;
use opendesc_softnic::testpkt;

/// The shapes a completion has to be right for: UDP (VLAN-tagged KVS
/// GET), VLAN-tagged TCP, a seeded frame and a non-IP runt.
fn probe_frames() -> Vec<Vec<u8>> {
    vec![
        testpkt::udp4(
            [10, 0, 0, 1],
            [10, 0, 0, 9],
            7777,
            11211,
            b"get k1\r\n",
            Some(0x0064),
        ),
        testpkt::tcp4(
            [10, 2, 0, 1],
            [10, 2, 0, 9],
            443,
            51000,
            b"hello",
            Some(0x2005),
        ),
        testpkt::seeded_frame(3),
        vec![0u8; 14],
    ]
}

/// Deliver the probe frames to a queue of `model` programmed with
/// `ctx`; what the host receives must be the frame and, byte for byte,
/// the completion the deparser serializes from a twin queue's record
/// (the twin sees the same frames, so its stateful engines — clock,
/// flow tags, crypto contexts — stay in lockstep).
fn assert_delivery_matches_interpreter(model: &NicModel, ctx: &Assignment, what: &str) {
    let mut nic = SimNic::new(model.clone(), 16).unwrap();
    let mut twin = SimNic::new(model.clone(), 16).unwrap();
    nic.configure(ctx.clone()).unwrap();
    twin.configure(ctx.clone()).unwrap();
    for (n, f) in probe_frames().iter().enumerate() {
        nic.deliver(f).unwrap();
        let (frame, cmpt) = nic.receive().unwrap();
        assert_eq!(&frame, f, "{what} frame {n}: frame bytes");
        let rec = twin.offload_record(f);
        assert_eq!(
            cmpt,
            completion(&twin, &rec).unwrap(),
            "{what} frame {n}: table-driven writeback and interpreted deparser disagree"
        );
    }
}

/// Every solvable path of `model`, with the context that selects it.
fn solvable_paths(model: &NicModel) -> Vec<(usize, Assignment)> {
    let nic = SimNic::new(model.clone(), 16).unwrap();
    (nic.paths.iter())
        .filter_map(|p| Some((p.id, p.solve_context().ok()?)))
        .collect()
}

#[test]
fn fast_and_interpret_writeback_agree() {
    for model in models::catalog() {
        let paths = solvable_paths(&model);
        assert!(!paths.is_empty(), "{}: no solvable path", model.name);
        for (i, ctx) in paths {
            let what = format!("model {} path {i}", model.name);
            assert_delivery_matches_interpreter(&model, &ctx, &what);
        }
    }
}

#[test]
fn generated_nics_write_what_their_deparser_says() {
    // The conformance generator's NICs, delivered through for the first
    // time: random widths, unaligned fields, pads, tails, switch arms.
    let mut rng = Rng::new(0x7E57_0D15);
    let mut checked = 0;
    for i in 0..48 {
        let model = programmable(&gen_spec(&mut rng, i)).expect("generator emits valid specs");
        for (p, ctx) in solvable_paths(&model) {
            let what = format!("{} path {p}", model.name);
            assert_delivery_matches_interpreter(&model, &ctx, &what);
            checked += 1;
        }
    }
    assert!(
        checked > 48,
        "only {checked} generated paths delivered through"
    );
}

#[test]
fn a_semantic_in_two_ragged_slots_matches_the_deparser() {
    // Off the byte grid, one semantic in two slots, stateful semantics:
    // no catalog layout does any of these.
    let spec = models::ProgSpec {
        name: "ragged-twice".into(),
        layouts: vec![ProgLayout {
            fields: vec![
                ProgField::sem("tag_a", "flow_tag", 20),
                ProgField::pad("gen", 3),
                ProgField::sem("ctx_a", "crypto_ctx", 13),
                ProgField::sem("len", "pkt_len", 14),
                ProgField::sem("tag_b", "flow_tag", 11),
                ProgField::sem("hash", "rss_hash", 32),
                ProgField::sem("ctx_b", "crypto_ctx", 9),
                ProgField::sem("ts", "timestamp", 64),
                ProgField::sem("ts_low", "timestamp", 16),
            ],
        }],
        guard: ProgGuard::Unconditional,
        tail: None,
        tx: None,
    };
    let model = programmable(&spec).unwrap();
    assert_delivery_matches_interpreter(&model, &Assignment::new(), "ragged-twice");
}

#[test]
fn restricted_offloads_write_what_the_deparser_writes_from_every_value() {
    // The device computes only what its path carries. The deparser,
    // handed a record of every semantic the contract supports, must
    // still serialize exactly the delivered bytes: what the device
    // skips, the layout never reads.
    let mut restricted_somewhere = false;
    for model in models::catalog() {
        for (i, ctx) in solvable_paths(&model) {
            let mut nic = SimNic::new(model.clone(), 16).unwrap();
            nic.configure(ctx).unwrap();
            let path = nic.active_path().unwrap();
            let full = OffloadProgram::compile(&nic.reg, &nic.supported, path);
            restricted_somewhere |= nic.supported.iter().any(|s| path.slot_for(*s).is_none());
            let mut engine = OffloadEngine::default();
            let mut rec = MetaRecord::default();
            for f in &probe_frames() {
                nic.deliver(f).unwrap();
                let (_, cmpt) = nic.receive().unwrap();
                engine.process_program_into(&full, f, &mut rec);
                assert_eq!(
                    cmpt,
                    completion(&nic, &rec).unwrap(),
                    "model {} path {i}: the full record serializes differently",
                    model.name
                );
            }
        }
    }
    assert!(restricted_somewhere, "no path drops a supported semantic");
}

#[test]
fn the_reference_reads_the_programmed_context() {
    // e1000e's two paths differ only by `ctx.use_rss`: the reference
    // must follow the queue's context, not a default.
    let model = models::e1000e();
    let mut outs = Vec::new();
    for (_, ctx) in solvable_paths(&model) {
        let mut nic = SimNic::new(model.clone(), 16).unwrap();
        nic.configure(ctx.clone()).unwrap();
        assert_eq!(nic.context(), &ctx);
        let rec = nic.offload_record(&probe_frames()[0]);
        outs.push(completion(&nic, &rec).unwrap());
    }
    assert_eq!(outs.len(), 2);
    assert_ne!(outs[0], outs[1]);
}
