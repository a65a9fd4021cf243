//! The semantic-alignment property, tested adversarially: the bytes the
//! NIC serializes (from the contract's enumerated layout), the bytes
//! the contract's deparser says it must serialize (interpreted, in
//! `opendesc_reference::device`) and the offsets the compiler's
//! accessors read (by analyzing the contract) must agree — for
//! hand-written models *and* for randomly generated QDMA layouts.

use opendesc::ir::{names, Assignment, SemanticRegistry};
use opendesc::nicsim::{models, qdma, NicModel, QdmaLayout, SimNic};
use opendesc::prelude::*;
use opendesc::softnic::testpkt;
use opendesc_reference::device::completion;
use opendesc_reference::read_packet;
use proptest::prelude::*;

/// The completion a queue of `model` on `ctx` must write for `frame`,
/// per the contract's deparser: a fresh twin's offload record,
/// interpreted.
fn reference_completion(model: &NicModel, ctx: &Assignment, frame: &[u8]) -> Vec<u8> {
    let mut twin = SimNic::new(model.clone(), 16).unwrap();
    twin.configure(ctx.clone()).unwrap();
    let rec = twin.offload_record(frame);
    completion(&twin, &rec).unwrap()
}

fn probe_frame() -> Vec<u8> {
    testpkt::tcp4(
        [192, 0, 2, 7],
        [198, 51, 100, 9],
        443,
        51515,
        b"get probe\r\n",
        Some(0x1064),
    )
}

/// Semantics eligible for random layouts (softnic-computable so the
/// reference value exists), with their natural widths.
const POOL: &[(&str, u16)] = &[
    ("rss_hash", 32),
    ("ip_checksum", 16),
    ("l4_checksum", 16),
    ("vlan_tci", 16),
    ("pkt_len", 16),
    ("packet_type", 16),
    ("ip_id", 16),
    ("payload_offset", 16),
    ("flow_tag", 32),
    ("rx_status", 16),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random QDMA provisioning: any subset of semantics, in any order,
    /// compiles and round-trips through the simulated device.
    #[test]
    fn random_qdma_layouts_roundtrip(
        indices in proptest::collection::vec(0usize..POOL.len(), 1..6),
        intent_indices in proptest::collection::vec(0usize..POOL.len(), 1..5),
    ) {
        // Dedup while preserving order.
        let mut seen = std::collections::BTreeSet::new();
        let fields: Vec<(&str, u16)> = indices
            .iter()
            .filter(|i| seen.insert(**i))
            .map(|&i| POOL[i])
            .collect();
        let layout = QdmaLayout::new(&fields);
        let model = qdma(&[layout]).unwrap();

        let mut reg = SemanticRegistry::with_builtins();
        let mut b = Intent::builder("random");
        let mut iseen = std::collections::BTreeSet::new();
        for &i in &intent_indices {
            if iseen.insert(i) {
                b = b.want(&mut reg, POOL[i].0);
            }
        }
        let intent = b.build();

        let compiled = Compiler::default()
            .compile_model(&model, &intent, &mut reg)
            .expect("all pool semantics are software-computable");
        let mut drv = OpenDescDriver::attach(
            SimNic::new(model, 16).unwrap(),
            compiled,
        ).unwrap();

        let frame = probe_frame();
        drv.deliver(&frame).unwrap();
        let pkt = drv.poll().expect("one packet");

        // Every reported value equals the softnic reference.
        let mut soft = opendesc::softnic::SoftNic::new();
        for (sem, v) in &pkt.meta {
            let want = soft.compute(&reg, *sem, &frame).map(|x| x as u128);
            prop_assert_eq!(*v, want, "semantic {} diverged", reg.name(*sem));
        }
    }

    /// The device's table-driven writeback and the interpreted deparser
    /// agree for random QDMA layouts too (the NIC-side invariant behind
    /// the accessor agreement above).
    #[test]
    fn writeback_modes_agree_for_random_layouts(
        indices in proptest::collection::vec(0usize..POOL.len(), 1..6),
    ) {
        let mut seen = std::collections::BTreeSet::new();
        let fields: Vec<(&str, u16)> = indices
            .iter()
            .filter(|i| seen.insert(**i))
            .map(|&i| POOL[i])
            .collect();
        let model = qdma(&[QdmaLayout::new(&fields)]).unwrap();
        let mut nic = SimNic::new(model.clone(), 16).unwrap();
        let ctx = nic.paths[0].solve_context().unwrap();
        nic.configure(ctx.clone()).unwrap();
        nic.deliver(&probe_frame()).unwrap();
        let (_, cmpt) = nic.receive().unwrap();
        prop_assert_eq!(cmpt, reference_completion(&model, &ctx, &probe_frame()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structural invariants of every enumerated layout: slots are
    /// in-bounds, non-overlapping, offset-sorted, and `prov` is exactly
    /// the union of slot semantics.
    #[test]
    fn layout_invariants_hold_for_random_contracts(
        indices in proptest::collection::vec(0usize..POOL.len(), 1..6),
        extra_branch in any::<bool>(),
    ) {
        let mut seen = std::collections::BTreeSet::new();
        let fields: Vec<(&str, u16)> = indices
            .iter()
            .filter(|i| seen.insert(**i))
            .map(|&i| POOL[i])
            .collect();
        let mut layouts = vec![QdmaLayout::new(&fields)];
        if extra_branch {
            layouts.push(QdmaLayout::new(&[("rx_status", 16)]));
        }
        let model = qdma(&layouts).unwrap();
        let (checked, d) = opendesc::p4::parse_and_check(&model.p4_source);
        prop_assert!(!d.has_errors());
        let mut reg = SemanticRegistry::with_builtins();
        let cfg = opendesc::ir::extract(&checked, &model.deparser, &mut reg).unwrap();
        let paths = opendesc::ir::enumerate_paths(&cfg, 4096).unwrap();
        for p in &paths {
            let mut last_end = 0u32;
            let mut sem_union = std::collections::BTreeSet::new();
            for s in &p.slots {
                prop_assert!(s.offset_bits >= last_end, "overlapping or unsorted slots");
                prop_assert!(
                    s.offset_bits + s.width_bits as u32 <= p.size_bits,
                    "slot out of bounds"
                );
                last_end = s.offset_bits + s.width_bits as u32;
                if let Some(sem) = s.semantic {
                    sem_union.insert(sem);
                }
            }
            prop_assert_eq!(&sem_union, &p.prov, "Prov(p) must equal slot semantics");
            prop_assert_eq!(p.size_bits % 8, 0, "layouts are byte-multiples");
        }
    }
}

#[test]
fn device_completions_match_the_reference_through_the_driver() {
    // The metadata the application sees through the driver must be what
    // the compiled accessors read from the completion the contract's
    // deparser serializes.
    let frame = probe_frame();
    let mut reg = SemanticRegistry::with_builtins();
    let intent = Intent::builder("i")
        .want(&mut reg, names::RSS_HASH)
        .want(&mut reg, names::L4_CHECKSUM)
        .want(&mut reg, names::VLAN_TCI)
        .build();
    let model = models::mlx5();
    let compiled = Compiler::default()
        .compile_model(&model, &intent, &mut reg)
        .unwrap();
    let want_cmpt = reference_completion(&model, compiled.context.as_ref().unwrap(), &frame);
    let mut soft = opendesc::softnic::SoftNic::new();
    let want: Vec<_> = (compiled.accessors.accessors.iter())
        .map(|a| a.semantic)
        .zip(read_packet(
            &compiled.accessors,
            &reg,
            &mut soft,
            &frame,
            &want_cmpt,
        ))
        .collect();
    let mut drv = OpenDescDriver::attach(SimNic::new(model, 16).unwrap(), compiled).unwrap();
    drv.deliver(&frame).unwrap();
    assert_eq!(drv.poll().unwrap().meta, want);
}

#[test]
fn accessor_offsets_match_contract_header_layout() {
    // Cross-check accessors against the type checker's field offsets for
    // the mlx5 full CQE: both derive from the same contract, through
    // different code paths.
    let mut reg = SemanticRegistry::with_builtins();
    let intent = Intent::builder("i")
        .want(&mut reg, names::TIMESTAMP)
        .want(&mut reg, names::RSS_HASH)
        .want(&mut reg, names::KVS_KEY_HASH)
        .build();
    let model = models::mlx5();
    let compiled = Compiler::default()
        .compile_model(&model, &intent, &mut reg)
        .unwrap();

    let (checked, d) = opendesc::p4::parse_and_check(&model.p4_source);
    assert!(!d.has_errors());
    let hid = checked.header_id("mlx5_full_cqe_t").unwrap();
    let hdr = checked.types.header(hid);

    for (sem_name, field) in [
        (names::TIMESTAMP, "ts"),
        (names::RSS_HASH, "rss"),
        (names::KVS_KEY_HASH, "app_meta"),
    ] {
        let sem = reg.id(sem_name).unwrap();
        let acc = compiled.accessors.for_semantic(sem).unwrap();
        let f = hdr.field(checked.sym(field).unwrap()).unwrap();
        assert_eq!(acc.offset_bits, f.offset_bits, "{sem_name} offset");
        assert_eq!(acc.width_bits, f.width_bits, "{sem_name} width");
    }
}
