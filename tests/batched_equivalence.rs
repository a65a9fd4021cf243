//! Equivalence of the batched/compiled RX path with per-packet `poll`.
//!
//! `OpenDescDriver::poll_batch_into` (columnar hardware reads + compiled
//! shim plan + recycled storage) must return *bit-identical* metadata to
//! polling the same traffic one packet at a time, on every NIC model,
//! for arbitrary traffic — IPv4 UDP/TCP with and without VLAN tags, KVS
//! requests, and outright garbage frames that do not parse at all.

use opendesc::compiler::{Compiler, Intent, OpenDescDriver};
use opendesc::ir::{names, SemanticRegistry};
use opendesc::nicsim::{models, NicModel, SimNic};
use opendesc::softnic::testpkt;
use opendesc::softnic::SoftNic;
use opendesc_reference::execute_into_primed;
use proptest::prelude::*;

/// Software-shim-heavy intent (everything except `timestamp`, which
/// fixed-function models cannot satisfy): on e1000e-class NICs most of
/// these run as SoftNIC shims, exercising the compiled plan.
fn driver_for(model: NicModel) -> OpenDescDriver {
    let mut reg = SemanticRegistry::with_builtins();
    let intent = Intent::builder("equiv")
        .want(&mut reg, names::RSS_HASH)
        .want(&mut reg, names::QUEUE_HINT)
        .want(&mut reg, names::VLAN_TCI)
        .want(&mut reg, names::PKT_LEN)
        .want(&mut reg, names::PACKET_TYPE)
        .want(&mut reg, names::PAYLOAD_OFFSET)
        .want(&mut reg, names::KVS_KEY_HASH)
        .want(&mut reg, names::IP_CHECKSUM)
        .build();
    let compiled = Compiler::default()
        .compile_model(&model, &intent, &mut reg)
        .expect("intent compiles on every model");
    OpenDescDriver::attach(SimNic::new(model, 64).unwrap(), compiled).unwrap()
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batched_compiled_path_bit_identical_to_per_packet_poll(
        frames in proptest::collection::vec(arb_frame(), 1..12),
    ) {
        for model in [models::e1000e(), models::ixgbe(), models::mlx5(), models::qdma_default()] {
            let name = model.name.clone();
            let mut a = driver_for(model.clone());
            let mut b = driver_for(model);
            for f in &frames {
                let ra = a.deliver(f);
                let rb = b.deliver(f);
                prop_assert_eq!(ra.is_ok(), rb.is_ok(), "{}: deliver outcome diverged", name);
            }

            let mut singles = Vec::new();
            while let Some(p) = a.poll() {
                singles.push(p);
            }

            // Odd capacity: forces partial batches and the scalar
            // remainder of the 4-wide columnar reader.
            let mut batch = b.make_batch(7);
            // `poll` is a one-slot batch through the same pipeline, so
            // the comparison above holds cap-1 against cap-N addressing;
            // the independent side is the tree interpreter, run over the
            // very completion, frame and hint each batch slot holds.
            let mut oracle_soft = SoftNic::new();
            let mut oracle = vec![None; b.iface.plan.steps.len()];
            let mut idx = 0;
            loop {
                let n = b.poll_batch_into(&mut batch);
                if n == 0 {
                    break;
                }
                for pkt in 0..n {
                    prop_assert!(idx < singles.len(), "{}: batched path returned extra packets", name);
                    let single = &singles[idx];
                    prop_assert_eq!(batch.frame(pkt), &single.frame[..], "{}: frame bytes diverged", name);
                    execute_into_primed(
                        &b.iface.plan,
                        &b.iface.accessors,
                        &mut oracle_soft,
                        batch.frame(pkt),
                        batch.cmpt(pkt),
                        batch.rss_hint(pkt),
                        &mut oracle,
                    );
                    for (field, want) in oracle.iter().enumerate() {
                        prop_assert_eq!(
                            batch.value_at(field, pkt),
                            *want,
                            "{}: field {} diverged from the tree-interpreter oracle",
                            name,
                            field
                        );
                    }
                    for (field, (sem, want)) in single.meta.iter().enumerate() {
                        prop_assert_eq!(
                            batch.value_at(field, pkt),
                            *want,
                            "{}: field {} diverged",
                            name,
                            field
                        );
                        prop_assert_eq!(batch.get(pkt, *sem), *want, "{}: semantic lookup diverged", name);
                    }
                    idx += 1;
                }
            }
            prop_assert_eq!(idx, singles.len(), "{}: batched path lost packets", name);
        }
    }
}
