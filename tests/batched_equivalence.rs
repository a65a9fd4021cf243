//! Equivalence of the batched/compiled RX path with per-packet `poll`.
//!
//! `OpenDescDriver::poll_batch_into` (columnar hardware reads, software
//! shims run down the batch, recycled storage) must return
//! *bit-identical* metadata to polling the same traffic one packet at a
//! time, on every NIC model, for arbitrary traffic — IPv4 UDP/TCP with
//! and without VLAN tags, KVS requests, and outright garbage frames that
//! do not parse at all — and to the tree interpreter run over what each
//! batch slot holds. Besides plain delivery the suite feeds steered
//! traffic (the device reports the steering hash, which primes the shim
//! memos), batches wider than a software column chunk, truncated
//! records inside a software column, whole batches served degraded
//! (the degraded stream run down the columns), and batches served
//! verified (the verified stream's loads, cross-checks and shims run
//! down the columns, repairs included).
//!
//! `CHAOS_SEED` is mixed into every fault seed, so the CI chaos job runs
//! each property over a different fault schedule per matrix entry.

use opendesc::compiler::{
    Compiler, HealthConfig, Intent, OpenDescDriver, QueueHealth, ValidationMode,
};
use opendesc::ir::{names, SemanticRegistry};
use opendesc::nicsim::{models, FaultConfig, NicModel, SimNic, SteerPolicy, Steerer};
use opendesc::softnic::testpkt;
use opendesc::softnic::SoftNic;
use opendesc_reference::{execute_degraded, execute_into_primed, execute_verified};
use proptest::prelude::*;

/// A fault seed with `CHAOS_SEED` mixed in.
fn seeded(seed: u64) -> u64 {
    let chaos: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    seed ^ chaos.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Software-shim-heavy intent (everything except `timestamp`, which
/// fixed-function models cannot satisfy): on e1000e-class NICs most of
/// these run as SoftNIC shims, exercising the compiled plan.
fn driver_for(model: NicModel, ring: usize) -> OpenDescDriver {
    driver_wanting(model, ring, &[])
}

/// [`driver_for`]'s intent plus `extra` fields.
fn driver_wanting(model: NicModel, ring: usize, extra: &[&str]) -> OpenDescDriver {
    let mut reg = SemanticRegistry::with_builtins();
    let mut intent = Intent::builder("equiv")
        .want(&mut reg, names::RSS_HASH)
        .want(&mut reg, names::QUEUE_HINT)
        .want(&mut reg, names::VLAN_TCI)
        .want(&mut reg, names::PKT_LEN)
        .want(&mut reg, names::PACKET_TYPE)
        .want(&mut reg, names::PAYLOAD_OFFSET)
        .want(&mut reg, names::KVS_KEY_HASH)
        .want(&mut reg, names::IP_CHECKSUM);
    for name in extra {
        intent = intent.want(&mut reg, name);
    }
    let intent = intent.build();
    let compiled = Compiler::default()
        .compile_model(&model, &intent, &mut reg)
        .expect("intent compiles on every model");
    OpenDescDriver::attach(SimNic::new(model, ring).unwrap(), compiled).unwrap()
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

/// How one comparison is run: the model, its ring, the batch capacity,
/// whether frames go through an RSS steerer (so completions carry its
/// hash), and the truncation fault both drivers see.
struct Case {
    model: NicModel,
    ring: usize,
    cap: usize,
    steered: bool,
    truncate: Option<FaultConfig>,
}

/// Deliver `frames` to two drivers alike, poll one a packet at a time
/// and drain the other in batches of `case.cap`, and hold every batch
/// slot equal to its single poll and to the tree interpreter over the
/// very completion, frame and hint the slot holds (the degraded oracle
/// for a record the device truncated).
fn batched_equals_per_packet(case: Case, frames: &[Vec<u8>]) -> Result<(), TestCaseError> {
    let name = case.model.name.clone();
    let mut a = driver_for(case.model.clone(), case.ring);
    let mut b = driver_for(case.model, case.ring);
    // The first record arrives short, so every case has a truncated row
    // to hold; the rest draw at the case's rate.
    let first = FaultConfig::builder().truncate_chance(1.0).build().unwrap();
    if case.truncate.is_some() {
        a.nic.set_faults(first).unwrap();
        b.nic.set_faults(first).unwrap();
    }
    let steerer = Steerer::new(SteerPolicy::Rss, 1);
    for (i, f) in frames.iter().enumerate() {
        if let (1, Some(faults)) = (i, case.truncate) {
            a.nic.set_faults(faults).unwrap();
            b.nic.set_faults(faults).unwrap();
        }
        let (ra, rb) = if case.steered {
            let v = steerer.steer(i as u64, f);
            (
                a.deliver_steered(f, v.parsed.as_ref(), v.rss),
                b.deliver_steered(f, v.parsed.as_ref(), v.rss),
            )
        } else {
            (a.deliver(f), b.deliver(f))
        };
        prop_assert_eq!(ra.is_ok(), rb.is_ok(), "{}: deliver outcome diverged", name);
    }

    let mut singles = Vec::new();
    while let Some(p) = a.poll() {
        singles.push(p);
    }

    let mut batch = b.make_batch(case.cap);
    // `poll` is a one-slot batch through the same pipeline, so the
    // comparison above holds cap-1 against cap-N addressing; the
    // independent side is the tree interpreter.
    let expected_len = b.iface.validator().expected_len;
    let mut oracle_soft = SoftNic::new();
    let mut oracle = vec![None; b.iface.plan.steps.len()];
    let mut idx = 0;
    loop {
        let n = b.poll_batch_into(&mut batch);
        if n == 0 {
            break;
        }
        for pkt in 0..n {
            prop_assert!(
                idx < singles.len(),
                "{}: batched path returned extra packets",
                name
            );
            let single = &singles[idx];
            prop_assert_eq!(
                batch.frame(pkt),
                &single.frame[..],
                "{}: frame bytes diverged",
                name
            );
            if b.completion(&batch, pkt).unwrap().len() < expected_len {
                execute_degraded(
                    &b.iface.plan,
                    &mut oracle_soft,
                    batch.frame(pkt),
                    &mut oracle,
                );
            } else {
                execute_into_primed(
                    &b.iface.plan,
                    &b.iface.accessors,
                    &mut oracle_soft,
                    batch.frame(pkt),
                    b.completion(&batch, pkt).unwrap(),
                    batch.rss_hint(pkt),
                    &mut oracle,
                );
            }
            for (field, want) in oracle.iter().enumerate() {
                prop_assert_eq!(
                    batch.value_at(field, pkt),
                    *want,
                    "{}: field {} of packet {} diverged from the tree-interpreter oracle",
                    name,
                    field,
                    idx
                );
            }
            for (field, (sem, want)) in single.meta.iter().enumerate() {
                prop_assert_eq!(
                    batch.value_at(field, pkt),
                    *want,
                    "{}: field {} of packet {} diverged",
                    name,
                    field,
                    idx
                );
                prop_assert_eq!(
                    batch.get(pkt, *sem),
                    *want,
                    "{}: semantic lookup diverged",
                    name
                );
            }
            idx += 1;
        }
    }
    prop_assert_eq!(idx, singles.len(), "{}: batched path lost packets", name);
    if case.truncate.is_some() {
        // Trusted execution throughout: the truncated rows sat inside
        // the software columns rather than turning the queue degraded.
        prop_assert!(
            a.validation_stats().truncated > 0,
            "{}: nothing truncated",
            name
        );
        prop_assert_eq!(
            a.validation_stats().truncated,
            b.validation_stats().truncated
        );
        prop_assert_eq!(a.health(), QueueHealth::Healthy, "{}", name);
        prop_assert_eq!(b.health(), QueueHealth::Healthy, "{}", name);
    }
    Ok(())
}

fn four_models() -> [NicModel; 4] {
    [
        models::e1000e(),
        models::ixgbe(),
        models::mlx5(),
        models::qdma_default(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batched_compiled_path_bit_identical_to_per_packet_poll(
        frames in proptest::collection::vec(arb_frame(), 1..12),
    ) {
        for model in four_models() {
            // Odd capacity: forces partial batches and the scalar
            // remainder of the 4-wide columnar reader.
            let case = Case { model, ring: 64, cap: 7, steered: false, truncate: None };
            batched_equals_per_packet(case, &frames)?;
        }
    }

    /// Steered delivery: the device reports the steering stage's RSS
    /// hash, which primes each row's shim memo. `e1000_legacy` computes
    /// `rss_hash` and `queue_hint` in software, so both read the primed
    /// memo.
    #[test]
    fn steered_batches_read_the_hint_like_single_polls(
        frames in proptest::collection::vec(arb_frame(), 1..40),
    ) {
        for model in [models::e1000_legacy(), models::e1000e()] {
            let case = Case { model, ring: 64, cap: 16, steered: true, truncate: None };
            batched_equals_per_packet(case, &frames)?;
        }
    }

    /// Batches wider than a software column chunk (and than the 64-packet
    /// structural fail word), the ring sized to hold every frame.
    #[test]
    fn batches_wider_than_a_column_chunk_match_single_polls(
        frames in proptest::collection::vec(arb_frame(), 65..150),
    ) {
        for model in four_models() {
            let case = Case { model, ring: 256, cap: 70, steered: false, truncate: None };
            batched_equals_per_packet(case, &frames)?;
        }
    }

    /// Truncated records inside a software column: both drivers see the
    /// same truncations (one fault seed), few enough that the queue
    /// stays trusted; a truncated row reads `None` down the columns and
    /// is re-served degraded.
    #[test]
    fn truncated_rows_inside_a_software_column_match_single_polls(
        frames in proptest::collection::vec(arb_frame(), 65..150),
    ) {
        let faults = FaultConfig::builder().truncate_chance(0.04).seed(seeded(3)).build().unwrap();
        for model in [models::e1000e(), models::e1000_legacy()] {
            let case = Case { model, ring: 256, cap: 40, steered: false, truncate: Some(faults) };
            batched_equals_per_packet(case, &frames)?;
        }
    }

    /// A batch polled while the queue is `Degraded` runs the degraded
    /// stream down the columns: every row — truncated or not, across
    /// chunk boundaries — equals the tree interpreter's degraded
    /// execution of its frame. Where the model can deliver a
    /// `timestamp`, the intent asks for it: software cannot recompute
    /// it, so its column must come out cleared.
    #[test]
    fn degraded_batches_match_the_degraded_oracle(
        frames in proptest::collection::vec(arb_frame(), 65..150),
    ) {
        let wedge = FaultConfig::builder().truncate_chance(1.0).seed(seeded(1)).build().unwrap();
        let trickle = FaultConfig::builder().truncate_chance(0.04).seed(seeded(5)).build().unwrap();
        let cases = [
            (models::e1000_legacy(), &[][..]),
            (models::e1000e(), &[]),
            (models::ixgbe(), &[]),
            (models::mlx5(), &[names::TIMESTAMP]),
            (models::qdma_default(), &[names::TIMESTAMP]),
        ];
        for (model, extra) in cases {
            let name = model.name.clone();
            let mut drv = driver_wanting(model, 256, extra);
            // A trusted pass first leaves device values in the batch's
            // rows; then ten truncated records charge the health bucket
            // past its demotion level.
            let mut batch = drv.make_batch(70);
            for f in &frames {
                drv.deliver(f).unwrap();
            }
            while drv.poll_batch_into(&mut batch) > 0 {}
            drv.nic.set_faults(wedge).unwrap();
            for _ in 0..10 {
                drv.deliver(&frames[0]).unwrap();
            }
            while drv.poll_batch_into(&mut batch) > 0 {}
            prop_assert_eq!(drv.health(), QueueHealth::Degraded, "{}", name);

            drv.nic.set_faults(trickle).unwrap();
            for f in &frames {
                drv.deliver(f).unwrap();
            }
            let mut soft = SoftNic::new();
            let mut oracle = vec![None; drv.iface.plan.steps.len()];
            let mut served = 0;
            loop {
                let degraded = drv.health() == QueueHealth::Degraded;
                let n = drv.poll_batch_into(&mut batch);
                if n == 0 {
                    break;
                }
                if !degraded {
                    continue;
                }
                for pkt in 0..n {
                    execute_degraded(&drv.iface.plan, &mut soft, batch.frame(pkt), &mut oracle);
                    for (field, want) in oracle.iter().enumerate() {
                        prop_assert_eq!(
                            batch.value_at(field, pkt),
                            *want,
                            "{}: field {} of degraded row {} diverged",
                            name,
                            field,
                            pkt
                        );
                    }
                }
                served += n;
            }
            prop_assert!(served >= 65, "{}: only {} rows served degraded", name, served);
        }
    }

    /// A batch polled while the queue verifies (`ValidationMode::Full`)
    /// runs the verified stream a column at a time: every full-length
    /// row equals the tree interpreter's verified execution of the
    /// completion it holds, and the repairs add up; a truncated row
    /// equals its degraded execution, served in the same pass. Batches
    /// served after a repair demoted the queue equal the degraded
    /// oracle. One oracle SoftNIC follows every row in row order, and
    /// the intent asks for `flow_tag` — software on the e1000 models,
    /// so its tags number flows in the order rows reach it, hardware
    /// (read as-is) on the others. 65–149 frames at a capacity of 70
    /// cross the 32-row chunk boundaries.
    #[test]
    fn verified_batches_match_the_verified_oracle(
        frames in proptest::collection::vec(arb_frame(), 65..150),
    ) {
        let faults = FaultConfig::builder()
            .corrupt_chance(0.05)
            .truncate_chance(0.04)
            .seed(seeded(7))
            .build()
            .unwrap();
        let first = FaultConfig::builder().truncate_chance(1.0).build().unwrap();
        let (mut verified_rows, mut verified_shorts) = (0, 0);
        for model in [models::e1000_legacy(), models::e1000e(), models::ixgbe(), models::mlx5()] {
            let name = model.name.clone();
            let mut drv = driver_wanting(model, 256, &[names::FLOW_TAG]);
            drv.set_validation_mode(ValidationMode::Full);
            drv.set_health_config(HealthConfig { degraded_clean: 8, recovering_clean: 8 });
            // The first record arrives short, inside the first
            // (verified) batch; the rest draw at the case's rates.
            drv.nic.set_faults(first).unwrap();
            for (i, f) in frames.iter().enumerate() {
                if i == 1 {
                    drv.nic.set_faults(faults).unwrap();
                }
                drv.deliver(f).unwrap();
            }
            let expected_len = drv.iface.validator().expected_len;
            let mut batch = drv.make_batch(70);
            let mut soft = SoftNic::new();
            let mut oracle = vec![None; drv.iface.plan.steps.len()];
            let mut repaired = 0u64;
            loop {
                let before = drv.validation_stats();
                let n = drv.poll_batch_into(&mut batch);
                if n == 0 {
                    break;
                }
                let stats = drv.validation_stats();
                // A verified batch serves only its truncated rows
                // degraded; a degraded batch serves every row so.
                let degraded = stats.degraded_packets - before.degraded_packets == n as u64;
                for pkt in 0..n {
                    let short = drv.completion(&batch, pkt).unwrap().len() < expected_len;
                    if degraded || short {
                        execute_degraded(&drv.iface.plan, &mut soft, batch.frame(pkt), &mut oracle);
                    } else {
                        repaired += execute_verified(
                            &drv.iface.plan,
                            &drv.iface.accessors,
                            &mut soft,
                            batch.frame(pkt),
                            drv.completion(&batch, pkt).unwrap(),
                            &mut oracle,
                        ) as u64;
                    }
                    if !degraded {
                        verified_rows += 1;
                        verified_shorts += short as u32;
                    }
                    for (field, want) in oracle.iter().enumerate() {
                        prop_assert_eq!(
                            batch.value_at(field, pkt),
                            *want,
                            "{}: field {} of row {} ({}) diverged",
                            name,
                            field,
                            pkt,
                            if degraded { "degraded batch" } else { "verified batch" }
                        );
                    }
                }
            }
            prop_assert_eq!(drv.validation_stats().repaired_fields, repaired, "{}", name);
        }
        prop_assert!(verified_rows >= 65, "only {} rows served verified", verified_rows);
        prop_assert!(verified_shorts > 0, "no truncated row in a verified batch");
    }
}
