//! Chaos testing of the self-healing RX path.
//!
//! A device running an arbitrary mix of the fault model's classes —
//! torn writebacks, bit corruption, truncation, duplication, stale
//! generation tags, lost doorbells, transient queue hangs, outright
//! drops — is attached to a driver in `Full` validation mode, and two
//! properties must hold on every NIC model:
//!
//! 1. **Correct-or-absent, never garbage**: every metadata value the
//!    driver delivers for a software-recomputable semantic equals the
//!    SoftNIC reference computed over the delivered frame bytes
//!    (masked to the completion slot's width for hardware fields).
//!    Packets may be lost to faults; lies may not survive.
//! 2. **Recovery**: once the faults stop, the watchdog un-wedges the
//!    queue, clean traffic all arrives, and the health machine walks
//!    back to `Healthy`.
//!
//! A third property holds the default `Structural` mode to the same
//! standard at the trusted benchmark's `rx_faulty` mix (truncation,
//! duplication, stale tags, lost doorbells around 1 % each): faults the
//! admission layer handles completely cost their own completion and
//! nothing else — the queue stays `Healthy`, only truncated records are
//! served from frame bytes, and the ledgers reconcile.
//!
//! Failures print the generated fault configuration and seed (plus any
//! `CHAOS_SEED` environment override, which the CI chaos job uses to
//! fan out across seeds) so a failing schedule is replayable.

use opendesc::compiler::{
    AccessorKind, Compiler, HealthConfig, Intent, OpenDescDriver, QueueHealth, ValidationMode,
    WatchdogConfig,
};
use opendesc::ir::bits::width_mask;
use opendesc::ir::{names, SemanticRegistry};
use opendesc::nicsim::{models, FaultConfig, NicModel, SimNic};
use opendesc::softnic::{testpkt, SoftNic};
use proptest::prelude::*;

/// Stateless-only intent (per-flow state and device clocks legitimately
/// vary with delivery order, so they are out of scope for the
/// value-equality property).
fn intent(reg: &mut SemanticRegistry) -> Intent {
    Intent::builder("chaos")
        .want(reg, names::RSS_HASH)
        .want(reg, names::QUEUE_HINT)
        .want(reg, names::VLAN_TCI)
        .want(reg, names::PKT_LEN)
        .want(reg, names::PACKET_TYPE)
        .want(reg, names::PAYLOAD_OFFSET)
        .want(reg, names::KVS_KEY_HASH)
        .want(reg, names::IP_CHECKSUM)
        .build()
}

fn driver_for(model: NicModel, reg: &mut SemanticRegistry) -> OpenDescDriver {
    let i = intent(reg);
    let compiled = Compiler::default()
        .compile_model(&model, &i, reg)
        .expect("intent compiles on every model");
    let mut drv = OpenDescDriver::attach(SimNic::new(model, 256).unwrap(), compiled).unwrap();
    drv.set_validation_mode(ValidationMode::Full);
    drv.set_health_config(HealthConfig {
        degraded_clean: 4,
        recovering_clean: 4,
    });
    drv.set_watchdog_config(WatchdogConfig {
        stall_polls: 2,
        max_backoff_shift: 2,
    });
    drv
}

/// CI override: mixes an external seed into every generated fault seed
/// so the chaos job explores distinct schedules per matrix entry.
fn env_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// One delivered packet's metadata must match the SoftNIC reference
/// over its (pristine) frame bytes: exactly for software fields,
/// masked to the slot width for hardware fields. Fields whose
/// reference does not exist (unparseable frame) are unconstrained.
fn assert_correct_or_absent(
    drv: &OpenDescDriver,
    reg: &SemanticRegistry,
    frame: &[u8],
    meta: &[(opendesc::ir::SemanticId, Option<u128>)],
    context: &str,
) -> Result<(), TestCaseError> {
    let mut soft = SoftNic::new();
    for (acc, (sem, got)) in drv.iface.accessors.accessors.iter().zip(meta) {
        prop_assert_eq!(acc.semantic, *sem, "{}: accessor order diverged", context);
        let name = reg.name(*sem);
        let Some(r) = soft.compute_by_name(name, frame) else {
            continue;
        };
        let want = match acc.kind {
            AccessorKind::Hardware => r as u128 & width_mask(acc.width_bits),
            AccessorKind::Software => r as u128,
        };
        prop_assert!(
            *got == Some(want) || got.is_none(),
            "{}: {} delivered garbage: got {:?}, reference {:#x}",
            context,
            name,
            got,
            want
        );
    }
    Ok(())
}

fn arb_faults() -> impl Strategy<Value = FaultConfig> {
    // Probabilities are sampled in basis points (the vendored proptest
    // has integer range strategies only): 0..3500 → 0.0..0.35.
    let bp = |max: u32| (0u32..max).prop_map(|x| x as f64 / 10_000.0);
    (
        (bp(3500), bp(3500), bp(3500), bp(3500), bp(3500)),
        (bp(3500), bp(3500), bp(2500), 1u32..4, any::<u64>()),
    )
        .prop_map(
            |((drop, corrupt, torn, trunc, dup), (stale, doorbell, hang, cycles, seed))| {
                FaultConfig::builder()
                    .drop_chance(drop)
                    .corrupt_chance(corrupt)
                    .torn_chance(torn)
                    .truncate_chance(trunc)
                    .duplicate_chance(dup)
                    .stale_gen_chance(stale)
                    .doorbell_loss_chance(doorbell)
                    .hang(hang, cycles)
                    .seed(seed ^ env_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .build()
                    .expect("generated probabilities are in range")
            },
        )
}

fn arb_frame() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (
            any::<[u8; 4]>(),
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..48usize),
            any::<bool>(),
            any::<u16>(),
        )
            .prop_map(|(dst, dp, pay, tagged, tci)| {
                testpkt::udp4(
                    [10, 0, 0, 1],
                    dst,
                    40000,
                    dp,
                    &pay,
                    tagged.then_some(tci & 0x0FFF),
                )
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
        proptest::collection::vec(any::<u8>(), 0..96usize),
    ]
}

/// Selective degraded re-serve (structural-failure path): a corrupting
/// device in the default `Structural` mode trips value checks, and the
/// re-served packet must equal the SoftNIC reference — validated
/// columns are reused, failed fields recomputed, nothing garbage.
/// Software fields in particular are never wiped: they were computed
/// from frame bytes and survive the re-serve.
#[test]
fn structural_failure_reserves_reference_values_selectively() {
    let mut reg = SemanticRegistry::with_builtins();
    let i = intent(&mut reg);
    let compiled = Compiler::default()
        .compile_model(&models::e1000e(), &i, &mut reg)
        .unwrap();
    let mut drv =
        OpenDescDriver::attach(SimNic::new(models::e1000e(), 256).unwrap(), compiled).unwrap();
    // Default Structural mode; shrink the clean streaks so the health
    // machine keeps walking back to Healthy and the Trusted-disposition
    // structural-check path fires repeatedly.
    drv.set_health_config(HealthConfig {
        degraded_clean: 1,
        recovering_clean: 1,
    });
    drv.nic
        .set_faults(
            FaultConfig::builder()
                .corrupt_chance(1.0)
                .seed(31)
                .build()
                .unwrap(),
        )
        .unwrap();
    let mut soft = SoftNic::new();
    let mut reserved = 0u64;
    for n in 0..40 {
        let frame = testpkt::udp4(
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            40000,
            11211,
            &testpkt::kvs_get_payload(&format!("sel:{n}")),
            Some(0x0123),
        );
        drv.deliver(&frame).unwrap();
        let before = drv.validation_stats();
        let pkt = drv.poll().unwrap();
        let after = drv.validation_stats();
        let reserve_fired = after.structural_failures > before.structural_failures
            || after.degraded_packets > before.degraded_packets;
        reserved += reserve_fired as u64;
        for (acc, (sem, got)) in drv.iface.accessors.accessors.iter().zip(&pkt.meta) {
            let name = reg.name(*sem);
            let r = soft
                .compute_by_name(name, &frame)
                .expect("well-formed frames have a reference for every chaos semantic");
            let want = match acc.kind {
                AccessorKind::Hardware => r as u128 & width_mask(acc.width_bits),
                AccessorKind::Software => r as u128,
            };
            if acc.kind == AccessorKind::Software {
                // Kept (or recomputed) software columns: always present,
                // always the reference value — on every packet, served
                // trusted or re-served.
                assert_eq!(
                    *got,
                    Some(want),
                    "packet {n}: software field {name} diverged from reference"
                );
            } else if reserve_fired {
                // Re-served packets: every delivered hardware value is
                // the reference (proven columns were validated against
                // it; failed ones were recomputed from frame bytes).
                assert!(
                    *got == Some(want) || got.is_none(),
                    "packet {n}: re-served field {name} delivered garbage: \
                     got {got:?}, reference {want:#x}"
                );
            }
        }
    }
    assert!(
        drv.validation_stats().structural_failures > 0,
        "corruption never tripped a structural check"
    );
    assert!(reserved > 0, "no packet took the degraded re-serve path");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline chaos property: arbitrary fault schedules on every
    /// model, mixed per-packet and batched polling, no panics, no
    /// garbage values, and full recovery once the device behaves.
    #[test]
    fn chaos_never_delivers_garbage_and_recovers(
        faults in arb_faults(),
        frames in proptest::collection::vec(arb_frame(), 8..24),
    ) {
        for model in [models::e1000e(), models::ixgbe(), models::mlx5(), models::qdma_default()] {
            let name = model.name.clone();
            let ctx = format!(
                "model={} faults={:?} CHAOS_SEED={}",
                name, faults, env_seed()
            );
            let mut reg = SemanticRegistry::with_builtins();
            let mut drv = driver_for(model, &mut reg);
            drv.nic.set_faults(faults).unwrap();

            // Phase 1: chaos. Interleave delivery with mixed draining.
            let mut batch = drv.make_batch(4);
            for (i, f) in frames.iter().enumerate() {
                drv.deliver(f).unwrap();
                if i % 2 == 0 {
                    if let Some(pkt) = drv.poll() {
                        assert_correct_or_absent(&drv, &reg, &pkt.frame, &pkt.meta, &ctx)?;
                    }
                } else {
                    let n = drv.poll_batch_into(&mut batch);
                    for pkt in 0..n {
                        let meta: Vec<_> = batch
                            .semantics()
                            .iter()
                            .enumerate()
                            .map(|(fi, s)| (*s, batch.value_at(fi, pkt)))
                            .collect();
                        assert_correct_or_absent(&drv, &reg, batch.frame(pkt), &meta, &ctx)?;
                    }
                }
            }

            // Phase 2: faults off; flush everything the chaos left in
            // flight (repeated empty polls let the watchdog trip and
            // republish completions hidden by lost doorbells).
            drv.nic.set_faults(FaultConfig::default()).unwrap();
            for _ in 0..32 {
                while let Some(pkt) = drv.poll() {
                    assert_correct_or_absent(&drv, &reg, &pkt.frame, &pkt.meta, &ctx)?;
                }
            }

            // Phase 3: clean traffic all arrives, values exact, health
            // walks back to Healthy.
            let mut clean_delivered = 0usize;
            for round in 0..6 {
                for i in 0..8 {
                    drv.deliver(&testpkt::udp4(
                        [10, 0, 0, 1],
                        [10, 0, 0, 9],
                        40000,
                        1000 + i,
                        format!("clean:{round}:{i}").as_bytes(),
                        Some(0x0123),
                    ))
                    .unwrap();
                }
                if round % 2 == 0 {
                    while let Some(pkt) = drv.poll() {
                        assert_correct_or_absent(&drv, &reg, &pkt.frame, &pkt.meta, &ctx)?;
                        clean_delivered += 1;
                    }
                } else {
                    loop {
                        let n = drv.poll_batch_into(&mut batch);
                        if n == 0 {
                            break;
                        }
                        clean_delivered += n;
                    }
                }
            }
            prop_assert_eq!(clean_delivered, 48, "{}: clean traffic was lost", ctx);
            prop_assert_eq!(
                drv.health(),
                QueueHealth::Healthy,
                "{}: health did not recover (stats {:?})",
                ctx,
                drv.validation_stats()
            );
        }
    }

    /// `rx_faulty`'s four classes in the default `Structural` mode, on
    /// every model, batched: each fault costs its own completion and
    /// nothing else. The three per-completion classes are drawn up to
    /// 1.25 % each — 3.75 % together, against the benchmark's 3 %; the
    /// fault-rate bucket is pinned to demote a device at 50 %, so a
    /// random schedule much denser than this does cross it by chance
    /// within 2 048 frames.
    #[test]
    fn exact_faults_at_benchmark_rates_cost_only_themselves(
        rates in (50u32..125, 50u32..125, 50u32..125, 50u32..300),
        seed in any::<u64>(),
        pool in proptest::collection::vec(arb_frame(), 64),
    ) {
        let bp = |x: u32| x as f64 / 10_000.0;
        let faults = FaultConfig::builder()
            .truncate_chance(bp(rates.0))
            .duplicate_chance(bp(rates.1))
            .stale_gen_chance(bp(rates.2))
            .doorbell_loss_chance(bp(rates.3))
            .seed(seed ^ env_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .build()
            .expect("generated probabilities are in range");
        for model in [models::e1000e(), models::ixgbe(), models::mlx5(), models::qdma_default()] {
            let ctx = format!(
                "model={} faults={:?} CHAOS_SEED={}",
                model.name, faults, env_seed()
            );
            let mut reg = SemanticRegistry::with_builtins();
            let i = intent(&mut reg);
            let compiled = Compiler::default().compile_model(&model, &i, &mut reg).unwrap();
            let mut drv =
                OpenDescDriver::attach(SimNic::new(model, 256).unwrap(), compiled).unwrap();
            prop_assert_eq!(drv.validation_mode(), ValidationMode::Structural);
            drv.nic.set_faults(faults).unwrap();

            let mut batch = drv.make_batch(32);
            let (mut fed, mut delivered) = (0u64, 0u64);
            for chunk in 0..32 {
                for f in &pool {
                    drv.deliver(f).unwrap();
                    fed += 1;
                }
                // Until the queue has quiesced: the empty polls are the
                // watchdog's, for completions a lost doorbell hides.
                let mut polls = 0;
                loop {
                    let n = drv.poll_batch_into(&mut batch);
                    for pkt in 0..n {
                        let meta: Vec<_> = batch
                            .semantics()
                            .iter()
                            .enumerate()
                            .map(|(fi, s)| (*s, batch.value_at(fi, pkt)))
                            .collect();
                        assert_correct_or_absent(&drv, &reg, batch.frame(pkt), &meta, &ctx)?;
                    }
                    delivered += n as u64;
                    if n == 0 && drv.in_flight() == 0 {
                        break;
                    }
                    polls += 1;
                    prop_assert!(polls < 256, "{}: chunk {} never quiesced", ctx, chunk);
                }
            }
            prop_assert_eq!(fed, 2048);

            let (dev, host) = (&drv.nic.stats, drv.validation_stats());
            prop_assert_eq!(drv.health(), QueueHealth::Healthy, "{}: {:?}", ctx, host);
            prop_assert_eq!(drv.health_transitions(), 0, "{}", ctx);
            prop_assert_eq!(host.structural_failures, 0, "{}", ctx);
            prop_assert_eq!(host.degraded_packets, host.truncated, "{}", ctx);
            // A short record under a stale tag is discarded unread.
            prop_assert!(
                host.truncated <= dev.truncated
                    && host.truncated + dev.stale_gen >= dev.truncated,
                "{}: dev={:?} host={:?}",
                ctx, dev, host
            );
            prop_assert_eq!(host.duplicates, dev.duplicated, "{}", ctx);
            prop_assert_eq!(host.stale, dev.stale_gen, "{}", ctx);
            prop_assert_eq!(delivered, fed - dev.stale_gen, "{}: {:?}", ctx, dev);
            prop_assert_eq!(host.accepted, delivered, "{}", ctx);
            prop_assert!(host.faults() > 0, "{}: the device injected nothing", ctx);
        }
    }

    /// Device-injected faults and host-observed faults reconcile: every
    /// duplicate and stale-generation writeback the device injects is
    /// discarded (not delivered twice / not delivered at all), and the
    /// total delivered count equals deliveries minus device-side losses
    /// minus host-side discards.
    #[test]
    fn delivered_count_reconciles_with_fault_accounting(
        faults in arb_faults(),
        n_frames in 8usize..32,
    ) {
        let mut reg = SemanticRegistry::with_builtins();
        let mut drv = driver_for(models::e1000e(), &mut reg);
        drv.nic.set_faults(faults).unwrap();
        for i in 0..n_frames {
            drv.deliver(&testpkt::udp4(
                [10, 0, 0, 1],
                [10, 0, 0, 2],
                40000,
                2000 + i as u16,
                b"acct",
                None,
            ))
            .unwrap();
        }
        drv.nic.set_faults(FaultConfig::default()).unwrap();
        // Trace the drain (not the doorbells above, so the ring holds
        // every event of it).
        drv.set_telemetry_enabled(true);
        let mut delivered = 0u64;
        for _ in 0..32 {
            while drv.poll().is_some() {
                delivered += 1;
            }
        }
        let ctx = format!("faults={:?} CHAOS_SEED={}", faults, env_seed());
        // Every truncated record the validator counted is on the trace,
        // with the length it had and the length the layout promised.
        let trace = &drv.telemetry().trace;
        prop_assert_eq!(trace.dropped(), 0, "{}: trace ring wrapped", ctx);
        let truncated: Vec<_> = trace
            .events()
            .into_iter()
            .filter(|e| e.kind == opendesc::compiler::TraceKind::Truncated)
            .collect();
        prop_assert_eq!(
            truncated.len() as u64,
            drv.validation_stats().truncated,
            "{}: truncations missing from the trace",
            ctx
        );
        for e in &truncated {
            prop_assert!(e.a < e.b, "{}: truncated event {:?} is not short", ctx, e);
            prop_assert_eq!(e.b, drv.iface.validator().expected_len as u64, "{}", ctx);
        }
        let dev = &drv.nic.stats;
        let host = drv.validation_stats();
        // Device losses: dropped, hang-swallowed, ring-full. Everything
        // else produced a completion; the host discarded replays and
        // stale tags, and delivered the rest.
        let device_lost = dev.dropped_faults + dev.hang_dropped + dev.dropped_ring_full;
        let host_discarded = host.duplicates + host.stale;
        let produced = n_frames as u64 - device_lost + dev.duplicated;
        prop_assert_eq!(
            delivered,
            produced - host_discarded,
            "{}: dev={:?} host={:?}",
            ctx, dev, host
        );
    }
}
