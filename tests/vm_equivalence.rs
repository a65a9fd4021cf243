//! Differential testing of the plan-execution forms against what the
//! datapath delivers.
//!
//! Every compiled plan exists in three executable shapes: the tree
//! interpreter (`opendesc_reference::execute_*`, the oracle), the
//! register bytecode the datapath runs a column at a time
//! (`PlanProgram`), and the eBPF lowering whose window programs the
//! in-repo verifier proves bounds-safe before the `PlanCache` hands the
//! plan out. This suite posts arbitrary frames, completion bytes and
//! RSS hints to an attached driver (`SimNic::post_completion`) and holds
//! the rows `poll_batch_into` delivers — trusted, verified under
//! `ValidationMode::Full`, degraded after a demotion — and the shim ops
//! it runs for them bit-identical to the oracle over random intents ×
//! all four NIC models, holds every eBPF window equal to its accessor,
//! checks that the verifier accepts every plan the compiler can
//! produce, and holds the re-serve the datapath runs over distrusted
//! rows (`vm::reserve_rows`) equal to `execute_degraded_partial` under
//! arbitrary keep masks.
//!
//! Failures print the model and `CHAOS_SEED` (the CI chaos job fans
//! this suite out across seeds) so a failing case is replayable.

use opendesc::compiler::vm;
use opendesc::compiler::{
    lower, Accessor, AccessorSet, CompiledRx, Compiler, Intent, LowerError, PlanProgram, RxPlan,
};
use opendesc::ebpf::Vm;
use opendesc::ir::{names, SemanticId, SemanticRegistry};
use opendesc::nicsim::{models, SimNic};
use opendesc::softnic::{testpkt, SoftNic};
use opendesc_reference::{
    execute_degraded, execute_degraded_partial, execute_into_primed, execute_verified, pass_checks,
    serve, Served,
};
use proptest::prelude::*;
use std::sync::Arc;

/// The semantic pool random intents draw from (same stateless set as
/// the chaos suite; per-flow state legitimately varies with order).
const SEMS: [&str; 8] = [
    names::RSS_HASH,
    names::QUEUE_HINT,
    names::VLAN_TCI,
    names::PKT_LEN,
    names::PACKET_TYPE,
    names::PAYLOAD_OFFSET,
    names::KVS_KEY_HASH,
    names::IP_CHECKSUM,
];

/// CI override: mixes an external seed into the completion-byte
/// generator so the chaos job explores distinct records per matrix
/// entry.
fn env_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Intent over the semantics whose bit is set in `mask` (1..256, so
/// never empty).
fn intent_from_mask(mask: u32, reg: &mut SemanticRegistry) -> Intent {
    let mut b = Intent::builder("vmdiff");
    for (i, name) in SEMS.iter().enumerate() {
        if mask & (1 << i) != 0 {
            b = b.want(reg, name);
        }
    }
    b.build()
}

/// Deterministic pseudo-random completion bytes (xorshift) — the
/// device-side record both executors read.
fn splat(mut seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed as u8
        })
        .collect()
}

/// A batch's rows, each a slot vector.
type BatchRows = Vec<Vec<Option<u128>>>;

/// Rows of a three-row batch, each slot prefilled with a value no shim
/// produces.
fn prefilled(slots: usize) -> BatchRows {
    let row: Vec<_> = (0..slots as u128)
        .map(|i| Some(0xFEED_0000_0000 + i))
        .collect();
    vec![row; 3]
}

/// The partial degraded re-serve, `(tree, column)`, each as three rows
/// and the shim ops it ran. The column side is the re-serve the
/// datapath runs over the rows it distrusts ([`vm::reserve_rows`]),
/// listing rows 0 (keeping `keep`) and 2 (keeping the complement) of a
/// column-major three-row batch: row 1 is not listed and must come back
/// untouched.
fn partial_degrade(
    plan: &RxPlan,
    prog: &PlanProgram,
    frame: &[u8],
    keep: u128,
) -> ((BatchRows, u64), (BatchRows, u64)) {
    let slots = plan.steps.len();
    let mut tree = prefilled(slots);
    let mut soft = SoftNic::new();
    execute_degraded_partial(plan, &mut soft, frame, keep, &mut tree[0]);
    execute_degraded_partial(plan, &mut soft, frame, !keep, &mut tree[2]);
    let rows = prefilled(slots);
    let mut meta: Vec<_> = (0..slots * 3).map(|i| rows[i % 3][i / 3]).collect();
    let list = [(0, keep), (2, !keep)];
    let mut column_soft = SoftNic::new();
    let insns = &prog.degraded;
    vm::reserve_rows(&mut column_soft, insns, &[frame; 3], &list, &mut meta, 3);
    let column = (0..3)
        .map(|r| (0..slots).map(|s| meta[s * 3 + r]).collect())
        .collect();
    ((tree, soft.shim_ops()), (column, column_soft.shim_ops()))
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline differential property: for random intents on every
    /// model, the rows the datapath delivers in all three dispositions
    /// (and the shim ops it runs for them), the eBPF-lowered windows
    /// and the re-serve equal the tree interpreter — and the verifier
    /// accepts every lowered plan.
    #[test]
    fn bytecode_ebpf_and_tree_interpreter_are_bit_identical(
        mask in 1u32..256,
        frame in arb_frame(),
        cmpt_seed in any::<u64>(),
        hint in (any::<bool>(), any::<u32>()).prop_map(|(s, h)| s.then_some(h)),
        keep in any::<u128>(),
    ) {
        let seed = cmpt_seed ^ env_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for model in [models::e1000e(), models::ixgbe(), models::mlx5(), models::qdma_default()] {
            let name = model.name.clone();
            let ctx = format!("model={name} mask={mask:#010b} CHAOS_SEED={}", env_seed());
            let mut reg = SemanticRegistry::with_builtins();
            let intent = intent_from_mask(mask, &mut reg);
            let compiled = Compiler::default()
                .compile_model(&model, &intent, &mut reg)
                .expect("intent compiles on every model");
            let rx = Arc::new(CompiledRx::new(compiled));
            let set = &rx.accessors;
            let plan = &rx.plan;
            // Verifier acceptance: every plan the compiler can produce
            // must lower, with all window programs proven bounds-safe.
            let lowered = match rx.lowered() {
                Some(l) => l,
                None => {
                    let why = rx.lowering_error().expect("lowered or says why not");
                    return Err(TestCaseError::fail(format!("{ctx}: rejected: {why}")));
                }
            };
            let prog = &lowered.prog;
            prop_assert!(
                lowered.verifier_states > 0 || lowered.ebpf.is_empty(),
                "{}: verifier never ran", ctx
            );
            let cmpt = splat(seed | 1, set.completion_bytes as usize);
            let slots = plan.steps.len();
            let nic = || SimNic::new(model.clone(), 16).unwrap();

            // Trusted disposition (primed from the steering hint), on a
            // record that passes the structural checks (one that fails
            // them is re-served).
            let mut honest = cmpt.clone();
            pass_checks(&rx, frame.len(), &mut honest);
            let mut tree = vec![None; slots];
            let mut soft_a = SoftNic::new();
            execute_into_primed(plan, set, &mut soft_a, &frame, &honest, hint, &mut tree);
            let got = serve(nic(), &rx, Served::Trusted, &frame, &honest, hint)
                .expect("catalog models attach");
            prop_assert_eq!(&tree, &got.row, "{}: trusted diverged", &ctx);
            prop_assert_eq!(got.stats.structural_failures, 0, "{}: honest record failed", &ctx);
            prop_assert_eq!(
                soft_a.shim_ops(), got.shim_ops,
                "{}: trusted shim-op counts diverged", &ctx
            );

            // Every hardware field through the eBPF VM: window programs
            // combine to exactly the accessor's (and bytecode's) value.
            let vm = Vm::default();
            for f in &lowered.ebpf {
                let got = f.run(&vm, &cmpt).expect("verified program executes");
                let want = set.accessors[f.acc_idx].read(&cmpt);
                prop_assert_eq!(
                    got, want,
                    "{}: eBPF field {} diverged", &ctx, &f.name
                );
            }

            // Verified disposition, on a corrupted record so the
            // compare-and-repair paths actually fire.
            let mut bad = cmpt.clone();
            for (i, b) in bad.iter_mut().enumerate() {
                if i % 3 == 0 {
                    *b ^= 0x5A;
                }
            }
            // The steering hint rides along: a verified or degraded row
            // must not be primed from it.
            let mut tree_v = vec![None; slots];
            let mut soft_c = SoftNic::new();
            let rep_tree = execute_verified(plan, set, &mut soft_c, &frame, &bad, &mut tree_v);
            let got = serve(nic(), &rx, Served::Verified, &frame, &bad, hint)
                .expect("catalog models attach");
            prop_assert_eq!(&tree_v, &got.row, "{}: verified diverged", &ctx);
            prop_assert_eq!(
                rep_tree as u64, got.stats.repaired_fields,
                "{}: repair counts diverged", &ctx
            );
            prop_assert_eq!(
                soft_c.shim_ops(), got.shim_ops,
                "{}: verified shim-op counts diverged", &ctx
            );

            // Degraded disposition: every device-only slot cleared.
            let mut tree_d = vec![Some(0xDEAD); slots];
            let mut soft_e = SoftNic::new();
            execute_degraded(plan, &mut soft_e, &frame, &mut tree_d);
            let got = serve(nic(), &rx, Served::Degraded, &frame, &cmpt, hint)
                .expect("catalog models attach");
            prop_assert_eq!(&tree_d, &got.row, "{}: degraded diverged", &ctx);
            prop_assert_eq!(
                soft_e.shim_ops(), got.shim_ops,
                "{}: degraded shim-op counts diverged", &ctx
            );

            // Partial degraded re-serve — what the datapath runs on a
            // distrusted row: a random mask, everything kept, one
            // slot kept, one hardware slot kept.
            let single = 1u128 << (keep % slots as u128);
            let hw_bit = plan.hw.first().map_or(0, |&i| 1u128 << i);
            for k in [keep, u128::MAX, single, hw_bit] {
                let (tree_p, column_p) = partial_degrade(plan, prog, &frame, k);
                prop_assert_eq!(&tree_p.0, &column_p.0, "{}: partial degrade diverged, keep {:#x}", &ctx, k);
                prop_assert_eq!(tree_p.1, column_p.1, "{}: re-serve shim ops, keep {:#x}", &ctx, k);
            }
        }
    }
}

/// A layout lying about its completion size is rejected at lowering:
/// the verifier refuses to prove the out-of-bounds window, and such a
/// plan is never executable (the `PlanCache` won't serve it).
#[test]
fn out_of_bounds_plan_is_rejected_not_served() {
    let set = AccessorSet {
        accessors: vec![Accessor::hardware(SemanticId(0), "liar", 96, 32)],
        completion_bytes: 8,
    };
    let reg = SemanticRegistry::with_builtins();
    let plan = RxPlan::compile(&set, &reg);
    match lower(&set, &plan) {
        Err(LowerError::Verify { name, reason, .. }) => {
            assert!(name.starts_with("liar"), "{name}");
            assert!(reason.contains("exceeds proven bound"), "{reason}");
        }
        other => panic!("expected Verify rejection, got {other:?}"),
    }
}

/// The partial degraded re-serve on a 128-slot plan — the widest
/// `lower` accepts, so the keep mask's top bit names a real slot.
#[test]
fn partial_degrade_agrees_across_the_whole_keep_mask() {
    let reg = SemanticRegistry::with_builtins();
    // Recomputable semantics plus one device-only one, alternating
    // software and hardware slots; slot 127 is a hardware `queue_hint`.
    let pool: Vec<SemanticId> = SEMS
        .iter()
        .chain([names::TIMESTAMP].iter())
        .map(|n| reg.id(n).unwrap())
        .collect();
    let accessors = (0..128usize)
        .map(|i| match (pool[i % pool.len()], i % 2) {
            (sem, 0) => Accessor::software(sem, format!("s{i}"), 32),
            (sem, _) => Accessor::hardware(sem, format!("h{i}"), i as u32 * 8, 8),
        })
        .collect();
    let set = AccessorSet {
        accessors,
        completion_bytes: 128,
    };
    let plan = RxPlan::compile(&set, &reg);
    let prog = lower(&set, &plan).expect("128 slots lower").prog;
    let kvs = testpkt::kvs_get_payload("wide:key");
    let frame = testpkt::udp4(
        [10, 0, 0, 1],
        [10, 0, 0, 2],
        40000,
        11211,
        &kvs,
        Some(0x0042),
    );
    let top = 1u128 << 127;
    let stripes = u128::MAX / 3; // 0x5555…
    for frame in [&frame[..], &[0u8; 6][..]] {
        for keep in [top, !top, u128::MAX, stripes, !stripes, 1, 2] {
            let (tree, column) = partial_degrade(&plan, &prog, frame, keep);
            assert_eq!(tree, column, "keep {keep:#x}");
            for (i, v) in column.0[0].iter().enumerate() {
                let prefill = Some(0xFEED_0000_0000 + i as u128);
                assert_eq!(
                    *v == prefill,
                    keep >> i & 1 == 1,
                    "slot {i}, keep {keep:#x}"
                );
            }
        }
    }
}
