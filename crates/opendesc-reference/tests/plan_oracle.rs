//! The tree interpreter against the forms it is the oracle of: the
//! accessor-set reference and the rows the batched driver delivers.

use opendesc_core::{
    Accessor, AccessorSet, CompiledInterface, CompiledRx, Compiler, Intent, OpenDescDriver,
    PlanStep, RxPlan,
};
use opendesc_ir::{names, SemanticRegistry};
use opendesc_nicsim::{models, NicModel, SimNic};
use opendesc_reference::{
    execute_degraded, execute_degraded_partial, execute_into_primed, execute_verified, pass_checks,
    read_packet, serve, Served,
};
use opendesc_softnic::{testpkt, SoftNic};
use std::sync::Arc;

fn compile(model: &NicModel, intent: &Intent, reg: &mut SemanticRegistry) -> CompiledInterface {
    Compiler::default()
        .compile_model(model, intent, reg)
        .unwrap()
}

fn fig1_on(model: NicModel) -> CompiledInterface {
    let mut reg = SemanticRegistry::with_builtins();
    let intent = Intent::from_p4(opendesc_core::FIG1_INTENT_P4, &mut reg).unwrap();
    compile(&model, &intent, &mut reg)
}

fn four_models() -> [NicModel; 4] {
    [
        models::e1000e(),
        models::ixgbe(),
        models::mlx5(),
        models::qdma_default(),
    ]
}

fn kvs_frame(key: &str, tci: Option<u16>) -> Vec<u8> {
    let payload = testpkt::kvs_get_payload(key);
    testpkt::udp4([10, 0, 0, 1], [10, 0, 0, 2], 4242, 11211, &payload, tci)
}

/// Unprimed trusted execution into a fresh vector.
fn execute(
    iface: &CompiledInterface,
    soft: &mut SoftNic,
    frame: &[u8],
    cmpt: &[u8],
) -> Vec<Option<u128>> {
    let mut out = vec![None; iface.plan.steps.len()];
    execute_into_primed(
        &iface.plan,
        &iface.accessors,
        soft,
        frame,
        cmpt,
        None,
        &mut out,
    );
    out
}

#[test]
fn execute_matches_read_packet() {
    for model in four_models() {
        let iface = fig1_on(model);
        let frame = kvs_frame("plan:key", Some(0x0042));
        let cmpt = vec![0xA5u8; iface.accessors.completion_bytes as usize];
        let mut a = SoftNic::new();
        let mut b = SoftNic::new();
        let legacy = read_packet(&iface.accessors, &iface.reg, &mut a, &frame, &cmpt);
        let planned = execute(&iface, &mut b, &frame, &cmpt);
        assert_eq!(legacy, planned, "{}", iface.nic_name);
    }
}

#[test]
fn execute_handles_unparseable_frames() {
    let iface = fig1_on(models::e1000e());
    let runt = vec![0u8; 6]; // shorter than an Ethernet header
    let cmpt = vec![0u8; iface.accessors.completion_bytes as usize];
    let vals = execute(&iface, &mut SoftNic::new(), &runt, &cmpt);
    for (step, v) in iface.plan.steps.iter().zip(&vals) {
        match step {
            PlanStep::Hardware { .. } => assert!(v.is_some()),
            PlanStep::Software { .. } => assert!(v.is_none()),
        }
    }
}

#[test]
fn primed_execution_matches_unprimed_with_true_hash() {
    // When the sideband hint is the hash the device truly computed
    // (the only case the datapath produces), priming must be
    // invisible in the output — it only skips the recompute.
    let iface = fig1_on(models::e1000e());
    let frame = kvs_frame("primed:key", None);
    let cmpt = vec![0u8; iface.accessors.completion_bytes as usize];
    let mut soft = SoftNic::new();
    let h = soft.compute_by_name(names::RSS_HASH, &frame).unwrap() as u32;
    let plain = execute(&iface, &mut soft, &frame, &cmpt);
    let mut primed = vec![None; iface.plan.steps.len()];
    execute_into_primed(
        &iface.plan,
        &iface.accessors,
        &mut soft,
        &frame,
        &cmpt,
        Some(h),
        &mut primed,
    );
    assert_eq!(plain, primed);
}

#[test]
fn partial_degrade_keeps_kept_slots_and_recomputes_the_rest() {
    let iface = fig1_on(models::e1000e());
    let plan = &iface.plan;
    let frame = kvs_frame("partial:key", Some(0x0042));
    let mut soft = SoftNic::new();
    // keep = 0 is bit-identical to full degraded execution.
    let mut full = vec![Some(0xDEADu128); plan.steps.len()];
    let mut part = vec![Some(0xDEADu128); plan.steps.len()];
    execute_degraded(plan, &mut soft, &frame, &mut full);
    execute_degraded_partial(plan, &mut soft, &frame, 0, &mut part);
    assert_eq!(full, part);
    // A kept slot survives untouched (even with a sentinel value the
    // shims would never produce); everything else matches full
    // degraded output.
    let keep_idx = plan.degraded[0].0;
    let sentinel = Some(0xFEED_FACE_u128);
    let mut kept = vec![None; plan.steps.len()];
    kept[keep_idx] = sentinel;
    execute_degraded_partial(plan, &mut soft, &frame, 1u128 << keep_idx, &mut kept);
    assert_eq!(kept[keep_idx], sentinel, "kept slot must not be recomputed");
    for i in 0..plan.steps.len() {
        if i != keep_idx {
            assert_eq!(kept[i], full[i], "slot {i}");
        }
    }
}

#[test]
fn slots_past_the_keep_mask_are_never_kept() {
    // 130 software `pkt_len` slots: wider than the mask, and wider than
    // any plan `lower` accepts, so only the oracle can be asked.
    let reg = SemanticRegistry::with_builtins();
    let sem = reg.id(names::PKT_LEN).unwrap();
    let set = AccessorSet {
        accessors: vec![Accessor::software(sem, "len", 16); 130],
        completion_bytes: 0,
    };
    let plan = RxPlan::compile(&set, &reg);
    let frame = kvs_frame("wide:key", None);
    let mut out = vec![Some(0xFEED_u128); 130];
    execute_degraded_partial(&plan, &mut SoftNic::new(), &frame, u128::MAX, &mut out);
    assert!(out[..128].iter().all(|v| *v == Some(0xFEED)));
    assert!(out[128..].iter().all(|v| *v == Some(frame.len() as u128)));
}

#[test]
fn memoized_rss_feeds_hash_and_hint_identically() {
    let mut reg = SemanticRegistry::with_builtins();
    let intent = Intent::builder("hint")
        .want(&mut reg, names::RSS_HASH)
        .want(&mut reg, names::QUEUE_HINT)
        .build();
    let iface = compile(&models::e1000_legacy(), &intent, &mut reg);
    assert!(
        iface.plan.sw.len() >= 2,
        "legacy e1000 computes both in software"
    );
    let frame = testpkt::udp4([1, 2, 3, 4], [5, 6, 7, 8], 9, 10, b"x", None);
    let cmpt = vec![0u8; iface.accessors.completion_bytes as usize];
    let vals = execute(&iface, &mut SoftNic::new(), &frame, &cmpt);
    let slot_of = |name: &str| {
        let sem = reg.id(name).unwrap();
        let accs = &iface.accessors.accessors;
        accs.iter().position(|a| a.semantic == sem).unwrap()
    };
    let (rss, hint) = (slot_of(names::RSS_HASH), slot_of(names::QUEUE_HINT));
    assert_eq!(vals[hint].unwrap(), vals[rss].unwrap() & 0xFF);
}

/// The rows an attached driver delivers for one posted completion, in
/// each disposition, against the tree interpreter over the same bytes.
#[test]
fn served_rows_match_tree_interpreter() {
    let frame = kvs_frame("lower:key", Some(0x0042));
    for model in four_models() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("lower")
            .want(&mut reg, names::RSS_HASH)
            .want(&mut reg, names::PKT_LEN)
            .want(&mut reg, names::VLAN_TCI)
            .want(&mut reg, names::PACKET_TYPE)
            .want(&mut reg, names::KVS_KEY_HASH)
            .build();
        let rx = Arc::new(CompiledRx::new(compile(&model, &intent, &mut reg)));
        let name = &rx.nic_name;
        let mut cmpt: Vec<u8> = (0..rx.accessors.completion_bytes)
            .map(|i| (i as u8).wrapping_mul(29) ^ 0x3C)
            .collect();
        let serve = |how, cmpt: &[u8]| {
            let nic = SimNic::new(model.clone(), 16).unwrap();
            serve(nic, &rx, how, &frame, cmpt, None).expect("catalog models attach")
        };
        let slots = rx.plan.steps.len();

        let mut verified = vec![None; slots];
        let mut soft = SoftNic::new();
        let repaired = execute_verified(
            &rx.plan,
            &rx.accessors,
            &mut soft,
            &frame,
            &cmpt,
            &mut verified,
        );
        let got = serve(Served::Verified, &cmpt);
        assert_eq!(got.row, verified, "{name}");
        assert_eq!(got.stats.repaired_fields, repaired as u64, "{name}");
        assert_eq!(got.shim_ops, soft.shim_ops(), "{name}");

        let mut degraded = vec![None; slots];
        let mut soft = SoftNic::new();
        execute_degraded(&rx.plan, &mut soft, &frame, &mut degraded);
        let got = serve(Served::Degraded, &cmpt);
        assert_eq!(got.row, degraded, "{name}");
        assert_eq!(got.shim_ops, soft.shim_ops(), "{name}");

        pass_checks(&rx, frame.len(), &mut cmpt);
        let mut soft = SoftNic::new();
        let trusted = execute(&rx, &mut soft, &frame, &cmpt);
        let got = serve(Served::Trusted, &cmpt);
        assert_eq!(got.row, trusted, "{name}");
        assert_eq!(got.stats.structural_failures, 0, "{name}");
        assert_eq!(got.shim_ops, soft.shim_ops(), "{name}");
    }
}

#[test]
fn batched_poll_matches_per_packet_poll() {
    for model in four_models() {
        let name = model.name.clone();
        let driver = || {
            let nic = SimNic::new(model.clone(), 256).unwrap();
            OpenDescDriver::attach(nic, fig1_on(model.clone())).unwrap()
        };
        let (mut a, mut b) = (driver(), driver());
        for i in 0..7 {
            let f = kvs_frame(&format!("flow:{}", i % 3), Some(0x0123));
            a.deliver(&f).unwrap();
            b.deliver(&f).unwrap();
        }
        let singles = a.poll_batch(7);
        let mut batch = b.make_batch(7);
        assert_eq!(b.poll_batch_into(&mut batch), 7, "{name}");
        // `poll` is a one-slot batch, so `singles` holds cap-1
        // against cap-7 column addressing; the independent side is
        // the tree interpreter over what each slot holds.
        let mut soft = SoftNic::new();
        let mut oracle = vec![None; b.iface.plan.steps.len()];
        for (pkt, single) in singles.iter().enumerate() {
            assert_eq!(batch.frame(pkt), &single.frame[..], "{name}");
            execute_into_primed(
                &b.iface.plan,
                &b.iface.accessors,
                &mut soft,
                batch.frame(pkt),
                b.completion(&batch, pkt).unwrap(),
                batch.rss_hint(pkt),
                &mut oracle,
            );
            for (field, (sem, want)) in single.meta.iter().enumerate() {
                assert_eq!(batch.value_at(field, pkt), oracle[field], "{name}");
                assert_eq!(batch.value_at(field, pkt), *want, "{name}");
                assert_eq!(batch.get(pkt, *sem), *want, "{name}");
            }
        }
    }
}
