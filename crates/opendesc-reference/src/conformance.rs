//! Differential conformance fuzzing across the descriptor-layout space.
//!
//! The paper's claim is that the metadata interface is a *negotiated
//! artifact*: any valid `CmptDeparser`/`DescParser` description should
//! compile to an interface whose four executable forms — the SoftNIC
//! reference ([`read_packet`](crate::read_packet)), the tree-interpreter
//! oracle ([`execute_into_primed`] and its siblings), the bytecode VM,
//! and the verifier-gated eBPF lowering — agree bit-for-bit, and whose
//! TX deparse bytecode writes the same wire bytes as [`tx_descriptor`].
//! Four hand-built models cannot witness that claim over the layout
//! space, so this module mints NIC models *at random*
//! (seed-deterministic, via [`opendesc_nicsim::models::programmable`])
//! — randomized field widths, offsets and ordering, interleaved pads
//! and generation tags, optional tails, if/else/switch/opaque guards,
//! optional extended TX descriptors — negotiates each one, round-trips
//! its manifest, and cross-checks every execution form on identical
//! bytes.
//!
//! A divergence carries a minimized reproducer (seed + intent mask +
//! contract + manifest) so CI can upload it as an artifact and
//! `tests/corpus/` can pin it forever.

use crate::{
    execute_degraded, execute_degraded_partial, execute_into_primed, execute_verified, pass_checks,
    serve, tx_descriptor, Served,
};
use opendesc_core::codegen::manifest::ManifestV1;
use opendesc_core::vm;
use opendesc_core::{
    check_contract, compile_tx, lower, txreg, Accessor, AccessorSet, CompiledRx, CompiledTxPlan,
    Compiler, Intent, LowerError, RxPlan, Selector,
};
use opendesc_ebpf::Vm;
use opendesc_ir::semantics::{names, SemanticId, SemanticRegistry};
use opendesc_nicsim::models::{
    programmable, NicModel, ProgField, ProgGuard, ProgLayout, ProgSpec, ProgTxSpec,
};
use opendesc_nicsim::SimNic;
use opendesc_softnic::{testpkt, SoftNic};
use opendesc_telemetry::parse_json;
use std::sync::Arc;

/// The semantic pool intents draw from: every entry has a finite
/// software cost, so any intent over this pool compiles on any layout.
pub const INTENT_SEMS: [&str; 8] = [
    names::RSS_HASH,
    names::QUEUE_HINT,
    names::VLAN_TCI,
    names::PKT_LEN,
    names::PACKET_TYPE,
    names::PAYLOAD_OFFSET,
    names::KVS_KEY_HASH,
    names::IP_CHECKSUM,
];

/// Extra semantics that may appear in generated layouts but never in
/// intents (device-only or stateful — the fuzzer only reads them as
/// raw completion bits).
const LAYOUT_ONLY_SEMS: [&str; 4] = [
    names::TIMESTAMP,
    names::FLOW_TAG,
    names::IP_ID,
    names::RX_STATUS,
];

/// Seed-deterministic xorshift64 generator — the only entropy source,
/// so every run is replayable from its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// Deterministic pseudo-random completion bytes.
pub fn splat(mut seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed as u8
        })
        .collect()
}

/// Generate one random *valid* layout: shuffled semantic fields with
/// randomized widths, interleaved pad/generation-tag fields. `budget`
/// caps the field bits so layout + tail stay within the 64-byte slot.
fn gen_layout(rng: &mut Rng, fresh: &mut usize, budget: u32) -> ProgLayout {
    let mut pool: Vec<&str> = INTENT_SEMS
        .iter()
        .chain(LAYOUT_ONLY_SEMS.iter())
        .copied()
        .collect();
    rng.shuffle(&mut pool);
    let k = rng.below(7) as usize + 1;
    let mut fields = Vec::new();
    let mut bits = 0u32;
    for sem in pool.into_iter().take(k) {
        // Width: the semantic's natural width, a power-of-two, or fully
        // random (unaligned widths exercise the cross-byte shift paths).
        let w = match rng.below(4) {
            0 => natural_width(sem),
            1 => [8u16, 16, 32, 64][rng.below(4) as usize],
            _ => rng.below(64) as u16 + 1,
        };
        if bits + w as u32 > budget {
            break;
        }
        // Interleave a pad or generation tag before the field.
        if rng.chance(40) {
            let pw = rng.below(31) as u16 + 1;
            if bits + pw as u32 + w as u32 <= budget {
                let tag = if rng.chance(50) { "gen" } else { "pad" };
                fields.push(ProgField::pad(&format!("{tag}{fresh}"), pw));
                *fresh += 1;
                bits += pw as u32;
            }
        }
        fields.push(ProgField::sem(&format!("f{fresh}"), sem, w));
        *fresh += 1;
        bits += w as u32;
    }
    if fields.is_empty() {
        fields.push(ProgField::sem(&format!("f{fresh}"), names::PKT_LEN, 16));
        *fresh += 1;
    }
    ProgLayout { fields }
}

fn natural_width(sem: &str) -> u16 {
    match sem {
        names::TIMESTAMP => 64,
        names::RSS_HASH | names::KVS_KEY_HASH | names::FLOW_TAG => 32,
        names::RX_STATUS => 8,
        _ => 16,
    }
}

/// Generate one random valid NIC description. Every shape this emits
/// must pass [`programmable`]'s validation — a `None` there is a
/// generator bug, surfaced by the caller.
pub fn gen_spec(rng: &mut Rng, idx: u64) -> ProgSpec {
    let guard = match rng.below(100) {
        0..=44 => ProgGuard::Switch {
            selector_bits: rng.below(7) as u16 + 2,
        },
        45..=69 => ProgGuard::IfElse,
        70..=89 => ProgGuard::Unconditional,
        _ => ProgGuard::Opaque,
    };
    let n_layouts = match guard {
        ProgGuard::Unconditional => 1,
        ProgGuard::IfElse | ProgGuard::Opaque => 2,
        ProgGuard::Switch { .. } => rng.below(4) as usize + 1,
    };
    let mut fresh = 0usize;
    let tail = if rng.chance(30) {
        Some(ProgLayout {
            fields: vec![
                ProgField::sem("t_status", names::RX_STATUS, 8),
                ProgField::sem("t_len", names::PKT_LEN, 16),
            ],
        })
    } else {
        None
    };
    let tail_bytes = tail.as_ref().map_or(0, |t| t.bytes());
    // Field-bit budget per layout: headers are byte-padded, so leave a
    // byte of slack under the 64B ceiling.
    let budget = (64 - tail_bytes - 1) * 8;
    let layouts = (0..n_layouts)
        .map(|_| gen_layout(rng, &mut fresh, budget))
        .collect();
    let tx = if rng.chance(50) {
        let mut ext = Vec::new();
        for (name, sem) in [
            ("x_vlan", names::TX_VLAN_INSERT),
            ("x_l4", names::TX_L4_CSUM),
            ("x_ip", names::TX_IP_CSUM),
        ] {
            if rng.chance(50) {
                ext.push(ProgField::sem(name, sem, 16));
            }
        }
        Some(ProgTxSpec {
            base: vec![
                ProgField::sem("addr", names::BUF_ADDR, 64),
                ProgField::sem("blen", names::BUF_LEN, 16),
                ProgField::pad("bflags", 8),
            ],
            ext: (!ext.is_empty()).then_some(ext),
        })
    } else {
        None
    };
    ProgSpec {
        name: format!("fuzz{idx}"),
        layouts,
        guard,
        tail,
        tx,
    }
}

/// Intent over the [`INTENT_SEMS`] whose bit is set in `mask`
/// (1..256, so never empty).
pub fn intent_from_mask(mask: u32, reg: &mut SemanticRegistry) -> Intent {
    let mut b = Intent::builder("conformance");
    for (i, name) in INTENT_SEMS.iter().enumerate() {
        if mask & (1 << i) != 0 {
            b = b.want(reg, name);
        }
    }
    b.build()
}

/// One confirmed cross-path divergence, with everything needed to
/// replay it: the run seed, the NIC's generation index, the (minimized)
/// intent mask, and the negotiated artifacts.
#[derive(Debug, Clone)]
pub struct Divergence {
    pub seed: u64,
    pub nic_idx: u64,
    pub intent_mask: u32,
    pub detail: String,
    pub contract: String,
    pub manifest: String,
}

/// Aggregate result of one fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub seed: u64,
    pub nics: u64,
    /// Negotiated (NIC, intent, layout) triples that passed every
    /// cross-path check.
    pub layouts_negotiated: u64,
    /// Manifests that survived `generate → parse → render` byte-stable.
    pub manifests_roundtripped: u64,
    /// Adversarial out-of-bounds plans the eBPF verifier refused.
    pub ebpf_refused: u64,
    /// TX-capable triples whose deparse bytecode matched [`tx_descriptor`].
    pub tx_checked: u64,
    /// Triples whose rows an attached driver delivered, checked in all
    /// three dispositions (the device refuses an artifact whose layout
    /// no context it can be programmed with selects).
    pub datapath_served: u64,
    pub divergences: Vec<Divergence>,
}

impl Report {
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Cross-check one negotiated (model, intent) pair on deterministic
/// frames and completion bytes. Returns the per-pair counts (manifest
/// round-tripped, TX checked, rows served by the datapath — not when
/// the device refuses the artifact) or the first divergence's
/// description.
fn check_pair(model: &NicModel, mask: u32, seed: u64) -> Result<(bool, bool, bool), String> {
    let mut reg = SemanticRegistry::with_builtins();
    let intent = intent_from_mask(mask, &mut reg);
    let compiled = Compiler::default()
        .compile_model(model, &intent, &mut reg)
        .map(|c| Arc::new(CompiledRx::new(c)))
        .map_err(|e| format!("generated model failed to compile: {e}"))?;
    let set = &compiled.accessors;
    let plan = &compiled.plan;

    // Manifest contract: generate → parse → render must be byte-stable,
    // and the text is the JSON layer's own rendering of it.
    let manifest = compiled.manifest();
    let parsed =
        ManifestV1::parse(&manifest).map_err(|e| format!("manifest does not re-parse: {e}"))?;
    if parsed.render() != manifest {
        return Err("manifest round-trip is not byte-stable".into());
    }
    if parse_json(&manifest).map(|doc| doc.render()).as_ref() != Ok(&manifest) {
        return Err("manifest is not its own JSON rendering".into());
    }
    let roundtripped = true;

    // Every compiler-produced plan must lower, verifier-approved.
    let lowered = compiled.lowered().ok_or_else(|| {
        let why = compiled
            .lowering_error()
            .expect("an artifact is lowered or says why not");
        format!("lowering rejected a valid plan: {why}")
    })?;
    let prog = &lowered.prog;
    let slots = plan.steps.len();
    let vm = Vm::default();
    let contract = check_contract(&model.p4_source)
        .map(Arc::new)
        .map_err(|e| format!("generated contract does not check: {e}"))?;
    let nic = || {
        SimNic::with_contract(model.clone(), Arc::clone(&contract), 16)
            .map_err(|e| format!("generated model does not boot: {e}"))
    };
    let mut served = false;

    for round in 0..3u64 {
        let case = seed ^ round.wrapping_mul(0x0102_0304_0506_0708);
        let frame = testpkt::seeded_frame(case);
        let cmpt = splat(case | 1, set.completion_bytes as usize);
        let hint = if case & 4 == 0 {
            Some((case >> 32) as u32)
        } else {
            None
        };

        // SoftNIC reference vs tree oracle (both accessor-ordered).
        let mut soft_r = SoftNic::new();
        let reference = crate::read_packet(set, &reg, &mut soft_r, &frame, &cmpt);
        let mut tree = vec![None; slots];
        let mut soft_a = SoftNic::new();
        execute_into_primed(plan, set, &mut soft_a, &frame, &cmpt, None, &mut tree);
        if reference != tree {
            return Err(format!("round {round}: SoftNIC reference != tree oracle"));
        }

        // Tree oracle vs what the datapath delivers: a trusted poll of
        // a record that passes the structural checks, with the RSS
        // sideband primed the way the datapath primes it. The poll runs
        // the oracle's shims and no others.
        let mut honest = cmpt.clone();
        pass_checks(&compiled, frame.len(), &mut honest);
        let mut tree_t = vec![None; slots];
        let mut soft_t = SoftNic::new();
        execute_into_primed(plan, set, &mut soft_t, &frame, &honest, hint, &mut tree_t);
        let trusted = serve(nic()?, &compiled, Served::Trusted, &frame, &honest, hint);
        if let Some(got) = trusted {
            if tree_t != got.row || got.stats.structural_failures != 0 {
                return Err(format!(
                    "round {round}: tree oracle != trusted poll {tree_t:?} {got:?}"
                ));
            }
            if got.shim_ops != soft_t.shim_ops() {
                return Err(format!("round {round}: trusted shim-op counts diverged"));
            }
            served = true;
        }

        // Every hardware field through the verifier-gated eBPF programs.
        for f in &lowered.ebpf {
            let got = f
                .run(&vm, &cmpt)
                .map_err(|e| format!("round {round}: verified eBPF program trapped: {e:?}"))?;
            let want = set.accessors[f.acc_idx].read(&cmpt);
            if got != want {
                return Err(format!(
                    "round {round}: eBPF field {} read {got:#x}, accessor read {want:#x}",
                    f.name
                ));
            }
        }

        // Verified disposition on a corrupted record: identical repairs.
        let mut bad = cmpt.clone();
        for (i, b) in bad.iter_mut().enumerate() {
            if i % 3 == 0 {
                *b ^= 0x5A;
            }
        }
        let mut tree_v = vec![None; slots];
        let mut soft_v = SoftNic::new();
        let rep_tree = execute_verified(plan, set, &mut soft_v, &frame, &bad, &mut tree_v);
        if let Some(got) = serve(nic()?, &compiled, Served::Verified, &frame, &bad, hint) {
            if tree_v != got.row
                || rep_tree as u64 != got.stats.repaired_fields
                || soft_v.shim_ops() != got.shim_ops
            {
                return Err(format!("round {round}: verified disposition diverged"));
            }
        }

        // Degraded disposition: neither the record nor its sideband is
        // read.
        let mut tree_d = vec![Some(0xDEAD); slots];
        let mut soft_d = SoftNic::new();
        execute_degraded(plan, &mut soft_d, &frame, &mut tree_d);
        if let Some(got) = serve(nic()?, &compiled, Served::Degraded, &frame, &cmpt, hint) {
            if tree_d != got.row || soft_d.shim_ops() != got.shim_ops {
                return Err(format!("round {round}: degraded disposition diverged"));
            }
        }

        // Partial degraded re-serve — the pass the datapath runs over
        // the rows it distrusts, keeping proven and software slots: a
        // kept slot runs no shim.
        // The masks come from their own stream, so a case seed mints
        // the same frames and records with or without this check.
        let mut masks = Rng::new(case ^ 0x6B65_6570);
        let single = 1u128 << masks.below(slots as u64);
        let hw_bit = plan.hw.first().map_or(0, |&i| 1u128 << i);
        let random = (masks.next_u64() as u128) << 64 | masks.next_u64() as u128;
        for keep in [u128::MAX, single, hw_bit, random] {
            let mut tree_p: Vec<_> = (0..slots as u128).map(|i| Some(0xFEED_0000 + i)).collect();
            let mut byte_p = tree_p.clone();
            let (mut soft_p, mut soft_q) = (SoftNic::new(), SoftNic::new());
            execute_degraded_partial(plan, &mut soft_p, &frame, keep, &mut tree_p);
            let (insns, list) = (&prog.degraded, [(0, keep)]);
            vm::reserve_rows(&mut soft_q, insns, &[&frame], &list, &mut byte_p, 1);
            if tree_p != byte_p || soft_p.shim_ops() != soft_q.shim_ops() {
                return Err(format!(
                    "round {round}: partial degraded re-serve diverged (keep {keep:#x})"
                ));
            }
        }
    }

    // TX: deparse bytecode vs `tx_descriptor` wire bytes, when the generated
    // NIC has a descriptor parser.
    let mut tx_checked = false;
    if model.desc_parser.is_some() {
        let mut reg = SemanticRegistry::with_builtins();
        let mut b = Intent::builder("conformance-tx");
        for (i, name) in [names::TX_VLAN_INSERT, names::TX_L4_CSUM, names::TX_IP_CSUM]
            .iter()
            .enumerate()
        {
            if mask & (1 << i) != 0 {
                b = b.want(&mut reg, name);
            }
        }
        let tx_intent = b.build();
        let tx = compile_tx(
            &Selector::default(),
            &model.p4_source,
            model.desc_parser.as_deref().unwrap_or("DescParser"),
            &model.name,
            &tx_intent,
            &mut reg,
        )
        .map_err(|e| format!("TX layout failed to compile: {e}"))?;
        let txplan = CompiledTxPlan::new(tx, &reg);
        let id = |n: &str| reg.id(n).expect("builtin");
        for round in 0..3u64 {
            let r = seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let addr = r & 0xFFFF_FFFF_F000;
            let len = (r >> 17) % 1515;
            let tci = (r >> 31) as u16 & 0x0FFF;
            let mut hints: Vec<(SemanticId, u128)> = vec![
                (id(names::BUF_ADDR), addr as u128),
                (id(names::BUF_LEN), len as u128),
            ];
            let mut regs = [0u128; txreg::COUNT];
            regs[txreg::BUF_ADDR] = addr as u128;
            regs[txreg::BUF_LEN] = len as u128;
            if !txplan.sw_vlan {
                hints.push((id(names::TX_VLAN_INSERT), tci as u128));
                regs[txreg::VLAN] = tci as u128;
            }
            if r & 8 != 0 && !txplan.sw_ip_csum {
                hints.push((id(names::TX_IP_CSUM), 1));
                regs[txreg::IP_CSUM] = 1;
            }
            if r & 16 != 0 && !txplan.sw_l4_csum {
                hints.push((id(names::TX_L4_CSUM), 1));
                regs[txreg::L4_CSUM] = 1;
            }
            let golden = tx_descriptor(&txplan.tx.layout, &hints);
            let mut desc = vec![0xFFu8; golden.len()];
            txplan.prog.run_deparse(&regs, &mut desc);
            if desc != golden {
                return Err(format!(
                    "TX round {round}: deparse bytecode != tx_descriptor wire bytes"
                ));
            }
        }
        tx_checked = true;
    }

    Ok((roundtripped, tx_checked, served))
}

/// Shrink a failing intent mask: greedily drop semantics while the
/// failure persists, so the repro carries the smallest intent.
fn minimize_mask(model: &NicModel, mask: u32, seed: u64) -> u32 {
    let mut best = mask;
    loop {
        let mut shrunk = false;
        for i in 0..INTENT_SEMS.len() as u32 {
            let cand = best & !(1 << i);
            if cand != best && cand != 0 && check_pair(model, cand, seed).is_err() {
                best = cand;
                shrunk = true;
            }
        }
        if !shrunk {
            return best;
        }
    }
}

/// Adversarial refusal check: hand-built plans that lie about their
/// completion size must be rejected by the eBPF verifier, never lowered.
/// Returns the refusal count and any plan that slipped through.
fn adversarial_refusals(rng: &mut Rng, rounds: u64) -> (u64, Option<String>) {
    let reg = SemanticRegistry::with_builtins();
    let mut refused = 0;
    for _ in 0..rounds {
        let bytes = rng.below(32) as u32 + 1;
        // Offset chosen past the record: offset_bits + width > bytes*8.
        let width = [8u16, 16, 32, 64][rng.below(4) as usize];
        let offset = (bytes * 8).saturating_sub(rng.below(width as u64 / 2 + 1) as u32)
            + rng.below(64) as u32;
        let set = AccessorSet {
            accessors: vec![Accessor::hardware(SemanticId(0), "liar", offset, width)],
            completion_bytes: bytes,
        };
        if (offset + width as u32).div_ceil(8) <= bytes {
            continue; // not actually out of bounds; skip
        }
        let plan = RxPlan::compile(&set, &reg);
        match lower(&set, &plan) {
            Err(LowerError::Verify { .. }) => refused += 1,
            Err(_) => refused += 1, // operand-range rejection is also a refusal
            Ok(_) => {
                return (
                    refused,
                    Some(format!(
                        "out-of-bounds plan lowered: offset {offset} width {width} in {bytes}B"
                    )),
                );
            }
        }
    }
    (refused, None)
}

/// Run the differential conformance fuzzer: `nics` generated NIC models
/// × `intents_per_nic` random intents each, plus an adversarial
/// refusal sweep. Deterministic in `seed`.
pub fn run(seed: u64, nics: u64, intents_per_nic: u64) -> Report {
    let mut rng = Rng::new(seed);
    let mut report = Report {
        seed,
        nics,
        ..Report::default()
    };
    for nic_idx in 0..nics {
        let spec = gen_spec(&mut rng, nic_idx);
        let Some(model) = programmable(&spec) else {
            report.divergences.push(Divergence {
                seed,
                nic_idx,
                intent_mask: 0,
                detail: "generator emitted a spec programmable() rejects".into(),
                contract: format!("{spec:?}"),
                manifest: String::new(),
            });
            continue;
        };
        for _ in 0..intents_per_nic {
            let mask = (rng.below(255) + 1) as u32;
            let case_seed = rng.next_u64();
            match check_pair(&model, mask, case_seed) {
                Ok((roundtripped, tx_checked, served)) => {
                    report.layouts_negotiated += 1;
                    if served {
                        report.datapath_served += 1;
                    }
                    if roundtripped {
                        report.manifests_roundtripped += 1;
                    }
                    if tx_checked {
                        report.tx_checked += 1;
                    }
                }
                Err(_) => {
                    let min_mask = minimize_mask(&model, mask, case_seed);
                    let detail = check_pair(&model, min_mask, case_seed)
                        .err()
                        .unwrap_or_else(|| "failure did not reproduce under minimization".into());
                    let manifest = {
                        let mut reg = SemanticRegistry::with_builtins();
                        let intent = intent_from_mask(min_mask, &mut reg);
                        Compiler::default()
                            .compile_model(&model, &intent, &mut reg)
                            .map(|c| CompiledRx::new(c).manifest())
                            .unwrap_or_default()
                    };
                    report.divergences.push(Divergence {
                        seed: case_seed,
                        nic_idx,
                        intent_mask: min_mask,
                        detail,
                        contract: model.p4_source.clone(),
                        manifest,
                    });
                }
            }
        }
    }
    let (refused, slipped) = adversarial_refusals(&mut rng, 8);
    report.ebpf_refused = refused;
    if let Some(detail) = slipped {
        report.divergences.push(Divergence {
            seed,
            nic_idx: u64::MAX,
            intent_mask: 0,
            detail,
            contract: String::new(),
            manifest: String::new(),
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_seed_deterministic() {
        let a: Vec<ProgSpec> = {
            let mut r = Rng::new(7);
            (0..8).map(|i| gen_spec(&mut r, i)).collect()
        };
        let b: Vec<ProgSpec> = {
            let mut r = Rng::new(7);
            (0..8).map(|i| gen_spec(&mut r, i)).collect()
        };
        assert_eq!(a, b);
        let c: Vec<ProgSpec> = {
            let mut r = Rng::new(8);
            (0..8).map(|i| gen_spec(&mut r, i)).collect()
        };
        assert_ne!(a, c, "different seeds explore different specs");
    }

    #[test]
    fn every_generated_spec_is_programmable() {
        let mut rng = Rng::new(0xC0FFEE);
        for i in 0..64 {
            let spec = gen_spec(&mut rng, i);
            assert!(
                programmable(&spec).is_some(),
                "generator emitted invalid spec {i}: {spec:?}"
            );
        }
    }

    #[test]
    fn small_fuzz_run_is_clean() {
        let r = run(42, 8, 2);
        assert_eq!(r.layouts_negotiated, 16, "all pairs negotiate");
        assert_eq!(r.manifests_roundtripped, 16);
        assert!(r.ebpf_refused > 0, "adversarial sweep must refuse");
        if let Some(d) = r.divergences.first() {
            panic!("nic {} mask {:#b}: {}", d.nic_idx, d.intent_mask, d.detail);
        }
    }

    #[test]
    fn fuzz_run_is_deterministic() {
        let a = run(3, 4, 2);
        let b = run(3, 4, 2);
        assert_eq!(a.layouts_negotiated, b.layouts_negotiated);
        assert_eq!(a.ebpf_refused, b.ebpf_refused);
        assert_eq!(a.tx_checked, b.tx_checked);
    }
}
