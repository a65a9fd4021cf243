//! Property tests for the versioned manifest contract.
//!
//! Two guarantees: (1) `render → parse` is lossless for *arbitrary*
//! manifest structs — including hostile strings and awkward floats —
//! and `generate → parse → render` is byte-stable, each text being the
//! JSON layer's own rendering of itself; (2) compiling the
//! same (model, intent) twice from fresh registries produces
//! byte-identical manifests (the contract is deterministic, so golden
//! files and digest pins are meaningful).

use opendesc::compiler::codegen::manifest::{
    generate, ContextProgramming, ManifestAccessor, ManifestAccessorKind, ManifestCost,
    ManifestSlot, ManifestV1,
};
use opendesc::compiler::{Compiler, Intent};
use opendesc::ir::SemanticRegistry;
use opendesc::nicsim::models;
use opendesc::telemetry::parse_json;
use proptest::prelude::*;

/// Finite f64s built from integer sixteenths: exactly representable, so
/// the shortest-round-trip rendering must survive `parse::<f64>`.
fn arb_ns() -> impl Strategy<Value = f64> {
    (0u32..16_000_000).prop_map(|v| v as f64 / 16.0)
}

fn arb_cost() -> impl Strategy<Value = ManifestCost> {
    prop_oneof![
        (arb_ns(), arb_ns()).prop_map(|(base_ns, per_byte_ns)| ManifestCost::Finite {
            base_ns,
            per_byte_ns
        }),
        Just(ManifestCost::Infinite),
    ]
}

/// `proptest::option::of` substitute for the vendored proptest.
fn opt<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), s).prop_map(|(some, v)| some.then_some(v))
}

fn arb_accessor() -> impl Strategy<Value = ManifestAccessor<'static>> {
    (
        "\\PC{0,24}",
        "[a-z_]{1,16}",
        1u16..=128,
        prop_oneof![
            (0u32..4096).prop_map(|offset_bits| ManifestAccessorKind::Hardware { offset_bits }),
            arb_cost().prop_map(|cost| ManifestAccessorKind::Software { cost }),
        ],
    )
        .prop_map(|(name, semantic, width_bits, kind)| ManifestAccessor {
            name: name.into(),
            semantic: semantic.into(),
            width_bits,
            kind,
        })
}

fn arb_slot() -> impl Strategy<Value = ManifestSlot<'static>> {
    (
        "\\PC{0,24}",
        "\\PC{0,24}",
        opt("[a-z_]{1,16}"),
        0u32..4096,
        1u16..=128,
    )
        .prop_map(
            |(name, source, semantic, offset_bits, width_bits)| ManifestSlot {
                name: name.into(),
                source: source.into(),
                semantic: semantic.map(Into::into),
                offset_bits,
                width_bits,
            },
        )
}

fn arb_context() -> impl Strategy<Value = ContextProgramming<'static>> {
    prop_oneof![
        proptest::collection::vec(("\\PC{1,24}", any::<u128>()), 0..4).prop_map(|writes| {
            ContextProgramming::Programmed(writes.into_iter().map(|(k, v)| (k.into(), v)).collect())
        }),
        Just(ContextProgramming::Manual),
    ]
}

fn arb_manifest() -> impl Strategy<Value = ManifestV1<'static>> {
    (
        (
            "\\PC{0,32}",
            "\\PC{0,32}",
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            // Hostile guard strings: escapes, quotes, unicode.
            prop_oneof!["\\PC{0,48}", Just("a\"b\\c\nd\te".to_string())],
            any::<u32>(),
        ),
        (
            any::<u64>(),
            opt(any::<u64>()),
            arb_context(),
            proptest::collection::vec(arb_slot(), 0..4),
            proptest::collection::vec(arb_accessor(), 0..4),
        ),
    )
        .prop_map(
            |(
                (
                    nic,
                    intent,
                    registry_fingerprint,
                    completion_bytes,
                    selected_path,
                    paths_considered,
                    guard,
                    layout_bits,
                ),
                (shim_plan_digest, odbc_bytecode, context, slots, accessors),
            )| ManifestV1 {
                nic: nic.into(),
                intent: intent.into(),
                registry_fingerprint,
                completion_bytes,
                selected_path,
                paths_considered,
                guard: guard.into(),
                layout_bits,
                shim_plan_digest,
                odbc_bytecode,
                context,
                slots,
                accessors,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lossless round-trip: any manifest struct survives
    /// `render → parse` exactly, and a second render is byte-identical.
    #[test]
    fn render_parse_is_lossless(m in arb_manifest()) {
        let s = m.render();
        let back = ManifestV1::parse(&s)
            .map_err(|e| TestCaseError::fail(format!("{e}\n--- in ---\n{s}")))?;
        prop_assert_eq!(&back, &m, "struct round-trip");
        prop_assert_eq!(back.render(), s.clone(), "render is a fixed point");
        let doc = parse_json(&s).map_err(TestCaseError::fail)?;
        prop_assert_eq!(doc.render(), s, "the text is the JSON layer's rendering");
    }
}

/// `generate → parse → render` is byte-stable for every catalog model.
#[test]
fn generated_manifests_round_trip_on_all_models() {
    for model in models::catalog() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::from_p4(opendesc::compiler::intent::FIG1_INTENT_P4, &mut reg).unwrap();
        let compiled = Compiler::default()
            .compile_model(&model, &intent, &mut reg)
            .unwrap();
        let s = generate(&compiled);
        let parsed = ManifestV1::parse(&s).unwrap_or_else(|e| {
            panic!(
                "{}: generated manifest does not parse: {e}\n{s}",
                model.name
            )
        });
        assert_eq!(parsed.render(), s, "{}: unstable round-trip", model.name);
        assert_eq!(
            parse_json(&s).map(|doc| doc.render()),
            Ok(s),
            "{}: not the JSON layer's rendering",
            model.name
        );
    }
}

/// Determinism: two independent compilations of the same (model,
/// intent) — fresh registries, fresh compiler — produce byte-identical
/// manifests.
#[test]
fn equal_interfaces_render_identical_manifests() {
    for model in models::catalog() {
        let render = || {
            let mut reg = SemanticRegistry::with_builtins();
            let intent =
                Intent::from_p4(opendesc::compiler::intent::FIG1_INTENT_P4, &mut reg).unwrap();
            let compiled = Compiler::default()
                .compile_model(&model, &intent, &mut reg)
                .unwrap();
            generate(&compiled)
        };
        assert_eq!(
            render(),
            render(),
            "{}: nondeterministic manifest",
            model.name
        );
    }
}
