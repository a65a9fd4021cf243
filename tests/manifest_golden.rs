//! Golden-manifest snapshots: the negotiated contract for the Fig. 1
//! intent on each RX catalog model, pinned under `manifests/`.
//!
//! A diff here means the compiler now negotiates a *different
//! interface* (layout choice, context programming, accessor table, or
//! artifact digests changed) — that must be a deliberate, reviewed
//! change. Regenerate with `cargo run --release -- manifests` and
//! commit the result; CI runs the same regenerate-and-diff as a
//! separate job step.

use opendesc::compiler::codegen::manifest::ManifestV1;
use opendesc::compiler::{CompiledRx, Compiler, Intent, FIG1_INTENT_P4};
use opendesc::ir::SemanticRegistry;
use opendesc::nicsim::models;

const GOLDEN: [&str; 4] = ["e1000e", "ixgbe", "mlx5", "qdma"];

fn generate(name: &str) -> String {
    let model = models::catalog()
        .into_iter()
        .find(|m| m.name == name)
        .expect("golden model exists in catalog");
    let mut reg = SemanticRegistry::with_builtins();
    let intent = Intent::from_p4(FIG1_INTENT_P4, &mut reg).unwrap();
    CompiledRx::new(
        Compiler::default()
            .compile_model(&model, &intent, &mut reg)
            .unwrap(),
    )
    .manifest()
}

#[test]
fn committed_golden_manifests_match_compiler_output() {
    for name in GOLDEN {
        let path = format!("{}/manifests/{name}.json", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{path}: {e}; run `cargo run --release -- manifests`"));
        let fresh = generate(name);
        assert_eq!(
            fresh, committed,
            "{name}: golden manifest drift — regenerate with `cargo run --release -- manifests` and review the diff"
        );
    }
}

#[test]
fn golden_manifests_parse_under_the_v1_schema() {
    for name in GOLDEN {
        let path = format!("{}/manifests/{name}.json", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&path).expect("golden file present");
        let m = ManifestV1::parse(&committed)
            .unwrap_or_else(|e| panic!("{name}: committed golden does not parse: {e}"));
        assert_eq!(m.nic, name);
        assert_eq!(
            m.render(),
            committed,
            "{name}: golden not in canonical form"
        );
    }
}
