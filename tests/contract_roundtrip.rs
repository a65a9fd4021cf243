//! Contract normalization roundtrip: every shipped contract, printed by
//! the P4 pretty-printer and re-compiled, must produce an identical
//! compilation result — same paths, same selection, same accessors.

use opendesc::compiler::{Compiler, Intent};
use opendesc::ir::SemanticRegistry;
use opendesc::nicsim::models;
use opendesc::p4::parse_and_check;
use opendesc::p4::pretty::print_program;

#[test]
fn printed_contracts_compile_identically() {
    for model in models::catalog() {
        let (checked, d) = parse_and_check(&model.p4_source);
        assert!(!d.has_errors(), "{}", model.name);
        let printed = print_program(&checked.program);

        let mut reg1 = SemanticRegistry::with_builtins();
        let intent1 = Intent::from_p4(opendesc::compiler::FIG1_INTENT_P4, &mut reg1).unwrap();
        let a = Compiler::default()
            .compile(
                &model.p4_source,
                &model.deparser,
                &model.name,
                &intent1,
                &mut reg1,
            )
            .unwrap();

        let mut reg2 = SemanticRegistry::with_builtins();
        let intent2 = Intent::from_p4(opendesc::compiler::FIG1_INTENT_P4, &mut reg2).unwrap();
        let b = Compiler::default()
            .compile(&printed, &model.deparser, &model.name, &intent2, &mut reg2)
            .unwrap_or_else(|e| panic!("{}: printed contract fails: {e}\n{printed}", model.name));

        assert_eq!(a.paths_considered, b.paths_considered, "{}", model.name);
        assert_eq!(a.path.size_bytes(), b.path.size_bytes(), "{}", model.name);
        assert_eq!(a.missing_features(), b.missing_features(), "{}", model.name);
        // Accessor tables must be offset-identical.
        let offs = |c: &opendesc::compiler::CompiledInterface| -> Vec<(String, u32, u16)> {
            c.accessors
                .accessors
                .iter()
                .map(|x| (x.name.to_string(), x.offset_bits, x.width_bits))
                .collect()
        };
        assert_eq!(
            offs(&a),
            offs(&b),
            "{}: accessor tables diverge",
            model.name
        );
        // Context programming identical.
        assert_eq!(a.context, b.context, "{}", model.name);
    }
}

#[test]
fn printer_is_idempotent_on_all_contracts() {
    for model in models::catalog() {
        let (once, d1) = parse_and_check(&model.p4_source);
        assert!(!d1.has_errors());
        let p1 = print_program(&once.program);
        let (twice, d2) = parse_and_check(&p1);
        assert!(!d2.has_errors(), "{}:\n{p1}", model.name);
        let p2 = print_program(&twice.program);
        assert_eq!(p1, p2, "{}: printer not a fixpoint", model.name);
    }
}

#[test]
fn dot_rendering_works_for_all_contracts() {
    use opendesc::ir::{extract, SemanticRegistry};
    for model in models::catalog() {
        let (checked, _) = parse_and_check(&model.p4_source);
        let mut reg = SemanticRegistry::with_builtins();
        let cfg = extract(&checked, &model.deparser, &mut reg).unwrap();
        let dot = cfg.to_dot(&reg);
        assert!(dot.starts_with("digraph"), "{}", model.name);
        assert!(dot.contains("exit"), "{}", model.name);
    }
}
