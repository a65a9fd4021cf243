//! Whole-pipeline robustness: arbitrary inputs may fail with errors but
//! must never panic any stage (parse → check → extract → enumerate →
//! select → synthesize → codegen).

use opendesc::compiler::{CompiledRx, Compiler, Intent};
use opendesc::ir::SemanticRegistry;
use opendesc::nicsim::models;
use proptest::prelude::*;

const BASE: &str = r#"
header a_t { @semantic("rss_hash") bit<32> rss; }
header b_t {
    @semantic("ip_checksum") bit<16> csum;
    @semantic("pkt_len") bit<16> len;
}
struct ctx_t { bit<2> fmt; }
struct m_t { a_t a; b_t b; }
control CmptDeparser(cmpt_out o, in ctx_t ctx, in m_t m) {
    apply {
        switch (ctx.fmt) {
            0: { o.emit(m.a); }
            1: { o.emit(m.b); }
            default: { o.emit(m.a); o.emit(m.b); }
        }
    }
}
"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Mutated contracts never panic the full compile pipeline.
    #[test]
    fn compile_total_on_mutated_contracts(
        pos in 0usize..600,
        replacement in "\\PC{0,8}",
    ) {
        let mut s: Vec<char> = BASE.chars().collect();
        let at = pos.min(s.len());
        let end = (at + replacement.chars().count()).min(s.len());
        s.splice(at..end, replacement.chars());
        let mutated: String = s.into_iter().collect();

        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("fuzz")
            .want(&mut reg, "rss_hash")
            .want(&mut reg, "ip_checksum")
            .build();
        // Must not panic; errors are fine.
        if let Ok(compiled) = Compiler::default()
            .compile(&mutated, "CmptDeparser", "fuzz", &intent, &mut reg)
            .map(CompiledRx::new)
        {
            // Surviving mutants must still produce coherent artifacts.
            let _ = compiled.report();
            let _ = compiled.rust_source();
            let _ = compiled.c_header();
            let _ = compiled.manifest();
            if let Ok(progs) = compiled.ebpf_programs() {
                for (_, p) in progs {
                    // Generated programs from ANY accepted contract must
                    // still verify.
                    opendesc::ebpf::verify(&p).expect("generated program must verify");
                }
            }
        }
    }

    /// Random intent subsets over every catalog model never panic; when
    /// compilation succeeds, the eBPF programs verify.
    #[test]
    fn compile_total_on_random_intents(
        model_idx in 0usize..6,
        picks in proptest::collection::vec(0usize..14, 1..6),
    ) {
        const SEMS: [&str; 14] = [
            "rss_hash", "ip_checksum", "l4_checksum", "vlan_tci", "timestamp",
            "pkt_len", "packet_type", "flow_tag", "ip_id", "payload_offset",
            "kvs_key_hash", "queue_hint", "rx_status", "crypto_ctx",
        ];
        let model = &models::catalog()[model_idx];
        let mut reg = SemanticRegistry::with_builtins();
        let mut b = Intent::builder("rand");
        let mut seen = std::collections::BTreeSet::new();
        for p in picks {
            if seen.insert(p) {
                b = b.want(&mut reg, SEMS[p]);
            }
        }
        let intent = b.build();
        if let Ok(compiled) = Compiler::default().compile_model(model, &intent, &mut reg) {
            // Selection optimality: the winner's objective is minimal
            // among configurable candidates.
            let best = compiled.selection.best.objective;
            for s in &compiled.selection.ranking {
                if s.context.is_ok() {
                    prop_assert!(
                        best <= s.objective + 1e-9,
                        "{}: picked {} but {} is better",
                        model.name, best, s.objective
                    );
                }
            }
            if let Ok(progs) = compiled.ebpf_programs() {
                for (_, p) in progs {
                    opendesc::ebpf::verify(&p).expect("verify");
                }
            }
        }
    }
}
