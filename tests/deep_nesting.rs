//! Deeply nested contracts are refused or compiled, never a process
//! abort: an `else if` chain is a loop in the parser and one statement
//! with flat arms for every walker, expressions and blocks nest at most
//! 256 levels deep (an error diagnostic past that), and the context
//! solver checks a decided conjunct without a call per conjunct.
//!
//! Each case runs on a thread of `std::thread::spawn`'s default 2 MiB
//! stack, in the unoptimised build `cargo test` makes. A stack overflow
//! aborts the whole test binary, so these hold only if none happens.

use opendesc::compiler::{Compiler, Intent};
use opendesc::ir::{enumerate_paths, extract, names, PathError, SemanticRegistry};
use opendesc::nicsim::{qdma, QdmaLayout};
use opendesc::p4::{parse_and_check, Diagnostics};

/// `f` on a fresh thread with the default stack.
fn on_default_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f)
        .join()
        .expect("the thread neither overflows nor panics")
}

fn nesting_refused(diags: &Diagnostics) -> bool {
    diags.has_errors()
        && diags
            .iter()
            .any(|d| d.message.contains("nest deeper than 256"))
}

#[test]
fn a_hundred_thousand_open_parens_are_an_error() {
    let n = 100_000;
    let src = format!("const bit<8> K = {}1{};", "(".repeat(n), ")".repeat(n));
    let diags = on_default_thread(move || parse_and_check(&src).1);
    assert!(nesting_refused(&diags), "{}", diags.summary());
}

#[test]
fn a_hundred_thousand_bit_nots_are_an_error() {
    let src = format!("const bit<8> K = {}1;", "~".repeat(100_000));
    let diags = on_default_thread(move || parse_and_check(&src).1);
    assert!(nesting_refused(&diags), "{}", diags.summary());
}

/// A deparser whose `apply` is one `if`/`else if` chain of `arms` arms
/// over a 16-bit context field, each emitting the same header.
fn else_if_deparser(arms: usize) -> String {
    let mut src = String::from(
        "header a_t { @semantic(\"rss_hash\") bit<32> x; }\n\
         struct ctx_t { bit<16> n; }\n\
         struct m_t { a_t a; }\n\
         control C(cmpt_out o, in ctx_t ctx, in m_t m) {\n    apply {\n        ",
    );
    for i in 0..arms {
        if i > 0 {
            src.push_str(" else ");
        }
        src.push_str(&format!("if (ctx.n == {i}) {{ o.emit(m.a); }}"));
    }
    src.push_str(" else { }\n    }\n}\n");
    src
}

#[test]
fn a_twenty_thousand_arm_else_if_chain_checks() {
    let src = else_if_deparser(20_000);
    let diags = on_default_thread(move || parse_and_check(&src).1);
    assert!(!diags.has_errors(), "{}", diags.summary());
}

#[test]
fn a_long_else_if_chain_extracts_and_hits_the_path_cap() {
    let src = else_if_deparser(20_000);
    let enumerated = on_default_thread(move || {
        let (checked, diags) = parse_and_check(&src);
        assert!(!diags.has_errors(), "{}", diags.summary());
        let mut reg = SemanticRegistry::with_builtins();
        let cfg = extract(&checked, "C", &mut reg).expect("the chain extracts");
        enumerate_paths(&cfg, 4096).map(|p| p.len())
    });
    assert_eq!(enumerated, Err(PathError::TooManyPaths { limit: 4096 }));
}

#[test]
fn the_2048_layout_qdma_contract_compiles() {
    let compiled = on_default_thread(|| {
        // E6's provisioning: four semantic combinations, cycled.
        let pool: [&[(&str, u16)]; 4] = [
            &[("rss_hash", 32), ("pkt_len", 16)],
            &[("rss_hash", 32), ("ip_checksum", 16), ("vlan_tci", 16)],
            &[("flow_tag", 32), ("pkt_len", 16), ("rx_status", 16)],
            &[("timestamp", 64), ("rss_hash", 32), ("l4_checksum", 16)],
        ];
        let layouts: Vec<QdmaLayout> = (0..2048).map(|i| QdmaLayout::new(pool[i % 4])).collect();
        let model = qdma(&layouts).expect("layouts fit a size class");
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("e6")
            .want(&mut reg, names::RSS_HASH)
            .want(&mut reg, names::IP_CHECKSUM)
            .build();
        let iface = Compiler::default()
            .compile_model(&model, &intent, &mut reg)
            .expect("the contract compiles");
        (iface.paths_considered, iface.missing_features().len())
    });
    assert_eq!(compiled, (2049, 0));
}
