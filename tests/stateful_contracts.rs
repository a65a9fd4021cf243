//! §5 "Stateful offloads": externs and registers are *descriptive* in
//! OpenDesc — they document a stateful feature's existence without being
//! mapped to host resources. These tests pin down that contracts using
//! them flow through the whole pipeline, and that opaque conditions
//! (e.g. `hdr.isValid()`) degrade gracefully to manually-configured
//! layouts rather than failing compilation.

use opendesc::compiler::{Compiler, Intent};
use opendesc::ir::{Cost, SemanticRegistry};

/// A BlueField-flavored contract: a stateful connection tracker lives in
/// an extern; its per-packet verdict reaches the host as the
/// `conn_state` semantic in an extended completion.
const STATEFUL_CONTRACT: &str = r#"
// The stateful feature itself is opaque to OpenDesc — the extern is a
// description, not an implementation mapping (§5).
extern conn_tracker {
    void advance(in bit<32> flow_hash);
}

header base_cmpt_t {
    @semantic("rss_hash") bit<32> rss;
    @semantic("pkt_len")  bit<16> len;
    @semantic("rx_status") bit<16> status;
}
header ct_cmpt_t {
    @semantic("conn_state") bit<8> ct_state;
    bit<8> pad0;
    @semantic("flow_tag") bit<32> flow;
    bit<16> pad1;
}
struct ctx_t { bit<1> ct_enable; }
struct meta_t { base_cmpt_t base; ct_cmpt_t ct; }

control CmptDeparser(cmpt_out cmpt, in ctx_t ctx, in meta_t pipe_meta) {
    apply {
        cmpt.emit(pipe_meta.base);
        if (ctx.ct_enable == 1) {
            cmpt.emit(pipe_meta.ct);
        }
    }
}
"#;

#[test]
fn extern_bearing_contract_compiles() {
    let mut reg = SemanticRegistry::with_builtins();
    // `conn_state` is a custom stateful semantic: software cannot
    // recompute connection state, so its fallback cost is infinite.
    let intent = Intent::builder("ct_app")
        .want_custom(&mut reg, "conn_state", 8, Cost::Infinite)
        .want(&mut reg, "rss_hash")
        .build();
    let compiled = Compiler::default()
        .compile(
            STATEFUL_CONTRACT,
            "CmptDeparser",
            "bf-ct",
            &intent,
            &mut reg,
        )
        .expect("stateful contract compiles");
    // Only the ct-enabled path provides conn_state; context must enable it.
    assert!(
        compiled.missing_features().is_empty(),
        "{}",
        compiled.report()
    );
    let ctx = compiled.context.as_ref().unwrap();
    let (f, v) = ctx.iter().next().unwrap();
    assert_eq!(f.dotted(), "ctx.ct_enable");
    assert_eq!(*v, 1);
    assert_eq!(compiled.path.size_bytes(), 16);
}

#[test]
fn stateful_semantic_unavailable_elsewhere_is_unsatisfiable() {
    let mut reg = SemanticRegistry::with_builtins();
    let intent = Intent::builder("ct_app")
        .want_custom(&mut reg, "conn_state", 8, Cost::Infinite)
        .build();
    let err = Compiler::default()
        .compile_model(&opendesc::nicsim::models::e1000e(), &intent, &mut reg)
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("conn_state"), "{msg}");
}

/// Validity-dependent emission: the condition is opaque to the symbolic
/// layer, so the path exists but needs manual context configuration.
const VALIDITY_CONTRACT: &str = r#"
header opt_cmpt_t { @semantic("vlan_tci") bit<16> vlan; bit<16> pad0; }
header base_cmpt_t { @semantic("pkt_len") bit<16> len; bit<16> pad0; }
struct ctx_t { bit<1> r; }
struct meta_t { opt_cmpt_t opt; base_cmpt_t base; }
control CmptDeparser(cmpt_out cmpt, in ctx_t ctx, in meta_t pipe_meta) {
    apply {
        cmpt.emit(pipe_meta.base);
        if (pipe_meta.opt.isValid()) {
            cmpt.emit(pipe_meta.opt);
        }
    }
}
"#;

#[test]
fn opaque_validity_condition_degrades_to_manual_context() {
    let mut reg = SemanticRegistry::with_builtins();
    let intent = Intent::builder("i").want(&mut reg, "vlan_tci").build();
    let compiled = Compiler::default()
        .compile(VALIDITY_CONTRACT, "CmptDeparser", "opt", &intent, &mut reg)
        .expect("opaque-guard contracts still compile");
    // Two paths enumerated; the vlan-bearing one wins on software cost
    // but cannot be auto-configured.
    assert_eq!(compiled.paths_considered, 2);
    let vlan = reg.id("vlan_tci").unwrap();
    if compiled.selection.best.provided.contains(&vlan) {
        assert!(
            compiled.context.is_none(),
            "isValid guard cannot be solved: {}",
            compiled.report()
        );
        assert!(
            compiled.report().contains("MANUAL"),
            "{}",
            compiled.report()
        );
    } else {
        // Alternative legal outcome: the selector preferred the
        // configurable path and fell back to software vlan.
        assert!(compiled.context.is_some());
    }
}

/// A deparser branching on a per-packet metadata field: `pipe_meta` is
/// an `in` parameter, but `pipe_meta.base.len` lies in a header — a
/// value the device computes per frame, not a queue setting.
const PER_PACKET_CONTRACT: &str = r#"
header opt_cmpt_t { @semantic("vlan_tci") bit<16> vlan; bit<16> pad0; }
header base_cmpt_t { @semantic("pkt_len") bit<16> len; bit<16> pad0; }
struct ctx_t { bit<1> r; }
struct meta_t { opt_cmpt_t opt; base_cmpt_t base; }
control CmptDeparser(cmpt_out cmpt, in ctx_t ctx, in meta_t pipe_meta) {
    apply {
        cmpt.emit(pipe_meta.base);
        if (pipe_meta.base.len == 64) {
            cmpt.emit(pipe_meta.opt);
        }
    }
}
"#;

#[test]
fn a_per_packet_field_is_never_programmed_as_context() {
    let mut reg = SemanticRegistry::with_builtins();
    let intent = Intent::builder("i").want(&mut reg, "vlan_tci").build();
    let compiled = Compiler::default()
        .compile(PER_PACKET_CONTRACT, "CmptDeparser", "pp", &intent, &mut reg)
        .expect("an opaque branch still compiles");
    let vlan = reg.id("vlan_tci").unwrap();
    assert!(compiled.selection.best.provided.contains(&vlan));
    assert!(
        compiled.context.is_none(),
        "no queue setting selects a per-packet branch: {}",
        compiled.report()
    );
    assert!(
        compiled.report().contains("MANUAL"),
        "{}",
        compiled.report()
    );
}

#[test]
fn register_like_contract_with_cost_annotations() {
    // An intent re-pricing a custom stateful feature via @cost: the
    // application asserts it CAN emulate the state in software (e.g. a
    // host-side conntrack) at a known price.
    let mut reg = SemanticRegistry::with_builtins();
    let intent = Intent::from_p4(
        r#"
        header ct_intent_t {
            @semantic("conn_state") @cost(180) bit<8> ct_state;
            @semantic("rss_hash") bit<32> rss;
        }
        "#,
        &mut reg,
    )
    .unwrap();
    // On a NIC without conn_state the compiler now accepts software
    // fallback at 180 ns instead of rejecting.
    let compiled = Compiler::default()
        .compile_model(&opendesc::nicsim::models::mlx5(), &intent, &mut reg)
        .expect("re-priced stateful semantic is satisfiable in software");
    assert_eq!(compiled.missing_features(), vec!["conn_state"]);
    assert!((compiled.selection.best.software_cost_ns - 180.0).abs() < 1e-9);
}
