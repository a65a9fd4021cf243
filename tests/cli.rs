//! End-to-end CLI tests: spawn the real `opendesc` binary.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_opendesc"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn models_lists_catalog() {
    let (stdout, _, ok) = run(&["models"]);
    assert!(ok);
    for m in ["e1000-legacy", "e1000e", "ixgbe", "ice", "mlx5", "qdma"] {
        assert!(stdout.contains(m), "missing {m}:\n{stdout}");
    }
}

#[test]
fn semantics_lists_alphabet() {
    let (stdout, _, ok) = run(&["semantics"]);
    assert!(ok);
    assert!(stdout.contains("rss_hash"));
    assert!(stdout.contains("∞"), "infinite costs rendered");
}

#[test]
fn compile_report_shows_fig6_decision() {
    let (stdout, _, ok) = run(&[
        "compile",
        "--nic",
        "e1000e",
        "--want",
        "rss_hash,ip_checksum",
    ]);
    assert!(ok);
    assert!(stdout.contains("ctx.use_rss = 0"), "{stdout}");
    assert!(
        stdout.contains("Missing features (SoftNIC fallback): rss_hash"),
        "{stdout}"
    );
}

#[test]
fn compile_emits_all_artifact_kinds() {
    for (emit, needle) in [
        ("rust", "CmptView"),
        ("c", "static inline"),
        ("manifest", r#""schema": "opendesc.manifest""#),
        ("ebpf", "verifier:"),
        ("dot", "digraph"),
    ] {
        let (stdout, stderr, ok) = run(&[
            "compile", "--nic", "mlx5", "--want", "rss_hash", "--emit", emit,
        ]);
        assert!(ok, "--emit {emit} failed: {stderr}");
        assert!(stdout.contains(needle), "--emit {emit}:\n{stdout}");
    }
}

#[test]
fn compile_from_contract_and_intent_files() {
    let dir = std::env::temp_dir().join("opendesc_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let contract = dir.join("nic.p4");
    let intent = dir.join("intent.p4");
    std::fs::write(
        &contract,
        r#"
        header h_t { @semantic("rss_hash") bit<32> rss; }
        struct c_t { bit<1> f; }
        struct m_t { h_t h; }
        control CmptDeparser(cmpt_out o, in c_t ctx, in m_t m) {
            apply { o.emit(m.h); }
        }
        "#,
    )
    .unwrap();
    std::fs::write(
        &intent,
        r#"header i_t { @semantic("rss_hash") bit<32> rss; }"#,
    )
    .unwrap();
    let (stdout, stderr, ok) = run(&[
        "compile",
        "--contract",
        contract.to_str().unwrap(),
        "--intent",
        intent.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("All requested features provided"),
        "{stdout}"
    );
}

#[test]
fn paths_enumerates_layouts() {
    let (stdout, _, ok) = run(&["paths", "--nic", "mlx5"]);
    assert!(ok);
    assert!(stdout.contains("4 completion path(s)"), "{stdout}");
}

#[test]
fn tx_reports_descriptor_layout() {
    let (stdout, _, ok) = run(&["tx", "--nic", "qdma", "--want", "tx_l4_csum_offload"]);
    assert!(ok);
    assert!(stdout.contains("h2c_ctx.desc_size = 16"), "{stdout}");
    assert!(stdout.contains("buf_addr"), "{stdout}");
}

#[test]
fn diff_shows_capability_gap() {
    let (stdout, _, ok) = run(&["diff", "--nic", "mlx5", "--nic-b", "e1000-legacy"]);
    assert!(ok);
    assert!(stdout.contains("only mlx5"), "{stdout}");
    assert!(stdout.contains("timestamp"), "{stdout}");
}

#[test]
fn fmt_roundtrips_through_the_cli() {
    let (stdout, _, ok) = run(&["fmt", "--nic", "ixgbe"]);
    assert!(ok);
    assert!(stdout.contains("control CmptDeparser"), "{stdout}");
    // The formatted output must itself be a valid contract.
    let dir = std::env::temp_dir().join("opendesc_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let f = dir.join("fmt.p4");
    std::fs::write(&f, &stdout).unwrap();
    let (_, stderr, ok2) = run(&["paths", "--contract", f.to_str().unwrap()]);
    assert!(ok2, "formatted contract must re-parse: {stderr}");
}

#[test]
fn errors_exit_nonzero_with_message() {
    let (_, stderr, ok) = run(&["compile", "--nic", "nope", "--want", "rss_hash"]);
    assert!(!ok);
    assert!(stderr.contains("unknown model"), "{stderr}");

    let (_, stderr, ok) = run(&["compile", "--nic", "e1000e", "--want", "timestamp"]);
    assert!(!ok);
    assert!(stderr.contains("unsatisfiable"), "{stderr}");

    let (_, stderr, ok) = run(&["bogus-subcommand"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");
}

#[test]
fn help_prints_usage() {
    let (stdout, _, ok) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"), "{stdout}");
}
