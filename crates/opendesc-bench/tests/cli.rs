//! The `bench` binary's exit-status contract, driven through the
//! binary itself: 0 = every gated metric in band, 1 = a gate failed,
//! 2 = usage error, unknown experiment or unreadable record.

use std::path::Path;
use std::process::Command;

const REPO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn bench(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .env_remove("GITHUB_STEP_SUMMARY")
        .output()
        .expect("bench runs");
    let text =
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
    (out.status.code().expect("exit status"), text)
}

#[test]
fn committed_baselines_gate_clean_against_themselves() {
    let (code, text) = bench(&["gate", REPO, REPO]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("perf gate: PASS"));
    // Every experiment of the table contributed rows.
    for exp in opendesc_bench::EXPERIMENTS.iter() {
        assert!(text.contains(&format!("| {} |", exp.name)), "{}", exp.name);
    }
    // Absolute rows are shown, and only ever as information.
    assert!(text
        .lines()
        .filter(|l| l.contains("mpps |") || l.contains("batched_vs_e12_batched"))
        .all(|l| l.contains("info")));
}

#[test]
fn bad_invocations_exit_2() {
    for args in [
        &[][..],
        &["gate", REPO],
        &["gate", REPO, REPO, "e99"],
        &["gate", "/nonexistent", REPO, "e12"],
        &["gate", REPO, "/nonexistent", "e12"],
        &["run", "e99"],
        &["frobnicate"],
    ] {
        let (code, text) = bench(args);
        assert_eq!(code, 2, "{args:?}: {text}");
    }
}

#[test]
fn a_baseline_metric_missing_from_current_fails() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("gate-missing");
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = std::fs::read_to_string(Path::new(REPO).join("BENCH_e12.json")).unwrap();
    let key = "\"speedup_batched_vs_per_packet_e1000e\"";
    assert!(baseline.contains(key));
    std::fs::write(
        dir.join("BENCH_e12.json"),
        baseline.replace(key, "\"renamed\""),
    )
    .unwrap();
    let (code, text) = bench(&["gate", REPO, dir.to_str().unwrap(), "e12"]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("missing") && text.contains("FAIL"));
}
