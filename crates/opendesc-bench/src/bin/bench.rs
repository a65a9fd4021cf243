//! The one bench runner: measures the E1–E20 records and gates them.
//!
//! ```text
//! bench run  [eNN…] [OUTDIR]     measure, assert floors, write OUTDIR/BENCH_eNN.json
//! bench gate BASE CUR [eNN…]     compare CUR/BENCH_eNN.json against BASE/BENCH_eNN.json
//! ```
//!
//! Experiments default to the whole table
//! (`opendesc_bench::EXPERIMENTS`), which is also where every band and
//! floor is written. `run` re-measures an experiment up to its
//! `attempts` while a floor misses, prints the record, and exits 1
//! without writing it if a floor still misses. OUTDIR defaults to
//! `target/bench-current`; the committed baselines live in the repo
//! root, so regenerating them means naming `.` explicitly.
//!
//! `gate` prints the comparison table and, when `$GITHUB_STEP_SUMMARY`
//! is set, appends it there. Absolute rows (Mpps, wall-clock µs/ns,
//! constant-denominator ratios) are shown and never gated. Exit status: 0 when every gated
//! metric is within band and above its floor, 1 otherwise, 2 on usage
//! errors, unknown experiment names and unreadable records (including a
//! record of another schema or version, or one that names no `identity`
//! columns).

use opendesc_bench::{all_pass, compare, markdown_table, read_record, Experiment, EXPERIMENTS};
use std::process::ExitCode;

const USAGE: &str = "usage: bench run [eNN…] [OUTDIR]\n       bench gate BASE CUR [eNN…]";

/// `names` as table entries (all of them when empty).
fn experiments(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if names.is_empty() {
        return Ok(EXPERIMENTS.iter().collect());
    }
    names
        .iter()
        .map(|n| Experiment::by_name(n).ok_or(format!("unknown experiment {n}")))
        .collect()
}

fn run(args: &[String]) -> Result<bool, String> {
    // Anything shaped like an experiment name is one (so a typo is an
    // error, not a directory); one other trailing argument is OUTDIR.
    let is_name = |a: &String| {
        a.len() > 1 && a.starts_with('e') && a[1..].chars().all(|c| c.is_ascii_digit())
    };
    let (names, rest) = args.split_at(args.iter().take_while(|a| is_name(a)).count());
    let outdir = match rest {
        [] => "target/bench-current",
        [dir] => dir.as_str(),
        _ => return Err(USAGE.into()),
    };
    let experiments = experiments(names)?;
    std::fs::create_dir_all(outdir).map_err(|e| format!("{outdir}: {e}"))?;
    for exp in experiments {
        let (rec, missed) = exp.run();
        println!("{}: {}", exp.name.to_uppercase(), exp.title);
        print!("{}", rec.table());
        for m in &missed {
            let kind = if m.gated {
                "acceptance"
            } else {
                "advisory (absolute)"
            };
            eprintln!(
                "{kind}: {} {} = {:.4} misses its floor {}",
                exp.name,
                m.metric,
                m.current,
                m.gate.floor.unwrap_or(f64::NAN)
            );
        }
        if missed.iter().any(|m| m.gated) {
            return Ok(false);
        }
        let path = format!("{outdir}/BENCH_{}.json", exp.name);
        std::fs::write(&path, rec.to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}\n");
    }
    Ok(true)
}

/// `dir/BENCH_{exp}.json` as the gate reads it (see
/// [`opendesc_bench::flatten`]); a record of another schema or version,
/// or one that names no identity columns, is refused like an unreadable
/// one.
fn load(dir: &str, exp: &str) -> Result<Vec<(String, f64)>, String> {
    let path = format!("{dir}/BENCH_{exp}.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    read_record(&path, &text)
}

fn gate(args: &[String]) -> Result<bool, String> {
    let [base, cur, names @ ..] = args else {
        return Err(USAGE.into());
    };
    let mut results = Vec::new();
    for exp in experiments(names)? {
        let baseline = load(base, exp.name).map_err(|e| format!("baseline {e}"))?;
        let current = load(cur, exp.name).map_err(|e| format!("current {e}"))?;
        results.extend(compare(exp, &baseline, &current));
    }
    let pass = all_pass(&results);
    let verdict = if pass {
        "**perf gate: PASS** — every gated metric within its band"
    } else {
        "**perf gate: FAIL** — at least one gated metric regressed past its band"
    };
    let report = format!("## Perf gate\n\n{}\n{verdict}", markdown_table(&results));
    println!("{report}");
    if let Ok(summary) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(&summary) {
            let _ = writeln!(f, "{report}");
        }
    }
    Ok(pass)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "gate" => gate(rest),
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
