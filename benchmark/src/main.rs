//! The OpenDesc benchmark. See `README.md` beside this package for the
//! workloads, the metrics and how every timing is taken.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark compare A.jsonl B.jsonl
//! ```

mod alloc;
mod clock;
mod compare;
mod engine;
mod json;
mod metrics;
mod negotiate;
mod oracle;
mod packet;
mod run;
mod trace;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: benchmark --workload <rx_hw|rx_sw|rx_faulty|fwd|fwd_2q|negotiate> \
[--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       benchmark compare A.jsonl B.jsonl";

/// Results land beside the package unless `--out` says otherwise.
const DEFAULT_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out/results.jsonl");
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => compare_files(&argv[1..]),
        _ => measure(&argv),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(3)
        }
    }
}

fn compare_files(files: &[String]) -> Result<ExitCode, String> {
    let [a, b] = files else {
        return Err(USAGE.into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, outcome) = compare::compare(&read(a)?, &read(b)?, &read(BENCHMARK_JSON)?)?;
    print!("{table}");
    Ok(ExitCode::from(outcome.exit_code() as u8))
}

fn parse(argv: &[String]) -> Result<(run::Args, PathBuf), String> {
    let mut args = run::Args {
        workload: String::new(),
        seed: 11,
        seconds: 5,
        trace: false,
    };
    let mut out = PathBuf::from(DEFAULT_OUT);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if args.workload.is_empty() {
        return Err(USAGE.into());
    }
    Ok((args, out))
}

fn measure(argv: &[String]) -> Result<ExitCode, String> {
    let (args, out) = parse(argv)?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rep = run::run(&args)?;

    println!(
        "workload {} seed {} seconds {} trace {} | {}; closed loop, one generator thread; \
         no link, no loopback | cores {cores} threads {} parallel {}",
        rep.workload,
        rep.seed,
        rep.secs,
        rep.trace as u8,
        metrics::LINK,
        rep.threads,
        rep.parallel,
    );
    if rep.workload == run::UNGATED {
        println!(
            "note: {} is not in BENCHMARK.json; see the README",
            run::UNGATED
        );
    }
    print!("{}", rep.table());
    println!(
        "verification: attempted {} failed {} noise {:.3}",
        rep.attempted, rep.failed, rep.noise
    );
    if let Err(e) = write_files(&rep, &out, cores) {
        eprintln!("benchmark: results not written: {e}");
    }
    if !rep.correct() {
        for e in &rep.examples {
            eprintln!("benchmark: {}: {e}", rep.workload);
        }
        return Err(format!(
            "{}: {} of {} operations failed verification",
            rep.workload, rep.failed, rep.attempted
        ));
    }
    println!("{}", rep.result_line());
    Ok(ExitCode::SUCCESS)
}

/// Append the record to the results file and, for a traced run, write
/// the spans to `trace.json` beside it.
fn write_files(rep: &metrics::Report, out: &Path, cores: usize) -> std::io::Result<()> {
    let dir = out.parent().unwrap_or(Path::new("."));
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out)?;
    writeln!(f, "{}", rep.record(&revision(), cores))?;
    if let Some(spans) = &rep.spans_json {
        let mut o = json::Obj::new();
        o.str("workload", rep.workload)
            .num("seed", rep.seed as f64)
            .str("link", metrics::LINK)
            .str("clock", "nanoseconds since the tracer was created")
            .raw("spans", spans);
        std::fs::write(dir.join("trace.json"), o.finish())?;
    }
    Ok(())
}

/// Git revision of the tree the binary was built from, read straight
/// from `.git` (the driver's checkouts have none: "unknown").
fn revision() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.chars().take(12).collect();
    };
    let packed = || {
        read(git.join("packed-refs"))?
            .lines()
            .find_map(|l| l.strip_suffix(name).map(|hash| hash.trim().to_string()))
    };
    read(git.join(name))
        .or_else(packed)
        .map_or("unknown".into(), |h| h.trim().chars().take(12).collect())
}
