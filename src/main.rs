//! `opendesc` — the OpenDesc compiler CLI.
//!
//! ```text
//! opendesc models                                   list built-in NIC models
//! opendesc contract --nic mlx5                      print a model's P4 contract
//! opendesc paths --nic mlx5                         enumerate completion layouts
//! opendesc compile --nic e1000e --want rss_hash,ip_checksum [--emit report|rust|c|ebpf|dot|manifest]
//! opendesc compile --contract nic.p4 --deparser CmptDeparser --intent intent.p4
//! opendesc semantics                                list the semantic alphabet Σ
//! ```

use opendesc::compiler::{CompiledRx, Compiler, Intent, Selector};
use opendesc::ir::{enumerate_paths, extract, SemanticRegistry, DEFAULT_MAX_PATHS};
use opendesc::nicsim::{models, NicModel};
use opendesc::p4::parse_and_check;
use std::process::ExitCode;

fn main() -> ExitCode {
    // Exit quietly when stdout closes under us (`opendesc ... | head`):
    // Rust raises a "failed printing to stdout: Broken pipe" panic where
    // a C tool would die on SIGPIPE.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let broken_pipe = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("Broken pipe"));
        if broken_pipe {
            std::process::exit(0);
        }
        default_hook(info);
    }));

    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = Opts::parse(&args[1..]);
    let r = match cmd.as_str() {
        "models" => cmd_models(),
        "semantics" => cmd_semantics(),
        "contract" => cmd_contract(&opts),
        "paths" => cmd_paths(&opts),
        "compile" => cmd_compile(&opts),
        "fmt" => cmd_fmt(&opts),
        "diff" => cmd_diff(&opts),
        "tx" => cmd_tx(&opts),
        "manifests" => cmd_manifests(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
opendesc — declarative NIC descriptor interfaces (HotNets '25)

USAGE:
  opendesc models                         list built-in NIC models
  opendesc semantics                      list the semantic alphabet Σ
  opendesc contract --nic <model>         print a model's P4 contract
  opendesc paths    --nic <model>         enumerate completion layouts
  opendesc compile  (--nic <model> | --contract <file.p4> --deparser <name>)
                    (--want <sem,sem,...> | --intent <file.p4>)
                    [--emit report|rust|c|ebpf|dot|manifest] [--beta <ns-per-byte>]
  opendesc tx       --nic <model> --want <sem,...>   compile the TX direction
  opendesc fmt      (--nic <model> | --contract <file.p4>)   normalize a contract
  opendesc diff     --nic <a> --nic-b <b>            capability diff of two models
  opendesc manifests [--out <dir>]        write the golden manifests, <dir>/<model>.json (default manifests/)
";

#[derive(Default)]
struct Opts {
    nic: Option<String>,
    contract: Option<String>,
    deparser: Option<String>,
    want: Option<String>,
    intent: Option<String>,
    emit: String,
    beta: Option<f64>,
    nic_b: Option<String>,
    out: Option<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut o = Opts {
            emit: "report".into(),
            ..Default::default()
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut val = || it.next().cloned();
            match a.as_str() {
                "--nic" => o.nic = val(),
                "--contract" => o.contract = val(),
                "--deparser" => o.deparser = val(),
                "--want" => o.want = val(),
                "--intent" => o.intent = val(),
                "--emit" => o.emit = val().unwrap_or_else(|| "report".into()),
                "--beta" => o.beta = val().and_then(|v| v.parse().ok()),
                "--nic-b" => o.nic_b = val(),
                "--out" => o.out = val(),
                _ => {}
            }
        }
        o
    }
}

fn find_model(name: &str) -> Result<NicModel, String> {
    models::catalog()
        .into_iter()
        .find(|m| m.name == name)
        .ok_or_else(|| {
            format!(
                "unknown model `{name}`; available: {}",
                models::catalog()
                    .iter()
                    .map(|m| m.name.clone())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
}

fn cmd_models() -> Result<(), String> {
    println!("{:<14} {:>9}  description", "model", "cmpt(B)");
    for m in models::catalog() {
        println!(
            "{:<14} {:>9}  {}",
            m.name, m.completion_slot_bytes, m.description
        );
    }
    Ok(())
}

fn cmd_semantics() -> Result<(), String> {
    let reg = SemanticRegistry::with_builtins();
    println!(
        "{:<22} {:>6} {:>18}  description",
        "semantic", "bits", "software cost"
    );
    for (_, info) in reg.iter() {
        println!(
            "{:<22} {:>6} {:>18}  {}",
            info.name,
            info.width_bits,
            format!("{}", info.cost),
            info.doc
        );
    }
    Ok(())
}

fn cmd_contract(o: &Opts) -> Result<(), String> {
    let name = o.nic.as_deref().ok_or("--nic required")?;
    let m = find_model(name)?;
    println!("{}", m.p4_source);
    Ok(())
}

fn load_contract(o: &Opts) -> Result<(String, String, String), String> {
    if let Some(nic) = &o.nic {
        let m = find_model(nic)?;
        return Ok((m.p4_source, m.deparser, m.name));
    }
    let file = o
        .contract
        .as_deref()
        .ok_or("--nic or --contract required")?;
    let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let dep = o.deparser.clone().unwrap_or_else(|| "CmptDeparser".into());
    Ok((src, dep, file.to_string()))
}

fn cmd_paths(o: &Opts) -> Result<(), String> {
    let (src, deparser, name) = load_contract(o)?;
    let (checked, diags) = parse_and_check(&src);
    if diags.has_errors() {
        return Err(format!(
            "contract errors:\n{}",
            diags
                .iter()
                .map(|d| d.message.clone())
                .collect::<Vec<_>>()
                .join("\n")
        ));
    }
    let mut reg = SemanticRegistry::with_builtins();
    let cfg = extract(&checked, &deparser, &mut reg).map_err(|d| {
        d.iter()
            .map(|x| x.message.clone())
            .collect::<Vec<_>>()
            .join("\n")
    })?;
    let paths = enumerate_paths(&cfg, DEFAULT_MAX_PATHS).map_err(|e| e.to_string())?;
    println!("{name}: {} completion path(s)\n", paths.len());
    for p in &paths {
        println!("{}", p.describe(&reg));
    }
    Ok(())
}

fn cmd_compile(o: &Opts) -> Result<(), String> {
    let (src, deparser, name) = load_contract(o)?;
    let mut reg = SemanticRegistry::with_builtins();
    let intent = if let Some(file) = &o.intent {
        let isrc = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        Intent::from_p4(&isrc, &mut reg).map_err(|e| e.to_string())?
    } else if let Some(want) = &o.want {
        let mut b = Intent::builder("cli_intent");
        for sem in want.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            b = b.want(&mut reg, sem);
        }
        b.build()
    } else {
        return Err("--want or --intent required".into());
    };
    if intent.is_empty() {
        return Err("intent is empty".into());
    }

    let mut selector = Selector::default();
    if let Some(beta) = o.beta {
        selector.beta_ns_per_byte = beta;
    }
    // The artifact a driver would attach: its manifest digests the
    // program lowered and verified here.
    let compiled: CompiledRx = Compiler { selector }
        .compile(&src, &deparser, &name, &intent, &mut reg)
        .map_err(|e| e.to_string())?
        .into();

    match o.emit.as_str() {
        "report" => println!("{}", compiled.report()),
        "rust" => println!("{}", compiled.rust_source()),
        "c" => println!("{}", compiled.c_header()),
        "manifest" => println!("{}", compiled.manifest()),
        "ebpf" => {
            for (fname, prog) in compiled.ebpf_programs().map_err(|e| e.to_string())? {
                let stats = opendesc::ebpf::verify(&prog).map_err(|e| e.to_string())?;
                println!(
                    "; accessor `{fname}` ({} insns, verifier: {} states)",
                    prog.len(),
                    stats.states_explored
                );
                println!("{}", opendesc::ebpf::disasm(&prog));
            }
        }
        "dot" => {
            let (checked, _) = parse_and_check(&src);
            let mut reg2 = SemanticRegistry::with_builtins();
            let cfg = extract(&checked, &deparser, &mut reg2).map_err(|d| {
                d.iter()
                    .map(|x| x.message.clone())
                    .collect::<Vec<_>>()
                    .join("\n")
            })?;
            println!("{}", cfg.to_dot(&reg2));
        }
        other => {
            return Err(format!(
                "unknown --emit `{other}` (report|rust|c|ebpf|dot|manifest)"
            ))
        }
    }
    Ok(())
}

fn cmd_fmt(o: &Opts) -> Result<(), String> {
    let (src, _, _) = load_contract(o)?;
    let (checked, diags) = parse_and_check(&src);
    if diags.has_errors() {
        return Err(format!(
            "contract errors:\n{}",
            diags
                .iter()
                .map(|d| d.message.clone())
                .collect::<Vec<_>>()
                .join("\n")
        ));
    }
    print!("{}", opendesc::p4::pretty::print_program(&checked.program));
    Ok(())
}

fn cmd_diff(o: &Opts) -> Result<(), String> {
    let a = find_model(o.nic.as_deref().ok_or("--nic required")?)?;
    let b = find_model(o.nic_b.as_deref().ok_or("--nic-b required")?)?;
    let mut reg = SemanticRegistry::with_builtins();
    let d = opendesc::compiler::diff(
        (&a.p4_source, &a.deparser, &a.name),
        (&b.p4_source, &b.deparser, &b.name),
        &mut reg,
    )
    .map_err(|e| e.to_string())?;
    print!("{}", d.render(&reg));
    Ok(())
}

/// The golden-manifest set: the Fig. 1 intent negotiated against each
/// RX-capable catalog model, written as `<dir>/<model>.json`.
/// Regenerated by `opendesc manifests`; CI deletes `manifests/`,
/// regenerates it and fails on any change git sees there (an added or
/// removed file included), and `tests/manifest_golden.rs` checks the
/// committed `manifests/*.json` in-process.
const GOLDEN_MODELS: [&str; 4] = ["e1000e", "ixgbe", "mlx5", "qdma"];

fn cmd_manifests(o: &Opts) -> Result<(), String> {
    let dir = o.out.as_deref().unwrap_or("manifests");
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    for name in GOLDEN_MODELS {
        let m = find_model(name)?;
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::from_p4(opendesc::compiler::intent::FIG1_INTENT_P4, &mut reg)
            .map_err(|e| e.to_string())?;
        let compiled: CompiledRx = Compiler::default()
            .compile(&m.p4_source, &m.deparser, &m.name, &intent, &mut reg)
            .map_err(|e| format!("{name}: {e}"))?
            .into();
        let path = format!("{dir}/{name}.json");
        std::fs::write(&path, compiled.manifest()).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_tx(o: &Opts) -> Result<(), String> {
    let name = o.nic.as_deref().ok_or("--nic required")?;
    let m = find_model(name)?;
    let parser = m
        .desc_parser
        .clone()
        .ok_or_else(|| format!("model `{name}` defines no TX descriptor parser"))?;
    let mut reg = SemanticRegistry::with_builtins();
    let mut b = Intent::builder("cli_tx_intent");
    if let Some(want) = &o.want {
        for sem in want.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            b = b.want(&mut reg, sem);
        }
    }
    let intent = b.build();
    let compiled = opendesc::compiler::compile_tx(
        &Selector::default(),
        &m.p4_source,
        &parser,
        &m.name,
        &intent,
        &mut reg,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "TX compilation for {name}\n  layouts considered: {}\n  selected descriptor: {} bytes (states: {})",
        compiled.layouts_considered,
        compiled.layout.size_bytes(),
        compiled.layout.states.join(" → "),
    );
    if compiled.context.is_empty() {
        println!("  H2C context: none required");
    } else {
        println!("  H2C context:");
        for (f, v) in &compiled.context {
            println!("    {} = {v}", f.dotted());
        }
    }
    let sw = compiled.software_features();
    if sw.is_empty() {
        println!("  all requested hints carried by the descriptor");
    } else {
        println!("  driver software fallback: {}", sw.join(", "));
    }
    println!("  descriptor slots:");
    for slot in &compiled.layout.slots {
        let sem = slot
            .semantic
            .map(|s| reg.name(s).to_string())
            .unwrap_or_else(|| "-".into());
        println!(
            "    [{:>4}..{:<4}] {:<24} {}",
            slot.offset_bits,
            slot.offset_bits + slot.width_bits as u32,
            slot.name,
            sem
        );
    }
    Ok(())
}
