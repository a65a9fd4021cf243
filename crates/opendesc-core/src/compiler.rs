//! The OpenDesc compiler: contract + intent → compiled interface.
//!
//! This is the pipeline of paper §4 end to end: parse and check the NIC's
//! P4 contract, extract the completion CFG, enumerate completion paths,
//! solve the selection objective (Eq. 1) against the application intent,
//! and synthesize the host stubs (runtime accessors, Rust/C source,
//! verified eBPF programs) plus the context assignment that programs the
//! NIC onto the chosen path.

use crate::accessor::AccessorSet;
use crate::codegen::{self, CodegenError};
use crate::intent::Intent;
use crate::plan::RxPlan;
use crate::select::{SelectError, Selection, Selector};
use opendesc_ebpf::insn::Insn;
use opendesc_ir::path::CompletionPath;
use opendesc_ir::semantics::SemanticRegistry;
use opendesc_ir::{enumerate_paths, extract, Assignment, Cfg, DEFAULT_MAX_PATHS};
use opendesc_nicsim::models::NicModel;
use opendesc_p4::typecheck::{parse_and_check, CheckedProgram};
use std::fmt;

/// Compiler entry point; holds the selection parameters.
#[derive(Debug, Clone, Default)]
pub struct Compiler {
    pub selector: Selector,
}

/// Compilation failure.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// The contract failed to parse or type-check.
    Contract(String),
    /// CFG extraction failed.
    Extract(String),
    /// Path enumeration exceeded the cap.
    Paths(String),
    /// The selection objective had no feasible solution.
    Select(SelectError),
    /// The compiled plan could not be lowered to verifier-accepted
    /// bytecode (the plan cache refuses to serve unproven plans).
    Lowering(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Contract(m) => write!(f, "contract error: {m}"),
            CompileError::Extract(m) => write!(f, "extraction error: {m}"),
            CompileError::Paths(m) => write!(f, "path enumeration error: {m}"),
            CompileError::Select(e) => write!(f, "selection error: {e}"),
            CompileError::Lowering(m) => write!(f, "lowering error: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<SelectError> for CompileError {
    fn from(e: SelectError) -> Self {
        CompileError::Select(e)
    }
}

/// The product of a compilation: everything a driver or application
/// needs to consume the NIC's metadata under the declared intent.
#[derive(Debug, Clone)]
pub struct CompiledInterface {
    pub nic_name: String,
    pub intent: Intent,
    /// Full ranking of candidate layouts (the E2 matrix row source).
    pub selection: Selection,
    /// The chosen completion layout.
    pub path: CompletionPath,
    /// Context assignment to program into the NIC; `None` when the
    /// winning path's guard is opaque (manual configuration required).
    pub context: Option<Assignment>,
    /// Synthesized accessors (hardware reads + software shims).
    pub accessors: AccessorSet,
    /// The accessors lowered to a per-packet execution plan: software
    /// shims pre-resolved to `ShimOp`s so the hot loop never dispatches
    /// on semantic names.
    pub plan: RxPlan,
    /// The semantic registry used (costs may have been re-priced by the
    /// intent's `@cost` annotations).
    pub reg: SemanticRegistry,
    /// Number of completion paths the NIC exposed.
    pub paths_considered: usize,
}

/// The front end, once: parse and type-check `src`, refusing it when
/// any diagnostic is an error. Every entry point of this crate that is
/// handed P4 source goes through here and then calls its `_checked`
/// counterpart, which is also what a holder of an already checked
/// contract ([`PlanCache`](crate::cache::PlanCache)) calls directly.
pub fn check_contract(src: &str) -> Result<CheckedProgram, CompileError> {
    let (checked, diags) = parse_and_check(src);
    if diags.has_errors() {
        return Err(CompileError::Contract(diags.summary()));
    }
    Ok(checked)
}

impl Compiler {
    /// Compile a contract given as P4 source against an intent. `reg`
    /// must be the registry the intent was built with.
    pub fn compile(
        &self,
        contract_src: &str,
        deparser: &str,
        nic_name: &str,
        intent: &Intent,
        reg: &mut SemanticRegistry,
    ) -> Result<CompiledInterface, CompileError> {
        let checked = check_contract(contract_src)?;
        self.compile_checked(&checked, deparser, nic_name, intent, reg)
    }

    /// Compile an already checked contract. The CFG is extracted on
    /// every call: extraction interns the contract's semantics into
    /// `reg`, and each caller brings its own registry.
    pub fn compile_checked(
        &self,
        checked: &CheckedProgram,
        deparser: &str,
        nic_name: &str,
        intent: &Intent,
        reg: &mut SemanticRegistry,
    ) -> Result<CompiledInterface, CompileError> {
        let cfg =
            extract(checked, deparser, reg).map_err(|d| CompileError::Extract(d.summary()))?;
        self.compile_cfg(&cfg, nic_name, intent, reg)
    }

    /// Compile an already-extracted CFG (used by scalability benches to
    /// separate frontend cost from selection cost).
    pub fn compile_cfg(
        &self,
        cfg: &Cfg,
        nic_name: &str,
        intent: &Intent,
        reg: &SemanticRegistry,
    ) -> Result<CompiledInterface, CompileError> {
        let paths = enumerate_paths(cfg, DEFAULT_MAX_PATHS)
            .map_err(|e| CompileError::Paths(e.to_string()))?;
        self.compile_paths(&paths, nic_name, intent, reg)
    }

    /// The selection + synthesis backend over enumerated paths.
    pub fn compile_paths(
        &self,
        paths: &[CompletionPath],
        nic_name: &str,
        intent: &Intent,
        reg: &SemanticRegistry,
    ) -> Result<CompiledInterface, CompileError> {
        let req = intent.req();
        let selection = self.selector.select(paths, &req, reg)?;
        let path = paths
            .iter()
            .find(|p| p.id == selection.best.path_id)
            .expect("selection returns a valid path id")
            .clone();
        let accessors = AccessorSet::synthesize(&path, intent);
        let plan = RxPlan::compile(&accessors, reg);
        Ok(CompiledInterface {
            nic_name: nic_name.to_string(),
            intent: intent.clone(),
            context: selection.best.context.clone().ok(),
            selection,
            path,
            accessors,
            plan,
            reg: reg.clone(),
            paths_considered: paths.len(),
        })
    }

    /// Compile a simulator NIC model.
    pub fn compile_model(
        &self,
        model: &NicModel,
        intent: &Intent,
        reg: &mut SemanticRegistry,
    ) -> Result<CompiledInterface, CompileError> {
        self.compile(&model.p4_source, &model.deparser, &model.name, intent, reg)
    }
}

impl CompiledInterface {
    /// Requested semantics that fall back to software, by name.
    pub fn missing_features(&self) -> Vec<&str> {
        self.selection
            .best
            .missing
            .iter()
            .map(|s| self.reg.name(*s))
            .collect()
    }

    /// Generated Rust source for the completion view.
    pub fn rust_source(&self) -> String {
        codegen::rust::generate(&self.nic_name, &self.accessors, &self.reg)
    }

    /// Generated C header.
    pub fn c_header(&self) -> String {
        codegen::c::generate(&self.nic_name, &self.accessors, &self.reg)
    }

    /// Verified-by-construction eBPF accessor programs, one per hardware
    /// accessor.
    pub fn ebpf_programs(&self) -> Result<Vec<(String, Vec<Insn>)>, CodegenError> {
        codegen::ebpf::gen_all(&self.accessors)
    }

    /// Human-readable compilation report: the prototype compiler's
    /// output (selected layout, ranking, context programming, accessor
    /// table, missing-feature list).
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "OpenDesc compilation report\n===========================\nNIC:    {}\nIntent: {} ({} semantics)\n\n",
            self.nic_name,
            self.intent.name,
            self.intent.len()
        ));
        out.push_str(&format!(
            "Completion paths considered: {}\n",
            self.paths_considered
        ));
        for s in &self.selection.ranking {
            let marker = if s.path_id == self.selection.best.path_id {
                "→"
            } else {
                " "
            };
            out.push_str(&format!("  {marker} {}\n", s.describe(&self.reg)));
        }
        out.push('\n');
        match &self.context {
            Some(ctx) if !ctx.is_empty() => {
                out.push_str("Context programming (control channel):\n");
                for (f, v) in ctx {
                    out.push_str(&format!("  {} = {}\n", f.dotted(), v));
                }
            }
            Some(_) => out.push_str("Context programming: none required\n"),
            None => out.push_str("Context programming: MANUAL (opaque guard)\n"),
        }
        out.push_str(&format!(
            "\nSelected layout: path {} ({} bytes)\n",
            self.path.id,
            self.path.size_bytes()
        ));
        out.push_str("Accessors:\n");
        for a in &self.accessors.accessors {
            out.push_str(&format!("  {a}\n"));
        }
        let missing = self.missing_features();
        if missing.is_empty() {
            out.push_str("\nAll requested features provided by the NIC.\n");
        } else {
            out.push_str(&format!(
                "\nMissing features (SoftNIC fallback): {}\n",
                missing.join(", ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accessor::AccessorKind;
    use opendesc_ir::names;
    use opendesc_nicsim::models;

    fn fig1_intent(reg: &mut SemanticRegistry) -> Intent {
        Intent::from_p4(crate::intent::FIG1_INTENT_P4, reg).unwrap()
    }

    #[test]
    fn compile_e1000e_fig6_example() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("i")
            .want(&mut reg, names::RSS_HASH)
            .want(&mut reg, names::IP_CHECKSUM)
            .build();
        let compiled = Compiler::default()
            .compile_model(&models::e1000e(), &intent, &mut reg)
            .unwrap();
        assert_eq!(compiled.paths_considered, 2);
        assert_eq!(compiled.missing_features(), vec!["rss_hash"]);
        // use_rss must be programmed to 0 (the csum path).
        let ctx = compiled.context.as_ref().unwrap();
        let (f, v) = ctx.iter().next().unwrap();
        assert_eq!(f.dotted(), "ctx.use_rss");
        assert_eq!(*v, 0);
    }

    #[test]
    fn compile_fig1_intent_on_mlx5_uses_full_cqe() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = fig1_intent(&mut reg);
        let compiled = Compiler::default()
            .compile_model(&models::mlx5(), &intent, &mut reg)
            .unwrap();
        // The full CQE provides all four semantics, incl. the KVS hash.
        assert!(
            compiled.missing_features().is_empty(),
            "{}",
            compiled.report()
        );
        assert_eq!(compiled.path.size_bytes(), 64);
        assert_eq!(compiled.accessors.hardware().count(), 4);
    }

    #[test]
    fn compile_fig1_intent_on_e1000_legacy_falls_back() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = fig1_intent(&mut reg);
        let compiled = Compiler::default()
            .compile_model(&models::e1000_legacy(), &intent, &mut reg)
            .unwrap();
        let mut missing = compiled.missing_features();
        missing.sort();
        assert_eq!(missing, vec!["kvs_key_hash", "rss_hash"]);
        // csum and vlan come from hardware.
        assert_eq!(compiled.accessors.hardware().count(), 2);
        assert_eq!(compiled.accessors.software().count(), 2);
    }

    #[test]
    fn timestamp_on_fixed_nic_is_unsatisfiable() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("i")
            .want(&mut reg, names::TIMESTAMP)
            .build();
        let err = Compiler::default()
            .compile_model(&models::e1000e(), &intent, &mut reg)
            .unwrap_err();
        assert!(matches!(
            err,
            CompileError::Select(SelectError::Unsatisfiable { .. })
        ));
    }

    /// A contract that emits `timestamp` only under `guard`, and
    /// `pkt_len` on every path.
    fn timestamp_only_under(guard: &str) -> String {
        format!(
            r#"
            header ts_t {{ @semantic("timestamp") bit<64> ts; }}
            header base_t {{ @semantic("pkt_len") bit<16> len; bit<16> pad; }}
            struct ctx_t {{ bit<1> use_rss; bit<1> a; bit<1> b; }}
            struct meta_t {{ ts_t ts; base_t base; }}
            control CmptDeparser(cmpt_out cmpt, in ctx_t ctx, in meta_t m) {{
                apply {{
                    if (ctx.use_rss == 1) {{ if ({guard}) {{ cmpt.emit(m.ts); }} }}
                    cmpt.emit(m.base);
                }}
            }}
            "#
        )
    }

    fn compile_timestamp_under(guard: &str) -> Result<CompiledInterface, CompileError> {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("i")
            .want(&mut reg, names::TIMESTAMP)
            .want(&mut reg, names::PKT_LEN)
            .build();
        let src = timestamp_only_under(guard);
        Compiler::default().compile(&src, "CmptDeparser", "x", &intent, &mut reg)
    }

    #[test]
    fn an_arm_no_context_reaches_never_wins() {
        // `ctx.use_rss == 1 && ctx.use_rss == 0`, and `… && false`: the
        // only path with a timestamp is dead, so the intent cannot be
        // met — it is not a layout to configure by hand.
        for dead in ["ctx.use_rss == 0", "false"] {
            match compile_timestamp_under(dead) {
                Err(CompileError::Select(SelectError::Unsatisfiable { uncomputable })) => {
                    assert_eq!(uncomputable, ["timestamp"], "{dead}");
                }
                Err(other) => panic!("{dead}: {other}"),
                Ok(c) => panic!("{dead}: a dead path won:\n{}", c.report()),
            }
        }
    }

    #[test]
    fn an_opaque_arm_still_wins_as_a_manual_layout() {
        let compiled = compile_timestamp_under("ctx.a == ctx.b").unwrap();
        assert_eq!(compiled.path.id, 0, "{}", compiled.report());
        assert_eq!(compiled.paths_considered, 3);
        assert!(compiled.context.is_none(), "{}", compiled.report());
        assert!(compiled.missing_features().is_empty());
    }

    #[test]
    fn timestamp_on_mlx5_succeeds() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("i")
            .want(&mut reg, names::TIMESTAMP)
            .build();
        let compiled = Compiler::default()
            .compile_model(&models::mlx5(), &intent, &mut reg)
            .unwrap();
        assert!(compiled.missing_features().is_empty());
        assert_eq!(
            compiled.path.size_bytes(),
            64,
            "only the full CQE has timestamps"
        );
    }

    #[test]
    fn rss_only_on_mlx5_prefers_mini_cqe() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("i")
            .want(&mut reg, names::RSS_HASH)
            .want(&mut reg, names::PKT_LEN)
            .build();
        let compiled = Compiler::default()
            .compile_model(&models::mlx5(), &intent, &mut reg)
            .unwrap();
        assert_eq!(
            compiled.path.size_bytes(),
            8,
            "mini-CQE satisfies the intent at 1/8 the DMA footprint: {}",
            compiled.report()
        );
    }

    #[test]
    fn report_contains_key_sections() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = fig1_intent(&mut reg);
        let compiled = Compiler::default()
            .compile_model(&models::e1000e(), &intent, &mut reg)
            .unwrap();
        let r = compiled.report();
        assert!(r.contains("compilation report"), "{r}");
        assert!(r.contains("Context programming"), "{r}");
        assert!(r.contains("Missing features"), "{r}");
        assert!(r.contains("→"), "ranking marks the winner: {r}");
    }

    #[test]
    fn generated_artifacts_nonempty_and_verified() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = fig1_intent(&mut reg);
        let compiled = Compiler::default()
            .compile_model(&models::mlx5(), &intent, &mut reg)
            .unwrap();
        assert!(compiled.rust_source().contains("CmptView"));
        assert!(compiled.c_header().contains("static inline"));
        let progs = compiled.ebpf_programs().unwrap();
        assert_eq!(progs.len(), 4);
        for (name, p) in &progs {
            opendesc_ebpf::verifier::verify(p)
                .unwrap_or_else(|e| panic!("program {name} failed verification: {e}"));
        }
    }

    #[test]
    fn bad_contract_reports_error() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("i").want(&mut reg, names::RSS_HASH).build();
        let err = Compiler::default()
            .compile("header broken {", "C", "x", &intent, &mut reg)
            .unwrap_err();
        assert!(matches!(err, CompileError::Contract(_)));
    }

    #[test]
    fn missing_deparser_reports_error() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("i").want(&mut reg, names::RSS_HASH).build();
        let err = Compiler::default()
            .compile("header h_t { bit<8> x; }", "NoSuch", "x", &intent, &mut reg)
            .unwrap_err();
        assert!(matches!(err, CompileError::Extract(_)));
    }

    #[test]
    fn qdma_picks_tightest_installed_layout() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("i")
            .want(&mut reg, names::RSS_HASH)
            .want(&mut reg, names::PKT_LEN)
            .build();
        let compiled = Compiler::default()
            .compile_model(&models::qdma_default(), &intent, &mut reg)
            .unwrap();
        assert_eq!(compiled.path.size_bytes(), 8, "{}", compiled.report());
        assert!(compiled.missing_features().is_empty());
    }

    #[test]
    fn accessor_kinds_follow_selection() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = fig1_intent(&mut reg);
        let compiled = Compiler::default()
            .compile_model(&models::ixgbe(), &intent, &mut reg)
            .unwrap();
        // ixgbe provides rss, vlan, ip csum in hardware; kvs falls back.
        let kvs = reg.id(names::KVS_KEY_HASH).unwrap();
        assert_eq!(
            compiled.accessors.for_semantic(kvs).unwrap().kind,
            AccessorKind::Software
        );
        assert_eq!(compiled.accessors.hardware().count(), 3);
    }
}
