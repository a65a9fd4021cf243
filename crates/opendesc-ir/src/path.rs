//! Completion-path enumeration and characterization (paper §4, step 2).
//!
//! A *completion path* is a root-to-leaf walk of the deparser CFG: one
//! concrete metadata layout the NIC may emit under a given context. For a
//! path `p = (v0 … vk)` the paper defines
//! `Prov(p) = ∪ sem(vi)` and `Size(p) = Σ size(vi)`; both are computed
//! here, along with the byte-exact field layout (the offsets the generated
//! accessors will read) and the symbolic guard (the context configuration
//! that makes the NIC take this path).

use crate::cfg::{Cfg, CfgNode};
use crate::pred::{solve, write_guard, Assignment, Cond, Unsolved};
use crate::semantics::{SemanticId, SemanticRegistry};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// One field of a concrete completion layout, with its absolute offset.
/// Its names are the contract's, made once at extraction and shared by
/// every layout that carries the field.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldSlot {
    /// Qualified name within the layout, e.g. `ip_fields.csum`.
    pub name: Arc<str>,
    /// Dotted source in the contract, e.g. `pipe_meta.ip_fields`.
    pub source: Arc<str>,
    pub semantic: Option<SemanticId>,
    /// Absolute bit offset from the start of the completion record.
    pub offset_bits: u32,
    pub width_bits: u16,
}

/// A concrete completion layout the NIC can emit: one CFG path.
#[derive(Debug, Clone)]
pub struct CompletionPath {
    /// Dense path id (stable across enumerations of the same CFG).
    pub id: usize,
    /// Conjunction of the branch conditions taken along the path.
    pub guard: Vec<Cond>,
    /// Vertex ids (into [`Cfg::vertices`]) in emit order.
    pub emits: Vec<usize>,
    /// Flattened field layout with absolute offsets.
    pub slots: Vec<FieldSlot>,
    /// Total size in bits.
    pub size_bits: u32,
    /// `Prov(p)`: semantics this layout provides.
    pub prov: BTreeSet<SemanticId>,
}

impl CompletionPath {
    /// `Size(p)` in whole bytes (the DMA completion footprint).
    pub fn size_bytes(&self) -> u32 {
        self.size_bits.div_ceil(8)
    }

    /// Context assignment that steers the NIC onto this path, or why
    /// there is none: the guard is opaque (the path needs manual
    /// configuration) or unsatisfiable (no context ever takes it).
    pub fn solve_context(&self) -> Result<Assignment, Unsolved> {
        solve(&self.guard)
    }

    /// The slot providing semantic `sem`, if any.
    pub fn slot_for(&self, sem: SemanticId) -> Option<&FieldSlot> {
        self.slots.iter().find(|s| s.semantic == Some(sem))
    }

    /// Human-readable guard.
    pub fn guard_str(&self) -> String {
        let mut out = String::new();
        write_guard(&mut out, &self.guard).expect("writing to a String cannot fail");
        out
    }

    /// Render the layout as a table, for reports and docs.
    pub fn describe(&self, reg: &SemanticRegistry) -> String {
        let mut out = format!("path {} ({} B), guard: ", self.id, self.size_bytes());
        write_guard(&mut out, &self.guard).expect("writing to a String cannot fail");
        out.push('\n');
        for s in &self.slots {
            out.push_str(&format!(
                "  [{:>4}..{:<4}] {:<24} {}\n",
                s.offset_bits,
                s.offset_bits + s.width_bits as u32,
                s.name,
                s.semantic.map(|id| reg.name(id)).unwrap_or("-"),
            ));
        }
        out
    }
}

impl fmt::Display for CompletionPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "path {} ({} B, {} slots, guard: ",
            self.id,
            self.size_bytes(),
            self.slots.len(),
        )?;
        write_guard(f, &self.guard)?;
        f.write_str(")")
    }
}

/// Why enumeration failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PathError {
    /// The CFG has more paths than `max_paths`; the contract is too
    /// branchy to enumerate exhaustively.
    TooManyPaths { limit: usize },
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::TooManyPaths { limit } => {
                write!(f, "completion CFG exceeds the path limit of {limit}")
            }
        }
    }
}

impl std::error::Error for PathError {}

/// Default path cap. Production NICs expose a handful of completion paths
/// (two in e1000, a few formats in mlx5, one per queue in QDMA); the cap
/// only guards against degenerate contracts.
pub const DEFAULT_MAX_PATHS: usize = 4096;

/// Enumerate all root-to-leaf completion paths of `cfg`, depth first,
/// arms in order. The walk keeps the arms it has yet to take in a list
/// of its own, so a CFG as deep as an `else if` chain is long, or as
/// long as its run of emits, costs heap, not thread stack.
pub fn enumerate_paths(cfg: &Cfg, max_paths: usize) -> Result<Vec<CompletionPath>, PathError> {
    let mut paths = Vec::new();
    let mut guard: Vec<&Cond> = Vec::new();
    let mut emits: Vec<usize> = Vec::new();
    // Arms not yet taken, next last: the target, how long the guard and
    // the emit list were at their branch, and the arm's condition.
    let mut pending: Vec<(usize, usize, usize, &Cond)> = Vec::new();
    let mut node = cfg.entry;
    loop {
        match &cfg.nodes[node] {
            CfgNode::Emit { vertex, next } => {
                emits.push(*vertex);
                node = *next;
                continue;
            }
            CfgNode::Branch { arms, .. } => {
                let (g, e) = (guard.len(), emits.len());
                pending.extend(arms.iter().rev().map(|(c, t)| (*t, g, e, c)));
            }
            CfgNode::Exit => {
                if paths.len() >= max_paths {
                    return Err(PathError::TooManyPaths { limit: max_paths });
                }
                paths.push(materialize(cfg, paths.len(), &guard, &emits));
            }
        }
        let Some((target, g, e, cond)) = pending.pop() else {
            return Ok(paths);
        };
        guard.truncate(g);
        emits.truncate(e);
        if !matches!(cond, Cond::True) {
            guard.push(cond);
        }
        node = target;
    }
}

fn materialize(cfg: &Cfg, id: usize, guard: &[&Cond], emits: &[usize]) -> CompletionPath {
    let fields = emits.iter().map(|&v| cfg.vertices[v].fields.len()).sum();
    let mut slots = Vec::with_capacity(fields);
    let mut offset: u32 = 0;
    let mut prov = BTreeSet::new();
    for &vid in emits {
        let v = &cfg.vertices[vid];
        for f in &v.fields {
            slots.push(FieldSlot {
                name: f.name.clone(),
                source: v.source.clone(),
                semantic: f.semantic,
                offset_bits: offset + f.offset_bits,
                width_bits: f.width_bits,
            });
            if let Some(s) = f.semantic {
                prov.insert(s);
            }
        }
        offset += v.size_bits;
    }
    CompletionPath {
        id,
        guard: guard.iter().map(|c| (*c).clone()).collect(),
        emits: emits.to_vec(),
        slots,
        size_bits: offset,
        prov,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::extract;
    use crate::semantics::{names, SemanticRegistry};
    use opendesc_p4::typecheck::parse_and_check;

    const E1000_FIG6: &str = r#"
        header rss_cmpt_t { @semantic("rss_hash") bit<32> rss; }
        header ip_cmpt_t {
            @semantic("ip_id") bit<16> ip_id;
            @semantic("ip_checksum") bit<16> csum;
        }
        header base_cmpt_t {
            @semantic("pkt_len") bit<16> length;
            @semantic("rx_status") bit<8> status;
            bit<8> errors;
        }
        struct e1000_ctx_t { bit<1> use_rss; }
        struct e1000_meta_t {
            rss_cmpt_t rss;
            ip_cmpt_t ip_fields;
            base_cmpt_t base;
        }
        control CmptDeparser(cmpt_out cmpt, in e1000_ctx_t ctx, in e1000_meta_t pipe_meta) {
            apply {
                if (ctx.use_rss == 1) {
                    cmpt.emit(pipe_meta.rss);
                } else {
                    cmpt.emit(pipe_meta.ip_fields);
                }
                cmpt.emit(pipe_meta.base);
            }
        }
    "#;

    fn paths_of(src: &str, ctl: &str) -> (Vec<CompletionPath>, SemanticRegistry) {
        let (checked, diags) = parse_and_check(src);
        assert!(!diags.has_errors());
        let mut reg = SemanticRegistry::with_builtins();
        let cfg = extract(&checked, ctl, &mut reg).unwrap();
        let paths = enumerate_paths(&cfg, DEFAULT_MAX_PATHS).unwrap();
        (paths, reg)
    }

    #[test]
    fn fig6_yields_exactly_two_paths() {
        let (paths, reg) = paths_of(E1000_FIG6, "CmptDeparser");
        assert_eq!(paths.len(), 2);

        let rss_path = paths
            .iter()
            .find(|p| p.prov.contains(&reg.id(names::RSS_HASH).unwrap()))
            .expect("one path provides rss");
        let csum_path = paths
            .iter()
            .find(|p| p.prov.contains(&reg.id(names::IP_CHECKSUM).unwrap()))
            .expect("one path provides csum");

        // Both are 8 bytes: 4 (branch-specific) + 4 (base).
        assert_eq!(rss_path.size_bytes(), 8);
        assert_eq!(csum_path.size_bytes(), 8);

        // Prov sets per the paper's example.
        assert!(!rss_path.prov.contains(&reg.id(names::IP_CHECKSUM).unwrap()));
        assert!(!csum_path.prov.contains(&reg.id(names::RSS_HASH).unwrap()));
        // Base semantics present on both.
        for p in [rss_path, csum_path] {
            assert!(p.prov.contains(&reg.id(names::PKT_LEN).unwrap()));
            assert!(p.prov.contains(&reg.id(names::RX_STATUS).unwrap()));
        }
    }

    #[test]
    fn fig6_offsets_are_absolute() {
        let (paths, reg) = paths_of(E1000_FIG6, "CmptDeparser");
        let csum_path = paths
            .iter()
            .find(|p| p.prov.contains(&reg.id(names::IP_CHECKSUM).unwrap()))
            .unwrap();
        let csum_slot = csum_path
            .slot_for(reg.id(names::IP_CHECKSUM).unwrap())
            .unwrap();
        // ip_id (16 bits) precedes csum within the first emit.
        assert_eq!(csum_slot.offset_bits, 16);
        let len_slot = csum_path.slot_for(reg.id(names::PKT_LEN).unwrap()).unwrap();
        // base emit starts after the 32-bit first emit.
        assert_eq!(len_slot.offset_bits, 32);
    }

    #[test]
    fn fig6_guards_solvable_and_opposite() {
        let (paths, reg) = paths_of(E1000_FIG6, "CmptDeparser");
        let rss_id = reg.id(names::RSS_HASH).unwrap();
        for p in &paths {
            let asn = p.solve_context().expect("guards are simple equalities");
            let use_rss = asn
                .iter()
                .find(|(f, _)| f.dotted() == "ctx.use_rss")
                .map(|(_, v)| *v)
                .unwrap();
            if p.prov.contains(&rss_id) {
                assert_eq!(use_rss, 1);
            } else {
                assert_eq!(use_rss, 0);
            }
        }
    }

    #[test]
    fn nested_branches_multiply_paths() {
        let src = r#"
            header a_t { bit<8> x; }
            header b_t { bit<8> y; }
            struct ctx_t { bit<1> p; bit<1> q; }
            struct m_t { a_t a; b_t b; }
            control C(cmpt_out o, in ctx_t ctx, in m_t m) {
                apply {
                    if (ctx.p == 1) { o.emit(m.a); }
                    if (ctx.q == 1) { o.emit(m.b); }
                }
            }
        "#;
        let (paths, _) = paths_of(src, "C");
        assert_eq!(paths.len(), 4);
        let sizes: BTreeSet<u32> = paths.iter().map(|p| p.size_bytes()).collect();
        assert_eq!(sizes, BTreeSet::from([0, 1, 2]));
    }

    #[test]
    fn path_cap_enforced() {
        // 13 sequential 2-way branches → 8192 paths > 4096 cap.
        let mut src =
            String::from("header a_t { bit<8> x; }\nstruct m_t { a_t a; }\nstruct ctx_t { ");
        for i in 0..13 {
            src.push_str(&format!("bit<1> f{i}; "));
        }
        src.push_str("}\ncontrol C(cmpt_out o, in ctx_t ctx, in m_t m) {\n apply {\n");
        for i in 0..13 {
            src.push_str(&format!("  if (ctx.f{i} == 1) {{ o.emit(m.a); }}\n"));
        }
        src.push_str(" }\n}\n");
        let (checked, diags) = parse_and_check(&src);
        assert!(!diags.has_errors());
        let mut reg = SemanticRegistry::with_builtins();
        let cfg = extract(&checked, "C", &mut reg).unwrap();
        let err = enumerate_paths(&cfg, DEFAULT_MAX_PATHS).unwrap_err();
        assert_eq!(
            err,
            PathError::TooManyPaths {
                limit: DEFAULT_MAX_PATHS
            }
        );
        // A higher cap succeeds.
        assert_eq!(enumerate_paths(&cfg, 10_000).unwrap().len(), 8192);
    }

    #[test]
    fn empty_deparser_has_single_empty_path() {
        let src = r#"
            struct ctx_t { bit<1> f; }
            control C(cmpt_out o, in ctx_t ctx) { apply { } }
        "#;
        let (paths, _) = paths_of(src, "C");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].size_bytes(), 0);
        assert!(paths[0].prov.is_empty());
        assert!(paths[0].guard.is_empty());
    }

    #[test]
    fn slot_names_qualified_by_header() {
        let (paths, reg) = paths_of(E1000_FIG6, "CmptDeparser");
        let p = &paths[1];
        let names: Vec<&str> = p.slots.iter().map(|s| &*s.name).collect();
        assert!(
            names.contains(&"ip_fields.csum") || names.contains(&"rss.rss"),
            "{names:?}"
        );
        let _ = reg;
    }

    #[test]
    fn the_rss_path_provides_the_length_but_not_the_checksum() {
        let (paths, reg) = paths_of(E1000_FIG6, "CmptDeparser");
        let rss = reg.id(names::RSS_HASH).unwrap();
        let len = reg.id(names::PKT_LEN).unwrap();
        let rss_path = paths.iter().find(|p| p.prov.contains(&rss)).unwrap();
        assert!(rss_path.prov.contains(&len));
        let csum = reg.id(names::IP_CHECKSUM).unwrap();
        assert!(!rss_path.prov.contains(&csum));
    }

    #[test]
    fn describe_renders_layout_table() {
        let (paths, reg) = paths_of(E1000_FIG6, "CmptDeparser");
        let txt = paths[0].describe(&reg);
        assert!(txt.contains("guard:"), "{txt}");
        assert!(txt.contains("length") || txt.contains("rss"), "{txt}");
    }
}
