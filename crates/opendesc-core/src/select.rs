//! Layout selection: the paper's optimization problem (Eq. 1).
//!
//! ```text
//!   min over paths p of   Σ_{s ∈ Req \ Prov(p)} w(s)  +  β · Size(p)
//!                         └── SoftNIC cost ──┘          └ DMA footprint ┘
//! ```
//!
//! The first term charges per-packet software recomputation for every
//! requested semantic the layout does not provide; the second charges
//! DMA bandwidth for the completion record itself. If some requested
//! semantic has infinite software cost on every path some context
//! reaches, the program is rejected as unsatisfiable. Production NICs
//! expose only a handful of completion paths, so exact enumeration is
//! the algorithm (§4: "optimization degenerates into enumerating a small
//! finite set").

use opendesc_ir::path::CompletionPath;
use opendesc_ir::semantics::SemanticRegistry;
use opendesc_ir::{Assignment, SemanticId, Unsolved};
use std::collections::BTreeSet;
use std::fmt;

/// Which terms of the objective to use — the E7 ablation knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Full Eq. 1.
    #[default]
    Combined,
    /// Software-cost term only (ignores completion size).
    CostOnly,
    /// Footprint term only (always picks the smallest layout).
    SizeOnly,
}

/// Selection parameters.
#[derive(Debug, Clone, Copy)]
pub struct Selector {
    /// β: ns charged per completion byte. The DmaConfig-derived default
    /// treats a byte as worth ~0.13 ns on a PCIe 3.0 x8 link.
    pub beta_ns_per_byte: f64,
    /// Average packet length used to evaluate per-byte software costs.
    pub avg_pkt_len: u32,
    pub objective: Objective,
}

impl Default for Selector {
    fn default() -> Self {
        Selector {
            beta_ns_per_byte: 0.13,
            avg_pkt_len: 512,
            objective: Objective::Combined,
        }
    }
}

/// The outcome of scoring one path.
#[derive(Debug, Clone)]
pub struct PathScore {
    pub path_id: usize,
    /// Requested semantics the path provides in hardware.
    pub provided: BTreeSet<SemanticId>,
    /// Requested semantics that must be recomputed in software.
    pub missing: BTreeSet<SemanticId>,
    pub software_cost_ns: f64,
    pub footprint_bytes: u32,
    /// Total objective value (lower is better; ∞ when unsatisfiable).
    pub objective: f64,
    /// Context assignment steering the NIC onto this path, or why there
    /// is none: an opaque guard needs manual configuration, an
    /// unsatisfiable one is never taken.
    pub context: Result<Assignment, Unsolved>,
}

impl PathScore {
    /// Whether some context can steer the NIC onto this path: a path
    /// whose guard is unsatisfiable never wins.
    fn reachable(&self) -> bool {
        self.context != Err(Unsolved::Unsatisfiable)
    }
}

/// A completed selection.
#[derive(Debug, Clone)]
pub struct Selection {
    /// The winner (index into the original path slice by `path_id`).
    pub best: PathScore,
    /// Every path's score, sorted ascending by objective (the full table
    /// for reports and the E2 matrix).
    pub ranking: Vec<PathScore>,
}

/// Why selection failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectError {
    /// No paths to choose from, or none that any context reaches.
    NoPaths,
    /// Every path leaves some requested semantic uncomputable in
    /// software (w = ∞): the intent cannot be satisfied on this NIC.
    Unsatisfiable {
        /// Semantics that are uncomputable on the *best-effort* path.
        uncomputable: Vec<String>,
    },
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectError::NoPaths => write!(f, "the NIC contract exposes no completion paths"),
            SelectError::Unsatisfiable { uncomputable } => write!(
                f,
                "intent unsatisfiable on this NIC: no layout provides {} and software cannot recompute {}",
                uncomputable.join(", "),
                if uncomputable.len() == 1 { "it" } else { "them" }
            ),
        }
    }
}

impl std::error::Error for SelectError {}

impl Selector {
    /// Score a single path against a requested set.
    pub fn score(
        &self,
        path: &CompletionPath,
        req: &BTreeSet<SemanticId>,
        reg: &SemanticRegistry,
    ) -> PathScore {
        let provided: BTreeSet<SemanticId> = req
            .iter()
            .filter(|s| path.prov.contains(s))
            .copied()
            .collect();
        let missing: BTreeSet<SemanticId> = req.difference(&provided).copied().collect();
        let software_cost_ns: f64 = missing
            .iter()
            .map(|s| reg.cost(*s).eval(self.avg_pkt_len))
            .sum::<f64>()
            + 0.0; // normalize -0.0 from the empty sum
        let footprint_bytes = path.size_bytes();
        let footprint_cost = self.beta_ns_per_byte * footprint_bytes as f64;
        let objective = match self.objective {
            Objective::Combined => software_cost_ns + footprint_cost,
            Objective::CostOnly => software_cost_ns,
            Objective::SizeOnly => footprint_cost,
        };
        PathScore {
            path_id: path.id,
            provided,
            missing,
            software_cost_ns,
            footprint_bytes,
            objective,
            context: path.solve_context(),
        }
    }

    /// Solve Eq. 1 over `paths`.
    ///
    /// Paths whose guard cannot be solved (opaque conditions) are scored
    /// but ranked after solvable ones at equal objective — the compiler
    /// prefers a layout it can actually configure. Paths whose guard is
    /// unsatisfiable are scored and ranked too, but never win.
    pub fn select(
        &self,
        paths: &[CompletionPath],
        req: &BTreeSet<SemanticId>,
        reg: &SemanticRegistry,
    ) -> Result<Selection, SelectError> {
        if paths.is_empty() {
            return Err(SelectError::NoPaths);
        }
        let mut ranking: Vec<PathScore> = paths.iter().map(|p| self.score(p, req, reg)).collect();
        ranking.sort_by(|a, b| {
            a.objective
                .partial_cmp(&b.objective)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.context.is_err().cmp(&b.context.is_err()))
                .then_with(|| a.footprint_bytes.cmp(&b.footprint_bytes))
                .then_with(|| a.path_id.cmp(&b.path_id))
        });
        // Prefer the best *configurable* path when its objective ties or
        // beats unconfigurable ones; an unconfigurable winner is only
        // returned if strictly better and still finite.
        let best = ranking
            .iter()
            .find(|s| s.context.is_ok() && s.objective.is_finite())
            .or_else(|| (ranking.iter()).find(|s| s.reachable() && s.objective.is_finite()))
            .cloned();
        match best {
            Some(b) => Ok(Selection { best: b, ranking }),
            None => {
                // Report the reachable path with the fewest uncomputable
                // semantics.
                let worst = ranking
                    .iter()
                    .filter(|s| s.reachable())
                    .min_by_key(|s| {
                        s.missing
                            .iter()
                            .filter(|m| reg.cost(**m).is_infinite())
                            .count()
                    })
                    .ok_or(SelectError::NoPaths)?;
                let uncomputable = worst
                    .missing
                    .iter()
                    .filter(|m| reg.cost(**m).is_infinite())
                    .map(|m| reg.name(*m).to_string())
                    .collect();
                Err(SelectError::Unsatisfiable { uncomputable })
            }
        }
    }
}

impl PathScore {
    /// Render for reports: `path 1: obj=52.1ns (soft 40.0, 93B dma) missing={rss_hash}`.
    pub fn describe(&self, reg: &SemanticRegistry) -> String {
        let missing: Vec<&str> = self.missing.iter().map(|s| reg.name(*s)).collect();
        let provided: Vec<&str> = self.provided.iter().map(|s| reg.name(*s)).collect();
        format!(
            "path {}: objective={:.2}ns software={:.2}ns footprint={}B provided={{{}}} software-fallback={{{}}}{}",
            self.path_id,
            self.objective,
            self.software_cost_ns,
            self.footprint_bytes,
            provided.join(","),
            missing.join(","),
            match self.context {
                Ok(_) => "",
                Err(Unsolved::Opaque) => " [manual context]",
                Err(Unsolved::Unsatisfiable) => " [unreachable]",
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opendesc_ir::{enumerate_paths, extract, names, DEFAULT_MAX_PATHS};
    use opendesc_p4::typecheck::parse_and_check;

    const E1000E: &str = r#"
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
        struct ctx_t { bit<1> use_rss; }
        struct meta_t { rss_cmpt_t rss; ip_cmpt_t ip_fields; base_cmpt_t base; }
        control CmptDeparser(cmpt_out cmpt, in ctx_t ctx, in meta_t pipe_meta) {
            apply {
                if (ctx.use_rss == 1) { cmpt.emit(pipe_meta.rss); }
                else { cmpt.emit(pipe_meta.ip_fields); }
                cmpt.emit(pipe_meta.base);
            }
        }
    "#;

    fn e1000e_paths() -> (Vec<opendesc_ir::CompletionPath>, SemanticRegistry) {
        let (checked, d) = parse_and_check(E1000E);
        assert!(!d.has_errors());
        let mut reg = SemanticRegistry::with_builtins();
        let cfg = extract(&checked, "CmptDeparser", &mut reg).unwrap();
        (enumerate_paths(&cfg, DEFAULT_MAX_PATHS).unwrap(), reg)
    }

    fn req(reg: &SemanticRegistry, names_: &[&str]) -> BTreeSet<SemanticId> {
        names_.iter().map(|n| reg.id(n).unwrap()).collect()
    }

    /// The paper's running example: requesting {rss, csum} picks the csum
    /// branch because software RSS (≈40ns) is cheaper than software
    /// checksum (≈10 + 0.15/B ns, ~87ns at 512B).
    #[test]
    fn fig6_prefers_csum_path_for_rss_plus_csum() {
        let (paths, reg) = e1000e_paths();
        let sel = Selector::default()
            .select(
                &paths,
                &req(&reg, &[names::RSS_HASH, names::IP_CHECKSUM]),
                &reg,
            )
            .unwrap();
        let csum_id = reg.id(names::IP_CHECKSUM).unwrap();
        let rss_id = reg.id(names::RSS_HASH).unwrap();
        assert!(
            sel.best.provided.contains(&csum_id),
            "hardware must provide the expensive checksum: {}",
            sel.best.describe(&reg)
        );
        assert!(
            sel.best.missing.contains(&rss_id),
            "RSS recomputed in software"
        );
        // And the context steers the NIC accordingly (use_rss = 0).
        let ctx = sel.best.context.as_ref().unwrap();
        assert_eq!(ctx.values().next(), Some(&0));
    }

    #[test]
    fn rss_only_intent_picks_rss_path() {
        let (paths, reg) = e1000e_paths();
        let sel = Selector::default()
            .select(&paths, &req(&reg, &[names::RSS_HASH]), &reg)
            .unwrap();
        assert!(sel.best.missing.is_empty());
        assert!(sel
            .best
            .provided
            .contains(&reg.id(names::RSS_HASH).unwrap()));
    }

    #[test]
    fn empty_intent_picks_smallest_footprint() {
        let (paths, reg) = e1000e_paths();
        let sel = Selector::default()
            .select(&paths, &BTreeSet::new(), &reg)
            .unwrap();
        assert_eq!(sel.best.software_cost_ns, 0.0);
        // Both paths are 8B here, so any is fine; objective must be tiny.
        assert!(sel.best.objective < 2.0);
    }

    #[test]
    fn unsatisfiable_when_timestamp_unavailable() {
        let (paths, reg) = e1000e_paths();
        let err = Selector::default()
            .select(&paths, &req(&reg, &[names::TIMESTAMP]), &reg)
            .unwrap_err();
        match err {
            SelectError::Unsatisfiable { uncomputable } => {
                assert_eq!(uncomputable, vec!["timestamp"]);
            }
            other => panic!("expected unsatisfiable, got {other:?}"),
        }
    }

    #[test]
    fn ranking_sorted_ascending() {
        let (paths, reg) = e1000e_paths();
        let sel = Selector::default()
            .select(&paths, &req(&reg, &[names::IP_CHECKSUM]), &reg)
            .unwrap();
        assert_eq!(sel.ranking.len(), 2);
        assert!(sel.ranking[0].objective <= sel.ranking[1].objective);
        assert_eq!(sel.best.path_id, sel.ranking[0].path_id);
    }

    #[test]
    fn size_only_objective_ignores_software_cost() {
        let (paths, reg) = e1000e_paths();
        let sel = Selector {
            objective: Objective::SizeOnly,
            ..Selector::default()
        };
        let s = sel
            .select(
                &paths,
                &req(&reg, &[names::RSS_HASH, names::IP_CHECKSUM]),
                &reg,
            )
            .unwrap();
        // Both 8B: objective equal; still finite and well-defined.
        assert_eq!(s.best.footprint_bytes, 8);
        assert!((s.best.objective - 8.0 * 0.13).abs() < 1e-9);
    }

    #[test]
    fn cost_only_objective_ignores_footprint() {
        let (paths, reg) = e1000e_paths();
        let sel = Selector {
            objective: Objective::CostOnly,
            ..Selector::default()
        };
        let s = sel
            .select(&paths, &req(&reg, &[names::IP_CHECKSUM]), &reg)
            .unwrap();
        assert_eq!(
            s.best.objective, 0.0,
            "checksum provided in hw, no software cost"
        );
    }

    #[test]
    fn beta_sweep_flips_choice_between_layouts() {
        // Construct two synthetic-ish paths via a contract where one path
        // is large and complete, the other small and partial.
        let src = r#"
            header big_t {
                @semantic("rss_hash") bit<32> rss;
                @semantic("vlan_tci") bit<16> vlan;
                bit<464> pad0;
            }
            header small_t { @semantic("rss_hash") bit<32> rss; }
            struct ctx_t { bit<1> small; }
            struct m_t { big_t big; small_t small; }
            control C(cmpt_out o, in ctx_t ctx, in m_t m) {
                apply {
                    if (ctx.small == 1) { o.emit(m.small); }
                    else { o.emit(m.big); }
                }
            }
        "#;
        let (checked, d) = parse_and_check(src);
        assert!(!d.has_errors());
        let mut reg = SemanticRegistry::with_builtins();
        let cfg = extract(&checked, "C", &mut reg).unwrap();
        let paths = enumerate_paths(&cfg, DEFAULT_MAX_PATHS).unwrap();
        let want = req(&reg, &[names::RSS_HASH, names::VLAN_TCI]);

        // Cheap bandwidth: take the big layout, get vlan in hardware.
        let cheap = Selector {
            beta_ns_per_byte: 0.01,
            ..Selector::default()
        };
        let s1 = cheap.select(&paths, &want, &reg).unwrap();
        assert_eq!(s1.best.footprint_bytes, 64);

        // Expensive bandwidth: shrink to 4B and eat the software vlan.
        let pricey = Selector {
            beta_ns_per_byte: 2.0,
            ..Selector::default()
        };
        let s2 = pricey.select(&paths, &want, &reg).unwrap();
        assert_eq!(s2.best.footprint_bytes, 4);
        assert_eq!(s2.best.missing.len(), 1);
    }

    #[test]
    fn no_paths_is_an_error() {
        let reg = SemanticRegistry::with_builtins();
        assert_eq!(
            Selector::default()
                .select(&[], &BTreeSet::new(), &reg)
                .unwrap_err(),
            SelectError::NoPaths
        );
    }

    #[test]
    fn describe_mentions_fallbacks() {
        let (paths, reg) = e1000e_paths();
        let sel = Selector::default()
            .select(
                &paths,
                &req(&reg, &[names::RSS_HASH, names::IP_CHECKSUM]),
                &reg,
            )
            .unwrap();
        let txt = sel.best.describe(&reg);
        assert!(txt.contains("software-fallback={rss_hash}"), "{txt}");
    }
}
