//! Contract capability analysis and intent-equivalence (paper §5,
//! "Feature equivalence").
//!
//! The paper observes that full symbolic equivalence of feature
//! *implementations* is impractical (vendors' RSS variants differ in
//! irrelevant ways) and settles on semantic annotations as the contract
//! currency. This module implements the practical consequences: what a
//! contract *can* provide (the union of `Prov` over its layouts), how
//! two contracts differ, and whether two NICs are **intent-equivalent**
//! — the application-observable question: under intent `I`, do both
//! compilations provide the same hardware/software split?

use crate::compiler::{check_contract, CompileError, Compiler};
use crate::intent::Intent;
use opendesc_ir::semantics::SemanticRegistry;
use opendesc_ir::{enumerate_paths, extract, SemanticId, DEFAULT_MAX_PATHS};
use std::collections::BTreeSet;

/// The semantics a contract can provide across all of its layouts.
pub fn capabilities(
    contract_src: &str,
    deparser: &str,
    reg: &mut SemanticRegistry,
) -> Result<BTreeSet<SemanticId>, CompileError> {
    let checked = check_contract(contract_src)?;
    let cfg = extract(&checked, deparser, reg).map_err(|d| CompileError::Extract(d.summary()))?;
    let paths =
        enumerate_paths(&cfg, DEFAULT_MAX_PATHS).map_err(|e| CompileError::Paths(e.to_string()))?;
    Ok(paths.iter().flat_map(|p| p.prov.iter().copied()).collect())
}

/// Structural capability difference between two contracts.
#[derive(Debug, Clone)]
pub struct ContractDiff {
    pub a_name: String,
    pub b_name: String,
    pub common: BTreeSet<SemanticId>,
    pub only_a: BTreeSet<SemanticId>,
    pub only_b: BTreeSet<SemanticId>,
}

impl ContractDiff {
    /// Render as a migration-oriented report.
    pub fn render(&self, reg: &SemanticRegistry) -> String {
        let fmt = |s: &BTreeSet<SemanticId>| {
            if s.is_empty() {
                "-".to_string()
            } else {
                s.iter()
                    .map(|x| reg.name(*x))
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        };
        format!(
            "capability diff {} vs {}\n  both:       {}\n  only {}: {}\n  only {}: {}\n",
            self.a_name,
            self.b_name,
            fmt(&self.common),
            self.a_name,
            fmt(&self.only_a),
            self.b_name,
            fmt(&self.only_b),
        )
    }
}

/// Diff the capabilities of two contracts.
pub fn diff(
    a: (&str, &str, &str), // (src, deparser, name)
    b: (&str, &str, &str),
    reg: &mut SemanticRegistry,
) -> Result<ContractDiff, CompileError> {
    let ca = capabilities(a.0, a.1, reg)?;
    let cb = capabilities(b.0, b.1, reg)?;
    Ok(ContractDiff {
        a_name: a.2.to_string(),
        b_name: b.2.to_string(),
        common: ca.intersection(&cb).copied().collect(),
        only_a: ca.difference(&cb).copied().collect(),
        only_b: cb.difference(&ca).copied().collect(),
    })
}

/// Result of an intent-equivalence check.
#[derive(Debug, Clone, PartialEq)]
pub enum IntentEquivalence {
    /// Same hardware-provided subset on both NICs: migrating the app
    /// changes nothing observable (values are semantic-identical and the
    /// software split matches).
    Equivalent,
    /// Both satisfiable, but the hardware/software split differs — the
    /// app works on both, with different CPU cost.
    DifferentSplit {
        a_provides: BTreeSet<SemanticId>,
        b_provides: BTreeSet<SemanticId>,
    },
    /// Exactly one side can satisfy the intent at all.
    OneSided { satisfiable_on_a: bool },
    /// Neither side can satisfy the intent.
    NeitherSatisfiable,
}

/// Check whether two contracts are equivalent *under a given intent*.
pub fn intent_equivalent(
    compiler: &Compiler,
    a: (&str, &str, &str),
    b: (&str, &str, &str),
    intent: &Intent,
    reg: &mut SemanticRegistry,
) -> IntentEquivalence {
    let ra = compiler.compile(a.0, a.1, a.2, intent, reg);
    let rb = compiler.compile(b.0, b.1, b.2, intent, reg);
    match (ra, rb) {
        (Ok(ca), Ok(cb)) => {
            if ca.selection.best.provided == cb.selection.best.provided {
                IntentEquivalence::Equivalent
            } else {
                IntentEquivalence::DifferentSplit {
                    a_provides: ca.selection.best.provided,
                    b_provides: cb.selection.best.provided,
                }
            }
        }
        (Ok(_), Err(_)) => IntentEquivalence::OneSided {
            satisfiable_on_a: true,
        },
        (Err(_), Ok(_)) => IntentEquivalence::OneSided {
            satisfiable_on_a: false,
        },
        (Err(_), Err(_)) => IntentEquivalence::NeitherSatisfiable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opendesc_ir::names;
    use opendesc_nicsim::models;

    fn m(model: &opendesc_nicsim::NicModel) -> (String, String, String) {
        (
            model.p4_source.clone(),
            model.deparser.clone(),
            model.name.clone(),
        )
    }

    #[test]
    fn capabilities_union_over_paths() {
        let mut reg = SemanticRegistry::with_builtins();
        let model = models::e1000e();
        let caps = capabilities(&model.p4_source, &model.deparser, &mut reg).unwrap();
        // Both branches' semantics appear, even though no single layout
        // has them all.
        for n in [
            names::RSS_HASH,
            names::IP_CHECKSUM,
            names::IP_ID,
            names::PKT_LEN,
        ] {
            assert!(caps.contains(&reg.id(n).unwrap()), "{n} missing");
        }
        assert!(!caps.contains(&reg.id(names::TIMESTAMP).unwrap()));
    }

    #[test]
    fn diff_identifies_one_sided_features() {
        let mut reg = SemanticRegistry::with_builtins();
        let a = models::mlx5();
        let b = models::e1000_legacy();
        let (sa, da, na) = m(&a);
        let (sb, db, nb) = m(&b);
        let d = diff((&sa, &da, &na), (&sb, &db, &nb), &mut reg).unwrap();
        assert!(d.only_a.contains(&reg.id(names::TIMESTAMP).unwrap()));
        assert!(d.only_a.contains(&reg.id(names::KVS_KEY_HASH).unwrap()));
        assert!(d.common.contains(&reg.id(names::IP_CHECKSUM).unwrap()));
        assert!(d.only_b.is_empty(), "legacy e1000 has nothing mlx5 lacks");
        let txt = d.render(&reg);
        assert!(txt.contains("timestamp"), "{txt}");
    }

    #[test]
    fn same_contract_is_intent_equivalent() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("i").want(&mut reg, names::RSS_HASH).build();
        let a = models::mlx5();
        let (s, d, n) = m(&a);
        let e = intent_equivalent(
            &Compiler::default(),
            (&s, &d, &n),
            (&s, &d, &n),
            &intent,
            &mut reg,
        );
        assert_eq!(e, IntentEquivalence::Equivalent);
    }

    #[test]
    fn different_split_detected() {
        let mut reg = SemanticRegistry::with_builtins();
        // fig1 intent: mlx5 provides all four in hw; e1000e only csum+vlan.
        let intent = Intent::from_p4(crate::intent::FIG1_INTENT_P4, &mut reg).unwrap();
        let a = models::mlx5();
        let b = models::e1000e();
        let (sa, da, na) = m(&a);
        let (sb, db, nb) = m(&b);
        match intent_equivalent(
            &Compiler::default(),
            (&sa, &da, &na),
            (&sb, &db, &nb),
            &intent,
            &mut reg,
        ) {
            IntentEquivalence::DifferentSplit {
                a_provides,
                b_provides,
            } => {
                assert!(a_provides.len() > b_provides.len());
            }
            other => panic!("expected DifferentSplit, got {other:?}"),
        }
    }

    #[test]
    fn equivalence_despite_different_layouts() {
        // ixgbe and ice differ wildly in layout, but for {rss, vlan} both
        // provide everything in hardware → intent-equivalent.
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("i")
            .want(&mut reg, names::RSS_HASH)
            .want(&mut reg, names::VLAN_TCI)
            .build();
        let a = models::ixgbe();
        let b = models::ice();
        let (sa, da, na) = m(&a);
        let (sb, db, nb) = m(&b);
        assert_eq!(
            intent_equivalent(
                &Compiler::default(),
                (&sa, &da, &na),
                (&sb, &db, &nb),
                &intent,
                &mut reg,
            ),
            IntentEquivalence::Equivalent,
        );
    }

    #[test]
    fn one_sided_when_timestamp_requested() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("i")
            .want(&mut reg, names::TIMESTAMP)
            .build();
        let a = models::mlx5();
        let b = models::e1000e();
        let (sa, da, na) = m(&a);
        let (sb, db, nb) = m(&b);
        assert_eq!(
            intent_equivalent(
                &Compiler::default(),
                (&sa, &da, &na),
                (&sb, &db, &nb),
                &intent,
                &mut reg,
            ),
            IntentEquivalence::OneSided {
                satisfiable_on_a: true
            },
        );
    }
}
