//! Branch predicates over context fields.
//!
//! Every edge of the completion-deparser control-flow graph is labeled
//! with the condition that guards it (paper §4 step 1). Predicates are
//! symbolic expressions over *context* fields — the per-queue
//! configuration knobs the host programs into the NIC (`ctx.use_rss`,
//! `ctx.cqe_format`, ...). Selecting a completion path therefore also
//! yields the context assignment the driver must program, which
//! [`solve`] computes.

use opendesc_p4::ast;
use opendesc_p4::typecheck::CheckedProgram;
use opendesc_p4::types::Ty;
use std::collections::BTreeMap;
use std::fmt;

/// A dotted reference to a context field, e.g. `ctx.flags.use_rss`,
/// together with its bit width (needed to pick witnesses for `!=`/`<`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldRef {
    /// Path segments including the parameter name: `["ctx", "use_rss"]`.
    pub path: Vec<String>,
    pub width: u16,
}

impl FieldRef {
    pub fn new(path: &[&str], width: u16) -> Self {
        FieldRef {
            path: path.iter().map(|s| s.to_string()).collect(),
            width,
        }
    }

    /// Dotted rendering, `ctx.use_rss`.
    pub fn dotted(&self) -> String {
        self.path.join(".")
    }

    /// Maximum representable value for this field's width.
    fn max_value(&self) -> u128 {
        if self.width >= 128 {
            u128::MAX
        } else {
            (1u128 << self.width) - 1
        }
    }
}

/// The context field `e` names, if it names one: a scalar reached from
/// an `in` struct parameter of `params` through struct members only.
/// A path that crosses a header (per-packet metadata, an extracted
/// descriptor field), a local or a computed expression is not context,
/// whatever its type — the host programs a context once per queue, and
/// such a value changes per packet. The one rule both directions use:
/// RX turns anything else into [`Cond::Opaque`], TX refuses it.
pub(crate) fn context_field(
    checked: &CheckedProgram,
    params: &[ast::Param],
    e: ast::ExprId,
) -> Option<FieldRef> {
    let path = checked.program.path(e)?;
    let width = match member_ty(checked, params, ast::Direction::In, &path)? {
        Ty::Bit(w) => w,
        Ty::Bool => 1,
        Ty::Enum(id) => checked.types.enum_(id).repr_width,
        _ => return None,
    };
    Some(FieldRef {
        path: path.iter().map(|s| checked.name(*s).to_string()).collect(),
        width,
    })
}

/// The type of `path`: rooted at the parameter of `params` named by its
/// first segment, which must have direction `dir`, and continuing
/// through struct members only.
pub(crate) fn member_ty(
    checked: &CheckedProgram,
    params: &[ast::Param],
    dir: ast::Direction,
    path: &[ast::Sym],
) -> Option<Ty> {
    let param = params.iter().find(|p| p.name.name == path[0])?;
    if param.dir != Some(dir) {
        return None;
    }
    let mut ty = checked.param_ty(param)?;
    for seg in &path[1..] {
        let Ty::Struct(sid) = ty else {
            return None;
        };
        ty = checked.types.struct_(sid).field(*seg)?.ty;
    }
    Some(ty)
}

impl fmt::Display for FieldRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.dotted())
    }
}

/// Comparison operators in predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The operator that holds exactly when `self` does not.
    fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Apply to concrete values.
    pub fn eval(self, a: u128, b: u128) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A symbolic branch condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// Always true (unconditional edge).
    True,
    /// `field op constant`.
    Cmp {
        field: FieldRef,
        op: CmpOp,
        value: u128,
    },
    /// Logical negation.
    Not(Box<Cond>),
    /// Conjunction.
    And(Vec<Cond>),
    /// Disjunction.
    Or(Vec<Cond>),
    /// A condition the symbolic layer cannot analyze (e.g. comparing two
    /// fields). Paths guarded by opaque conditions are still enumerated
    /// but cannot be auto-configured; the display string is surfaced to
    /// the user.
    Opaque(String),
}

/// A concrete assignment of context fields, ordered for deterministic
/// output.
pub type Assignment = BTreeMap<FieldRef, u128>;

impl Cond {
    /// Negation with `Not` pushed inward over comparisons.
    pub fn negated(&self) -> Cond {
        match self {
            Cond::True => Cond::Opaque("false".into()),
            Cond::Cmp { field, op, value } => Cond::Cmp {
                field: field.clone(),
                op: op.negate(),
                value: *value,
            },
            Cond::Not(inner) => (**inner).clone(),
            Cond::And(cs) => Cond::Or(cs.iter().map(Cond::negated).collect()),
            Cond::Or(cs) => Cond::And(cs.iter().map(Cond::negated).collect()),
            Cond::Opaque(s) => Cond::Not(Box::new(Cond::Opaque(s.clone()))),
        }
    }

    /// Evaluate under a (total) assignment; unassigned fields read as 0.
    /// Returns `None` if the condition contains an opaque subterm.
    pub fn eval(&self, asn: &Assignment) -> Option<bool> {
        match self {
            Cond::True => Some(true),
            Cond::Cmp { field, op, value } => {
                let v = asn.get(field).copied().unwrap_or(0);
                Some(op.eval(v, *value))
            }
            Cond::Not(c) => c.eval(asn).map(|b| !b),
            Cond::And(cs) => {
                for c in cs {
                    if !c.eval(asn)? {
                        return Some(false);
                    }
                }
                Some(true)
            }
            Cond::Or(cs) => {
                for c in cs {
                    if c.eval(asn)? {
                        return Some(true);
                    }
                }
                Some(false)
            }
            Cond::Opaque(_) => None,
        }
    }

    /// Whether any subterm is opaque.
    pub fn has_opaque(&self) -> bool {
        match self {
            Cond::Opaque(_) => true,
            Cond::Not(c) => c.has_opaque(),
            Cond::And(cs) | Cond::Or(cs) => cs.iter().any(Cond::has_opaque),
            _ => false,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cond::True => write!(f, "true"),
            Cond::Cmp { field, op, value } => write!(f, "{field} {op} {value}"),
            Cond::Not(c) => write!(f, "!({c})"),
            Cond::And(cs) => {
                let parts: Vec<String> = cs.iter().map(|c| format!("({c})")).collect();
                write!(f, "{}", parts.join(" && "))
            }
            Cond::Or(cs) => {
                let parts: Vec<String> = cs.iter().map(|c| format!("({c})")).collect();
                write!(f, "{}", parts.join(" || "))
            }
            Cond::Opaque(s) => write!(f, "⟨{s}⟩"),
        }
    }
}

/// Find an assignment of context fields satisfying the conjunction of
/// `conds`, if one exists and no condition is opaque.
///
/// This is a tiny backtracking solver. Real contracts branch on a handful
/// of equality tests over per-queue config bits, so the search space is
/// trivially small; the solver still handles `!=`, orderings, and `||`
/// via backtracking for generality.
pub fn solve(conds: &[Cond]) -> Option<Assignment> {
    let mut asn = Assignment::new();
    if solve_rec(conds, 0, &mut asn) {
        Some(asn)
    } else {
        None
    }
}

fn solve_rec(conds: &[Cond], mut idx: usize, asn: &mut Assignment) -> bool {
    // A condition the assignment already decides moves on in a loop, not
    // in a call per conjunct: a switch's default arm has one per case,
    // and a 2 048-case switch must not need 2 048 frames.
    loop {
        let Some(cond) = conds.get(idx) else {
            // All constraints incorporated; verify (cheap — assignments
            // were kept consistent along the way, but Or backtracking can
            // leave stale entries in degenerate inputs).
            return conds.iter().all(|c| c.eval(asn) == Some(true));
        };
        match cond {
            Cond::True => {}
            Cond::Opaque(_) => return false,
            Cond::Not(inner) => {
                // Negating an opaque term yields `Not(Opaque)` again —
                // unsolvable, and recursing on it would never terminate.
                if inner.has_opaque() {
                    return false;
                }
                let neg = inner.negated();
                let mut sub = vec![neg];
                sub.extend_from_slice(&conds[idx + 1..]);
                return solve_rec(&sub, 0, asn);
            }
            Cond::And(cs) => {
                let mut sub: Vec<Cond> = cs.clone();
                sub.extend_from_slice(&conds[idx + 1..]);
                return solve_rec(&sub, 0, asn);
            }
            Cond::Or(cs) => {
                for c in cs {
                    let snapshot = asn.clone();
                    let mut sub = vec![c.clone()];
                    sub.extend_from_slice(&conds[idx + 1..]);
                    if solve_rec(&sub, 0, asn) {
                        return true;
                    }
                    *asn = snapshot;
                }
                return false;
            }
            Cond::Cmp { field, op, value } => {
                if let Some(&existing) = asn.get(field) {
                    if !op.eval(existing, *value) {
                        return false;
                    }
                } else {
                    return solve_field(conds, idx, field, *op, *value, asn);
                }
            }
        }
        idx += 1;
    }
}

/// `conds[idx]` compares `field`, which nothing has assigned yet: try
/// each witness that satisfies it against the rest.
fn solve_field(
    conds: &[Cond],
    idx: usize,
    field: &FieldRef,
    op: CmpOp,
    value: u128,
    asn: &mut Assignment,
) -> bool {
    // Backtrack over candidate witnesses: chained constraints on the same
    // field (e.g. a switch default arm's `!= 0 && != 1`) may reject the
    // first choice. Small fields are enumerated exhaustively (complete);
    // wide fields use a heuristic set gathered from every comparison
    // against this field in the remaining constraints.
    let max = field.max_value();
    let candidates: Vec<u128> = if field.width <= 10 {
        (0..=max).collect()
    } else {
        let mut c = vec![0u128, max];
        collect_candidates(&conds[idx..], field, &mut c);
        c.sort_unstable();
        c.dedup();
        c
    };
    for w in candidates {
        if w > max || !op.eval(w, value) {
            continue;
        }
        asn.insert(field.clone(), w);
        if solve_rec(conds, idx + 1, asn) {
            return true;
        }
        asn.remove(field);
    }
    false
}

/// Gather heuristic witness candidates for `field` from every comparison
/// mentioning it in `conds`: the compared value and its neighbours.
fn collect_candidates(conds: &[Cond], field: &FieldRef, out: &mut Vec<u128>) {
    for c in conds {
        match c {
            Cond::Cmp {
                field: f, value, ..
            } if f == field => {
                out.push(*value);
                out.push(value.wrapping_add(1));
                out.push(value.wrapping_sub(1));
            }
            Cond::Not(inner) => collect_candidates(std::slice::from_ref(inner), field, out),
            Cond::And(cs) | Cond::Or(cs) => collect_candidates(cs, field, out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(name: &str, width: u16) -> FieldRef {
        FieldRef::new(&["ctx", name], width)
    }

    fn eq(name: &str, width: u16, v: u128) -> Cond {
        Cond::Cmp {
            field: f(name, width),
            op: CmpOp::Eq,
            value: v,
        }
    }

    #[test]
    fn solve_single_equality() {
        let asn = solve(&[eq("use_rss", 1, 1)]).unwrap();
        assert_eq!(asn.get(&f("use_rss", 1)), Some(&1));
    }

    #[test]
    fn solve_conjunction_consistent() {
        let asn = solve(&[eq("a", 4, 3), eq("b", 4, 7)]).unwrap();
        assert_eq!(asn.len(), 2);
    }

    #[test]
    fn solve_detects_contradiction() {
        assert!(solve(&[eq("a", 4, 3), eq("a", 4, 5)]).is_none());
    }

    #[test]
    fn solve_negated_equality_picks_witness() {
        let c = Cond::Cmp {
            field: f("fmt", 2),
            op: CmpOp::Ne,
            value: 0,
        };
        let asn = solve(&[c]).unwrap();
        assert_ne!(asn[&f("fmt", 2)], 0);
        assert!(asn[&f("fmt", 2)] <= 3);
    }

    #[test]
    fn ne_on_1bit_field_saturated() {
        // bit<1> field != 0 must yield 1; != 1 must yield 0.
        let c = Cond::Cmp {
            field: f("b", 1),
            op: CmpOp::Ne,
            value: 1,
        };
        assert_eq!(solve(&[c]).unwrap()[&f("b", 1)], 0);
    }

    #[test]
    fn lt_zero_unsatisfiable() {
        let c = Cond::Cmp {
            field: f("x", 8),
            op: CmpOp::Lt,
            value: 0,
        };
        assert!(solve(&[c]).is_none());
    }

    #[test]
    fn gt_max_unsatisfiable() {
        let c = Cond::Cmp {
            field: f("x", 2),
            op: CmpOp::Gt,
            value: 3,
        };
        assert!(solve(&[c]).is_none());
    }

    #[test]
    fn or_backtracks() {
        // (a == 1 || a == 2) && a == 2 — first disjunct fails, must retry.
        let or = Cond::Or(vec![eq("a", 4, 1), eq("a", 4, 2)]);
        let asn = solve(&[or, eq("a", 4, 2)]).unwrap();
        assert_eq!(asn[&f("a", 4)], 2);
    }

    #[test]
    fn negation_pushed_inward() {
        let c = Cond::Not(Box::new(eq("a", 4, 3)));
        let asn = solve(&[c]).unwrap();
        assert_ne!(asn[&f("a", 4)], 3);
    }

    #[test]
    fn demorgan_negation_of_and() {
        let c = Cond::And(vec![eq("a", 4, 1), eq("b", 4, 2)]).negated();
        match &c {
            Cond::Or(cs) => assert_eq!(cs.len(), 2),
            other => panic!("expected Or, got {other:?}"),
        }
        assert!(solve(&[c]).is_some());
    }

    #[test]
    fn negated_opaque_terminates() {
        // Regression: solving `Not(Opaque)` used to recurse forever
        // (negating it reproduces itself).
        let c = Cond::Not(Box::new(Cond::Opaque("hdr.isValid()".into())));
        assert!(solve(std::slice::from_ref(&c)).is_none());
        assert!(solve(&[Cond::And(vec![c, Cond::True])]).is_none());
    }

    #[test]
    fn opaque_blocks_solving_but_not_enumeration() {
        let c = Cond::Opaque("hdr.a == hdr.b".into());
        assert!(solve(std::slice::from_ref(&c)).is_none());
        assert!(c.has_opaque());
        assert_eq!(c.eval(&Assignment::new()), None);
    }

    #[test]
    fn eval_defaults_unassigned_to_zero() {
        let c = eq("a", 4, 0);
        assert_eq!(c.eval(&Assignment::new()), Some(true));
    }

    #[test]
    fn solution_satisfies_all_conds() {
        let conds = vec![
            Cond::Or(vec![eq("fmt", 2, 0), eq("fmt", 2, 1)]),
            Cond::Cmp {
                field: f("fmt", 2),
                op: CmpOp::Ne,
                value: 0,
            },
            eq("use_ts", 1, 1),
        ];
        let asn = solve(&conds).unwrap();
        for c in &conds {
            assert_eq!(c.eval(&asn), Some(true), "cond {c} unsatisfied");
        }
        assert_eq!(asn[&f("fmt", 2)], 1);
    }

    #[test]
    fn display_renders_readably() {
        let c = Cond::And(vec![
            eq("use_rss", 1, 1),
            Cond::Cmp {
                field: f("fmt", 2),
                op: CmpOp::Ne,
                value: 2,
            },
        ]);
        let s = format!("{c}");
        assert!(s.contains("ctx.use_rss == 1"), "{s}");
        assert!(s.contains("ctx.fmt != 2"), "{s}");
    }
}
