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
use std::sync::Arc;

/// A reference to a context field, e.g. `ctx.flags.use_rss`, together
/// with its bit width (needed to pick witnesses for `!=`/`<`).
///
/// The dotted name is made once per contract and shared by every
/// condition and assignment that reads the field, so a clone costs a
/// reference count. Equality and order are textual, never by identity:
/// an assignment solved on one parse of a contract programs a device
/// booted from another. Dotted order is segment order, since `.` sorts
/// below every identifier byte.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldRef {
    /// Path segments including the parameter name, joined by `.`.
    dotted: Arc<str>,
    pub width: u16,
}

impl FieldRef {
    pub fn new(path: &[&str], width: u16) -> Self {
        FieldRef {
            dotted: path.join(".").into(),
            width,
        }
    }

    /// Dotted rendering, `ctx.use_rss`.
    pub fn dotted(&self) -> &str {
        &self.dotted
    }

    /// Path segments including the parameter name: `ctx`, `use_rss`.
    pub fn segments(&self) -> impl Iterator<Item = &str> {
        self.dotted.split('.')
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

/// The context fields one contract's conditions read, each made once
/// and handed out as clones.
#[derive(Default)]
pub(crate) struct ContextFields(Vec<FieldRef>);

impl ContextFields {
    /// The context field `e` names, if it names one: a scalar reached
    /// from an `in` struct parameter of `params` through struct members
    /// only. A path that crosses a header (per-packet metadata, an
    /// extracted descriptor field), a local or a computed expression is
    /// not context, whatever its type — the host programs a context once
    /// per queue, and such a value changes per packet. The one rule both
    /// directions use: RX turns anything else into [`Cond::Opaque`], TX
    /// refuses it.
    pub(crate) fn get(
        &mut self,
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
        let names = || path.iter().map(|s| checked.name(*s));
        if let Some(known) = (self.0.iter()).find(|f| f.width == width && f.segments().eq(names()))
        {
            return Some(known.clone());
        }
        let field = FieldRef {
            dotted: names().collect::<Vec<_>>().join(".").into(),
            width,
        };
        self.0.push(field.clone());
        Some(field)
    }
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
        f.write_str(&self.dotted)
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
        f.write_str(match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// A symbolic branch condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// Always true (unconditional edge).
    True,
    /// Never true: `if (false)`, or the other arm of `if (true)`.
    False,
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
    Opaque(Arc<str>),
}

/// A concrete assignment of context fields, ordered for deterministic
/// output.
pub type Assignment = BTreeMap<FieldRef, u128>;

impl Cond {
    /// Negation with `Not` pushed inward over comparisons.
    pub fn negated(&self) -> Cond {
        match self {
            Cond::True => Cond::False,
            Cond::False => Cond::True,
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
    /// Three-valued: `None` when the answer depends on an opaque
    /// subterm, so `opaque || true` holds and `opaque && false` fails.
    pub fn eval(&self, asn: &Assignment) -> Option<bool> {
        match self {
            Cond::True => Some(true),
            Cond::False => Some(false),
            Cond::Cmp { field, op, value } => {
                let v = asn.get(field).copied().unwrap_or(0);
                Some(op.eval(v, *value))
            }
            Cond::Not(c) => c.eval(asn).map(|b| !b),
            Cond::And(cs) | Cond::Or(cs) => {
                // `And` is decided by the first false term, `Or` by the
                // first true one.
                let decides = matches!(self, Cond::Or(_));
                let mut known = true;
                for c in cs {
                    match c.eval(asn) {
                        Some(b) if b == decides => return Some(decides),
                        Some(_) => {}
                        None => known = false,
                    }
                }
                known.then_some(!decides)
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
            Cond::True => f.write_str("true"),
            Cond::False => f.write_str("false"),
            Cond::Cmp { field, op, value } => write!(f, "{field} {op} {value}"),
            Cond::Not(c) => write!(f, "!({c})"),
            Cond::And(cs) | Cond::Or(cs) => {
                let sep = if matches!(self, Cond::And(_)) {
                    " && "
                } else {
                    " || "
                };
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(sep)?;
                    }
                    write!(f, "({c})")?;
                }
                Ok(())
            }
            Cond::Opaque(s) => write!(f, "⟨{s}⟩"),
        }
    }
}

/// Write the conjunction `guard` as `(a) && (b)`, or `unconditional`
/// when it is empty.
pub(crate) fn write_guard(f: &mut impl fmt::Write, guard: &[Cond]) -> fmt::Result {
    if guard.is_empty() {
        return f.write_str("unconditional");
    }
    for (i, c) in guard.iter().enumerate() {
        if i > 0 {
            f.write_str(" && ")?;
        }
        write!(f, "{c}")?;
    }
    Ok(())
}

/// Why a guard has no context assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unsolved {
    /// Nothing makes the guard hold — no assignment of the fields it
    /// compares, whatever its opaque terms read: the path is never
    /// taken.
    Unsatisfiable,
    /// Only an opaque term could make the guard hold: the path needs a
    /// configuration the host makes by hand.
    Opaque,
}

/// Find an assignment of context fields under which the conjunction
/// `conds` holds whatever its opaque terms read.
///
/// The verdict is three-way. `Ok` is the assignment, with the smallest
/// witness for each field in the order the fields are first compared.
/// Otherwise the search runs again with every opaque term taken as true
/// (each occurrence on its own): if that succeeds the guard is
/// [`Unsolved::Opaque`], else [`Unsolved::Unsatisfiable`].
///
/// The search works on the guard in place. It backtracks over the arms
/// of each disjunction and over the witnesses of each field; a field is
/// chosen at its first comparison, from the values that no comparison on
/// it in the rest of the conjunction rejects (bounds, plus a sorted
/// exclusion list for `!=`), so a switch's default arm — one `!=` per
/// case — costs one sort, not one retry per case.
pub fn solve(conds: &[Cond]) -> Result<Assignment, Unsolved> {
    let top = Todo {
        items: conds,
        neg: false,
        rest: None,
    };
    let mut s = Solver {
        fields: Vec::new(),
        opaque_holds: false,
        saw_opaque: false,
    };
    if s.sat(top) {
        let mut asn = Assignment::new();
        for (field, v) in s.fields {
            asn.insert(field.clone(), v);
        }
        return Ok(asn);
    }
    if !s.saw_opaque {
        return Err(Unsolved::Unsatisfiable);
    }
    s.opaque_holds = true;
    Err(if s.sat(top) {
        Unsolved::Opaque
    } else {
        Unsolved::Unsatisfiable
    })
}

/// What is left to satisfy: `items`, each negated when `neg`, then
/// everything `rest` holds. Every level is a conjunction; a disjunction
/// is a choice, made by pushing one of its arms as a level of its own.
#[derive(Clone, Copy)]
struct Todo<'g, 't> {
    items: &'g [Cond],
    neg: bool,
    rest: Option<&'t Todo<'g, 't>>,
}

impl<'g> Todo<'g, '_> {
    /// Visit every conjunct still to satisfy, with its polarity.
    fn each(&self, visit: &mut impl FnMut(&'g Cond, bool)) {
        let mut level = Some(self);
        while let Some(t) = level {
            for c in t.items {
                visit(c, t.neg);
            }
            level = t.rest;
        }
    }
}

struct Solver<'g> {
    /// Fields chosen so far, in the order they were first compared.
    fields: Vec<(&'g FieldRef, u128)>,
    /// Second pass: an opaque term counts as satisfied.
    opaque_holds: bool,
    /// The first pass met an opaque term.
    saw_opaque: bool,
}

impl<'g> Solver<'g> {
    /// Whether `todo` can be satisfied by extending `self.fields`. A
    /// `false` leaves `self.fields` as it found it. A conjunct the
    /// current choice already decides is checked in the loop, not in a
    /// call: a switch's default arm has one per case.
    fn sat(&mut self, mut todo: Todo<'g, '_>) -> bool {
        loop {
            let Some((cond, items)) = todo.items.split_first() else {
                match todo.rest {
                    Some(rest) => {
                        todo = *rest;
                        continue;
                    }
                    None => return true,
                }
            };
            todo.items = items;
            match cond {
                Cond::True | Cond::False => {
                    if matches!(cond, Cond::False) != todo.neg {
                        return false;
                    }
                }
                Cond::Opaque(_) => {
                    self.saw_opaque = true;
                    if !self.opaque_holds {
                        return false;
                    }
                }
                Cond::Cmp { field, op, value } => {
                    let op = if todo.neg { op.negate() } else { *op };
                    match self.fields.iter().find(|(f, _)| *f == field) {
                        Some(&(_, v)) if op.eval(v, *value) => {}
                        Some(_) => return false,
                        None => return self.choose(field, op, *value, todo),
                    }
                }
                Cond::Not(inner) => {
                    let inner = Todo {
                        items: std::slice::from_ref(&**inner),
                        neg: !todo.neg,
                        rest: Some(&todo),
                    };
                    return self.sat(inner);
                }
                Cond::And(cs) | Cond::Or(cs) => {
                    if matches!(cond, Cond::And(_)) != todo.neg {
                        let all = Todo {
                            items: cs,
                            neg: todo.neg,
                            rest: Some(&todo),
                        };
                        return self.sat(all);
                    }
                    return cs.iter().any(|c| {
                        self.sat(Todo {
                            items: std::slice::from_ref(c),
                            neg: todo.neg,
                            rest: Some(&todo),
                        })
                    });
                }
            }
        }
    }

    /// `field op value` is the first comparison on `field`: try, in
    /// ascending order, each witness that no comparison on `field`
    /// standing in the rest of the conjunction rejects.
    ///
    /// The smallest value a satisfying assignment can give the field is
    /// its lower bound or one past an excluded value — under the
    /// conjunction's own comparisons, or under those of whichever
    /// disjunction arms the rest of the search takes. So the candidates
    /// are the bound, each exclusion plus one, and each value a
    /// comparison inside a disjunction pivots on, and the search stays
    /// complete at any width.
    fn choose(&mut self, field: &'g FieldRef, op: CmpOp, value: u128, rest: Todo<'g, '_>) -> bool {
        let mut range = Range {
            lo: 0,
            hi: field.max_value(),
            excluded: Vec::new(),
        };
        range.admit(op, value);
        let mut pivots = Vec::new();
        rest.each(&mut |c, neg| range.collect(c, neg, field, &mut pivots));
        if range.lo > range.hi {
            return false;
        }
        let Range { lo, hi, excluded } = &mut range;
        excluded.sort_unstable();
        excluded.dedup();
        let mut candidates = pivots;
        candidates.push(*lo);
        candidates.extend(excluded.iter().filter_map(|e| e.checked_add(1)));
        candidates.retain(|w| (*lo..=*hi).contains(w) && excluded.binary_search(w).is_err());
        candidates.sort_unstable();
        candidates.dedup();
        for w in candidates {
            self.fields.push((field, w));
            if self.sat(rest) {
                return true;
            }
            self.fields.pop();
        }
        false
    }
}

/// The values one field may take: `lo..=hi` minus `excluded` (empty
/// when `lo > hi`).
struct Range {
    lo: u128,
    hi: u128,
    excluded: Vec<u128>,
}

impl Range {
    /// Narrow to the values `op value` accepts.
    fn admit(&mut self, op: CmpOp, value: u128) {
        let (lo, hi) = match op {
            CmpOp::Eq => (value, value),
            CmpOp::Ne => {
                self.excluded.push(value);
                return;
            }
            CmpOp::Le => (0, value),
            CmpOp::Ge => (value, u128::MAX),
            CmpOp::Lt => match value.checked_sub(1) {
                Some(hi) => (0, hi),
                None => (1, 0),
            },
            CmpOp::Gt => match value.checked_add(1) {
                Some(lo) => (lo, u128::MAX),
                None => (1, 0),
            },
        };
        self.lo = self.lo.max(lo);
        self.hi = self.hi.min(hi);
    }

    /// Fold in `cond` (negated when `neg`), one conjunct of the rest: a
    /// comparison on `field` standing in the conjunction narrows the
    /// range; one inside a disjunction contributes its pivot values.
    fn collect(&mut self, cond: &Cond, neg: bool, field: &FieldRef, pivots: &mut Vec<u128>) {
        match cond {
            Cond::Cmp {
                field: f,
                op,
                value,
            } if f == field => {
                self.admit(if neg { op.negate() } else { *op }, *value);
            }
            Cond::Not(inner) => self.collect(inner, !neg, field, pivots),
            Cond::And(cs) if !neg => cs.iter().for_each(|c| self.collect(c, neg, field, pivots)),
            Cond::Or(cs) if neg => cs.iter().for_each(|c| self.collect(c, neg, field, pivots)),
            Cond::And(cs) | Cond::Or(cs) => cs.iter().for_each(|c| pivot_values(c, field, pivots)),
            _ => {}
        }
    }
}

/// The values every comparison on `field` inside `cond` pivots on: its
/// constant and the constant's neighbours.
fn pivot_values(cond: &Cond, field: &FieldRef, out: &mut Vec<u128>) {
    match cond {
        Cond::Cmp {
            field: f, value, ..
        } if f == field => {
            out.push(*value);
            out.extend(value.checked_add(1));
            out.extend(value.checked_sub(1));
        }
        Cond::Not(inner) => pivot_values(inner, field, out),
        Cond::And(cs) | Cond::Or(cs) => cs.iter().for_each(|c| pivot_values(c, field, out)),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn f(name: &str, width: u16) -> FieldRef {
        FieldRef::new(&["ctx", name], width)
    }

    fn cmp(name: &str, width: u16, op: CmpOp, value: u128) -> Cond {
        Cond::Cmp {
            field: f(name, width),
            op,
            value,
        }
    }

    fn eq(name: &str, width: u16, v: u128) -> Cond {
        cmp(name, width, CmpOp::Eq, v)
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
        let verdict = solve(&[eq("a", 4, 3), eq("a", 4, 5)]);
        assert_eq!(verdict, Err(Unsolved::Unsatisfiable));
    }

    #[test]
    fn solve_negated_equality_picks_witness() {
        let asn = solve(&[cmp("fmt", 2, CmpOp::Ne, 0)]).unwrap();
        assert_ne!(asn[&f("fmt", 2)], 0);
        assert!(asn[&f("fmt", 2)] <= 3);
    }

    #[test]
    fn ne_on_1bit_field_saturated() {
        // bit<1> field != 0 must yield 1; != 1 must yield 0.
        assert_eq!(solve(&[cmp("b", 1, CmpOp::Ne, 1)]).unwrap()[&f("b", 1)], 0);
    }

    #[test]
    fn lt_zero_unsatisfiable() {
        let verdict = solve(&[cmp("x", 8, CmpOp::Lt, 0)]);
        assert_eq!(verdict, Err(Unsolved::Unsatisfiable));
    }

    #[test]
    fn gt_max_unsatisfiable() {
        let verdict = solve(&[cmp("x", 2, CmpOp::Gt, 3)]);
        assert_eq!(verdict, Err(Unsolved::Unsatisfiable));
    }

    #[test]
    fn false_is_unsatisfiable_not_opaque() {
        // `if (false)` and the other arm of `if (true)`: no context
        // reaches them, and no opaque term is involved.
        assert_eq!(solve(&[Cond::False]), Err(Unsolved::Unsatisfiable));
        let dead = [eq("use_rss", 1, 1), Cond::True.negated()];
        assert_eq!(solve(&dead), Err(Unsolved::Unsatisfiable));
        assert_eq!(format!("{}", dead[1]), "false");
        assert_eq!(solve(&[Cond::False.negated()]), Ok(Assignment::new()));
    }

    #[test]
    fn opaque_beside_a_contradiction_is_unsatisfiable() {
        let op = Cond::Opaque("hdr.a == hdr.b".into());
        let dead = [op.clone(), eq("a", 1, 1), eq("a", 1, 0)];
        assert_eq!(solve(&dead), Err(Unsolved::Unsatisfiable));
        assert_eq!(solve(&[op, eq("a", 1, 1)]), Err(Unsolved::Opaque));
    }

    #[test]
    fn or_backtracks() {
        // (a == 1 || a == 2) && a == 2 — first disjunct fails, must retry.
        let or = Cond::Or(vec![eq("a", 4, 1), eq("a", 4, 2)]);
        let asn = solve(&[or, eq("a", 4, 2)]).unwrap();
        assert_eq!(asn[&f("a", 4)], 2);
    }

    #[test]
    fn an_opaque_disjunct_is_passed_over() {
        let or = Cond::Or(vec![Cond::Opaque("hdr.x".into()), eq("a", 4, 9)]);
        let asn = solve(std::slice::from_ref(&or)).unwrap();
        assert_eq!(asn[&f("a", 4)], 9);
        assert_eq!(or.eval(&asn), Some(true));
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
        assert!(solve(&[c]).is_ok());
    }

    #[test]
    fn negated_opaque_terminates() {
        // Regression: solving `Not(Opaque)` used to recurse forever
        // (negating it reproduces itself).
        let c = Cond::Not(Box::new(Cond::Opaque("hdr.isValid()".into())));
        assert_eq!(solve(std::slice::from_ref(&c)), Err(Unsolved::Opaque));
        let both = [Cond::And(vec![c, Cond::True])];
        assert_eq!(solve(&both), Err(Unsolved::Opaque));
    }

    #[test]
    fn opaque_blocks_solving_but_not_enumeration() {
        let c = Cond::Opaque("hdr.a == hdr.b".into());
        assert_eq!(solve(std::slice::from_ref(&c)), Err(Unsolved::Opaque));
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
            cmp("fmt", 2, CmpOp::Ne, 0),
            eq("use_ts", 1, 1),
        ];
        let asn = solve(&conds).unwrap();
        for c in &conds {
            assert_eq!(c.eval(&asn), Some(true), "cond {c} unsatisfied");
        }
        assert_eq!(asn[&f("fmt", 2)], 1);
    }

    #[test]
    fn a_default_arm_takes_the_first_uncovered_value() {
        // A 16-bit switch with 2 048 cases: the default arm's witness is
        // the smallest value no case names, on a wide field and a narrow
        // one alike.
        for width in [16, 12] {
            let covered: Vec<u128> = (0..2048).filter(|v| *v != 700).collect();
            let default = Cond::And(
                (covered.iter())
                    .map(|v| cmp("layout_id", width, CmpOp::Ne, *v))
                    .collect(),
            );
            let asn = solve(std::slice::from_ref(&default)).unwrap();
            assert_eq!(asn[&f("layout_id", width)], 700);
        }
        let full = Cond::And((0..4).map(|v| cmp("sel", 2, CmpOp::Ne, v)).collect());
        assert_eq!(solve(&[full]), Err(Unsolved::Unsatisfiable));
    }

    #[test]
    fn display_renders_readably() {
        let c = Cond::And(vec![eq("use_rss", 1, 1), cmp("fmt", 2, CmpOp::Ne, 2)]);
        let s = format!("{c}");
        assert_eq!(s, "(ctx.use_rss == 1) && (ctx.fmt != 2)");
        let mut g = String::new();
        write_guard(&mut g, &[c, Cond::Or(vec![eq("a", 1, 0)])]).unwrap();
        assert_eq!(g, "(ctx.use_rss == 1) && (ctx.fmt != 2) && (ctx.a == 0)");
    }

    #[test]
    fn order_is_textual_and_dotted_order_is_segment_order() {
        let a = FieldRef::new(&["ctx", "a", "x"], 1);
        let ab = FieldRef::new(&["ctx", "ab"], 1);
        let b = FieldRef::new(&["ctx", "a_"], 1);
        assert!(a < ab && a < b);
        assert_eq!(a.segments().collect::<Vec<_>>(), ["ctx", "a", "x"]);
        assert_eq!(a, FieldRef::new(&["ctx", "a", "x"], 1));
    }

    /// A deterministic random guard over `fields`: comparisons (`==`,
    /// `!=`, `<`, `<=`, constants up to one past the field's range),
    /// `False`, the odd opaque term, and `And`/`Or`/`Not` up to `depth`.
    fn arb_cond(rng: &mut u64, fields: &[FieldRef], depth: u32) -> Cond {
        let mut next = |n: u64| {
            *rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*rng >> 33) % n
        };
        match next(if depth == 0 { 10 } else { 16 }) {
            0 => Cond::False,
            1 => Cond::Opaque("hdr.x".into()),
            2..=9 => {
                let field = fields[next(fields.len() as u64) as usize].clone();
                let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le][next(4) as usize];
                let value = next(field.max_value() as u64 + 2) as u128;
                Cond::Cmp { field, op, value }
            }
            10 | 11 => Cond::Not(Box::new(arb_cond(rng, fields, depth - 1))),
            k => {
                let n = 2 + next(2);
                let cs = (0..n).map(|_| arb_cond(rng, fields, depth - 1)).collect();
                if k < 14 {
                    Cond::And(cs)
                } else {
                    Cond::Or(cs)
                }
            }
        }
    }

    /// `cond` with its opaque terms read, in order, from `bits`.
    fn eval_opaque_as(cond: &Cond, asn: &Assignment, bits: u32, next: &mut u32) -> bool {
        match cond {
            Cond::Opaque(_) => {
                *next += 1;
                bits >> (*next - 1) & 1 == 1
            }
            Cond::Not(c) => !eval_opaque_as(c, asn, bits, next),
            Cond::And(cs) | Cond::Or(cs) => {
                // Every term is read, so each opaque term keeps its bit.
                let held = (cs.iter())
                    .filter(|c| eval_opaque_as(c, asn, bits, next))
                    .count();
                if matches!(cond, Cond::And(_)) {
                    held == cs.len()
                } else {
                    held > 0
                }
            }
            other => other.eval(asn).expect("no opaque term"),
        }
    }

    fn opaque_terms(cond: &Cond) -> u32 {
        match cond {
            Cond::Opaque(_) => 1,
            Cond::Not(c) => opaque_terms(c),
            Cond::And(cs) | Cond::Or(cs) => cs.iter().map(opaque_terms).sum(),
            _ => 0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The solver against brute force over every assignment of up to
        /// three fields of up to four bits (and every reading of each
        /// opaque term): `Ok` exactly when some assignment makes the
        /// guard hold whatever its opaque terms read, and then its own
        /// assignment does; `Opaque` exactly when only some reading of
        /// the opaque terms does; `Unsatisfiable` otherwise.
        #[test]
        fn solver_agrees_with_brute_force(
            seed in any::<u64>(),
            widths in proptest::collection::vec(1u16..=4, 1..=3),
            conjuncts in 1usize..=4,
        ) {
            let fields: Vec<FieldRef> = (widths.iter().enumerate())
                .map(|(i, w)| f(&format!("f{i}"), *w))
                .collect();
            let mut rng = seed;
            let guard: Vec<Cond> = (0..conjuncts).map(|_| arb_cond(&mut rng, &fields, 3)).collect();
            let opaque: u32 = guard.iter().map(opaque_terms).sum();
            if opaque > 8 {
                return Ok(());
            }
            let (mut holds, mut could_hold) = (false, false);
            let total: u128 = fields.iter().map(|f| f.max_value() + 1).product();
            for code in 0..total {
                let mut asn = Assignment::new();
                let mut rest = code;
                for field in &fields {
                    asn.insert(field.clone(), rest % (field.max_value() + 1));
                    rest /= field.max_value() + 1;
                }
                holds |= guard.iter().all(|c| c.eval(&asn) == Some(true));
                could_hold |= (0..1u32 << opaque).any(|bits| {
                    let mut next = 0;
                    guard.iter().all(|c| eval_opaque_as(c, &asn, bits, &mut next))
                });
            }
            let shown: Vec<String> = guard.iter().map(|c| c.to_string()).collect();
            match solve(&guard) {
                Ok(asn) => {
                    prop_assert!(holds, "solved {shown:?}, which nothing satisfies");
                    for c in &guard {
                        prop_assert_eq!(c.eval(&asn), Some(true), "{} under {:?}", c, asn);
                    }
                }
                Err(Unsolved::Opaque) => {
                    prop_assert!(!holds && could_hold, "{shown:?} called opaque");
                }
                Err(Unsolved::Unsatisfiable) => {
                    prop_assert!(!could_hold, "{shown:?} called unsatisfiable");
                }
            }
        }
    }
}
