//! TX descriptor-layout enumeration from a `DescParser` (paper §3,
//! channel ① — the host-produced transmit descriptor).
//!
//! The RX direction enumerates *completion paths* through the deparser;
//! the TX direction mirrors it: each accept-terminated walk through the
//! descriptor parser's state machine is one *descriptor layout* the NIC
//! can consume, guarded by the `select` conditions on the per-queue H2C
//! context. `@semantic` annotations on descriptor fields name the hints
//! the NIC consumes (`buf_addr`, `buf_len`, `tx_l4_csum_offload`, ...).
//!
//! The enumeration is the whole of what a device executes: it resolves
//! the layout from the programmed context once and then reads fields at
//! fixed offsets. So a parser the table cannot express exactly is
//! refused here, naming the state and the expression, rather than
//! enumerated approximately:
//!
//! * a `select` on anything but a field of an `in` context struct (the
//!   rule [`pred`](crate::pred) keeps for both directions) — an
//!   extracted descriptor field makes the layout a property of each
//!   descriptor, not of the queue;
//! * a tuple `select`, or a case with more than one label;
//! * a label that is not a compile-time constant;
//! * a state that does anything but `extract` into the `out`
//!   descriptor;
//! * a layout carrying one semantic twice, or lacking `buf_addr` or
//!   `buf_len`;
//! * a `buf_addr` narrower than 64 bits: the host writes a 64-bit DMA
//!   address into it, and a truncated one would name another buffer.

use crate::path::FieldSlot;
use crate::pred::{member_ty, solve, Assignment, CmpOp, Cond, ContextFields, Unsolved};
use crate::semantics::{names, SemanticId, SemanticRegistry};
use opendesc_p4::ast::{self, Direction, ExprId, Sym, Transition};
use opendesc_p4::diag::Diagnostics;
use opendesc_p4::pretty::expr;
use opendesc_p4::span::Span;
use opendesc_p4::typecheck::CheckedProgram;
use opendesc_p4::types::{ExternKind, HeaderId, Ty};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One descriptor layout the NIC's parser accepts.
#[derive(Debug, Clone)]
pub struct DescriptorLayout {
    pub id: usize,
    /// Conjunction of select guards (over the H2C context) on this walk.
    pub guard: Vec<Cond>,
    /// Flattened fields with absolute bit offsets within the descriptor.
    pub slots: Vec<FieldSlot>,
    pub size_bits: u32,
    /// Semantics the NIC consumes from this layout, each from one slot.
    pub consumes: BTreeSet<SemanticId>,
    /// State names visited (diagnostic aid), shared with every layout
    /// whose walk visits the same state.
    pub states: Vec<Arc<str>>,
}

impl DescriptorLayout {
    pub fn size_bytes(&self) -> u32 {
        self.size_bits.div_ceil(8)
    }

    /// Context assignment steering the queue onto this layout, or why
    /// there is none (see [`CompletionPath::solve_context`](crate::path::CompletionPath::solve_context)).
    pub fn solve_context(&self) -> Result<Assignment, Unsolved> {
        solve(&self.guard)
    }

    /// Slot consuming semantic `sem`.
    pub fn slot_for(&self, sem: SemanticId) -> Option<&FieldSlot> {
        self.slots.iter().find(|s| s.semantic == Some(sem))
    }
}

/// Enumerate the layouts of parser `name`. Parser loops are rejected
/// (descriptor formats are finite); select guards become layout guards;
/// what the layout table cannot express is refused (see the module
/// docs).
pub fn enumerate_tx_layouts(
    checked: &CheckedProgram,
    name: &str,
    reg: &mut SemanticRegistry,
) -> Result<Vec<DescriptorLayout>, Diagnostics> {
    let mut diags = Diagnostics::new();
    let Some(parser) = checked.program.parser(name) else {
        diags.error(
            format!("no parser named `{name}` in contract"),
            Span::default(),
        );
        return Err(diags);
    };
    if !parser.type_params.is_empty() || parser.states.is_none() {
        diags.error(
            format!("parser `{name}` is a bodiless template; enumeration needs a concrete parser"),
            parser.name.span,
        );
        return Err(diags);
    }

    // The desc_in param is the extraction source, the `out` param the
    // descriptor every extract must land in.
    let mut desc_param = None;
    let mut out_param = None;
    for p in &parser.params {
        match checked.param_ty(p) {
            Some(Ty::Extern(ExternKind::DescIn | ExternKind::PacketIn)) => {
                desc_param = Some(p.name.name);
            }
            Some(Ty::Extern(_)) | None => {}
            Some(_) if p.dir == Some(ast::Direction::Out) => out_param = Some(p.name.name),
            Some(_) => {}
        }
    }
    let (Some(desc_param), Some(out_param)) = (desc_param, out_param) else {
        diags.error(
            format!("parser `{name}` needs a desc_in parameter and an `out` descriptor"),
            parser.name.span,
        );
        return Err(diags);
    };

    let buf = [names::BUF_ADDR, names::BUF_LEN].map(|n| reg.intern(n));
    let mut walker = Walker {
        checked,
        reg,
        desc_param,
        out_param,
        buf,
        parser,
        context: ContextFields::default(),
        headers: Vec::new(),
        states: Vec::new(),
        guard: Vec::new(),
        extracted: Vec::new(),
        visited: Vec::new(),
        out: Vec::new(),
        diags: Diagnostics::new(),
    };
    walker.walk(Sym::START, 0);
    if walker.diags.has_errors() {
        return Err(walker.diags);
    }
    Ok(walker.out)
}

struct Walker<'a> {
    checked: &'a CheckedProgram,
    reg: &'a mut SemanticRegistry,
    desc_param: Sym,
    out_param: Sym,
    /// `buf_addr` and `buf_len`: every layout must carry both.
    buf: [SemanticId; 2],
    parser: &'a ast::ParserDecl,
    context: ContextFields,
    /// Each extracted header's slots, offsets from the header's start:
    /// named once, shared by every layout that extracts the header.
    headers: Vec<(HeaderId, Vec<FieldSlot>)>,
    /// Each visited state's name, made once.
    states: Vec<(Sym, Arc<str>)>,
    /// The walk so far: select guards taken, headers extracted, states
    /// visited.
    guard: Vec<Cond>,
    extracted: Vec<HeaderId>,
    visited: Vec<Sym>,
    out: Vec<DescriptorLayout>,
    diags: Diagnostics,
}

impl<'a> Walker<'a> {
    fn name(&self, sym: Sym) -> &'a str {
        self.checked.name(sym)
    }

    fn expr(&self, e: ExprId) -> String {
        expr(&self.checked.program, e)
    }

    fn state(&self, name: Sym) -> Option<&'a ast::StateDecl> {
        self.parser
            .states
            .as_ref()
            .unwrap()
            .iter()
            .find(|s| s.name.name == name)
    }

    /// Refuse the parser: `what` in state `state` has no table form.
    fn refuse(&mut self, state: Sym, what: String, span: Span) {
        self.diags.error(
            format!(
                "parser `{}`, state `{}`: {what}; the device resolves one descriptor \
                 layout per queue context and reads it as a table",
                self.name(self.parser.name.name),
                self.name(state)
            ),
            span,
        );
    }

    fn walk(&mut self, state_name: Sym, depth: u32) {
        if depth > 64 {
            self.diags.error(
                "parser walk exceeded depth 64 (cyclic states?)",
                self.parser.name.span,
            );
            return;
        }
        match state_name {
            Sym::ACCEPT => return self.accept(),
            Sym::REJECT => return,
            _ => {}
        }
        let Some(st) = self.state(state_name) else {
            self.diags.error(
                format!("transition to unknown state `{}`", self.name(state_name)),
                self.parser.name.span,
            );
            return;
        };
        self.visited.push(state_name);
        let extracted_before = self.extracted.len();
        for stmt in &st.stmts {
            match self.extract_into_out(stmt) {
                Some(hid) => self.extracted.push(hid),
                None => {
                    let what = match &stmt.kind {
                        ast::StmtKind::Expr(e) => format!("`{}`", self.expr(*e)),
                        ast::StmtKind::Assign { lhs, rhs } => {
                            format!("`{} = {}`", self.expr(*lhs), self.expr(*rhs))
                        }
                        _ => "a statement".to_string(),
                    };
                    let why = format!(
                        "{what} is not an extract into `{}`",
                        self.name(self.out_param)
                    );
                    self.refuse(state_name, why, stmt.span);
                }
            }
        }
        match &st.transition {
            None => self.accept(),
            Some(Transition::Direct(t)) => self.walk(t.name, depth + 1),
            Some(Transition::Select { exprs, cases, span }) => {
                self.walk_select(state_name, exprs, cases, *span, depth);
            }
        }
        self.extracted.truncate(extracted_before);
        self.visited.pop();
    }

    /// One `select`: each reachable case becomes a guard over the
    /// context field it reads. Cases are tried in order, like the
    /// parser: a label an earlier case already took, and everything
    /// after a `default`, is unreachable and walks nowhere.
    fn walk_select(
        &mut self,
        state_name: Sym,
        exprs: &[ExprId],
        cases: &[ast::SelectCase],
        span: Span,
        depth: u32,
    ) {
        let shown = |w: &Self| {
            (exprs.iter().map(|e| w.expr(*e)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let [scrutinee] = exprs else {
            let why = format!("`select({})` is a tuple select", shown(self));
            self.refuse(state_name, why, span);
            return;
        };
        let Some(field) = self
            .context
            .get(self.checked, &self.parser.params, *scrutinee)
        else {
            let why = format!(
                "`select` reads `{}`, which is not a field of an `in` context struct",
                shown(self)
            );
            self.refuse(state_name, why, span);
            return;
        };
        let mut covered: Vec<u128> = Vec::new();
        for case in cases {
            let [label] = case.matches.as_slice() else {
                self.refuse(
                    state_name,
                    "a select case has a tuple keyset".into(),
                    case.span,
                );
                return;
            };
            let cond = match label {
                ast::SelectMatch::Default => Cond::And(
                    covered
                        .iter()
                        .map(|v| Cond::Cmp {
                            field: field.clone(),
                            op: CmpOp::Ne,
                            value: *v,
                        })
                        .collect(),
                ),
                ast::SelectMatch::Expr(e) => {
                    let Some(v) = self.checked.const_eval(*e) else {
                        let why = format!("select label `{}` is not a constant", self.expr(*e));
                        self.refuse(state_name, why, self.checked.expr(*e).span);
                        return;
                    };
                    if covered.contains(&v) {
                        continue;
                    }
                    covered.push(v);
                    Cond::Cmp {
                        field: field.clone(),
                        op: CmpOp::Eq,
                        value: v,
                    }
                }
            };
            self.guard.push(cond);
            self.walk(case.target.name, depth + 1);
            self.guard.pop();
            if matches!(label, ast::SelectMatch::Default) {
                break;
            }
        }
        // P4 select without default rejects unmatched inputs — no
        // implicit layout.
    }

    /// The header `stmt` extracts into the `out` descriptor, when it is
    /// exactly such an extract.
    fn extract_into_out(&self, stmt: &ast::Stmt) -> Option<HeaderId> {
        let ast::StmtKind::Expr(e) = &stmt.kind else {
            return None;
        };
        let ast::ExprKind::Call { callee, args } = &self.checked.expr(*e).kind else {
            return None;
        };
        let callee = self.checked.program.path(*callee)?;
        if callee != [self.desc_param, Sym::EXTRACT] || args.len() != 1 {
            return None;
        }
        let path = self.checked.program.path(args[0])?;
        match member_ty(self.checked, &self.parser.params, Direction::Out, &path)? {
            Ty::Header(h) => Some(h),
            _ => None,
        }
    }

    /// The walk reached `accept`: one layout, unless it carries a
    /// semantic twice, misses a buffer field or has a `buf_addr` too
    /// narrow for a host address.
    fn accept(&mut self) {
        let layout = self.materialize();
        let slots = &layout.slots;
        let twice = (slots.iter().enumerate()).find_map(|(i, s)| {
            s.semantic
                .filter(|sem| slots[..i].iter().any(|t| t.semantic == Some(*sem)))
        });
        let missing = (self.buf.iter()).find(|sem| !layout.consumes.contains(sem));
        let narrow = layout.slot_for(self.buf[0]).filter(|s| s.width_bits < 64);
        let why = match (twice, missing, narrow) {
            (Some(sem), _, _) => format!("carries `{}` twice", self.reg.name(sem)),
            (None, Some(sem), _) => format!("has no `{}` field", self.reg.name(*sem)),
            (None, None, Some(s)) => format!(
                "has a {}-bit `buf_addr`; a host DMA address takes 64",
                s.width_bits
            ),
            (None, None, None) => return self.out.push(layout),
        };
        let why = format!("the layout of walk `{}` {why}", layout.states.join(" → "));
        let last = self.visited.last().copied().unwrap_or(Sym::START);
        self.refuse(last, why, self.parser.name.span);
    }

    fn materialize(&mut self) -> DescriptorLayout {
        let mut slots = Vec::new();
        let mut offset = 0u32;
        let mut consumes = BTreeSet::new();
        for i in 0..self.extracted.len() {
            let hid = self.extracted[i];
            for s in self.header_slots(hid) {
                slots.push(FieldSlot {
                    offset_bits: offset + s.offset_bits,
                    ..s.clone()
                });
                consumes.extend(s.semantic);
            }
            offset += self.checked.types.header(hid).width_bits;
        }
        let states = (0..self.visited.len())
            .map(|i| self.state_name(self.visited[i]))
            .collect();
        DescriptorLayout {
            id: self.out.len(),
            guard: self.guard.clone(),
            slots,
            size_bits: offset,
            consumes,
            states,
        }
    }

    /// The slots of header `hid` (`header.field`, sourced from `header`),
    /// offsets from its start.
    fn header_slots(&mut self, hid: HeaderId) -> &[FieldSlot] {
        let at = match self.headers.iter().position(|(h, _)| *h == hid) {
            Some(at) => at,
            None => {
                let info = self.checked.types.header(hid);
                let header = self.name(info.name);
                let source: Arc<str> = header.into();
                let mut text = String::new();
                let mut slot_name = |field: &str| -> Arc<str> {
                    text.clear();
                    text.push_str(header);
                    text.push('.');
                    text.push_str(field);
                    text.as_str().into()
                };
                let slots = (info.fields.iter())
                    .map(|f| FieldSlot {
                        name: slot_name(self.name(f.name)),
                        source: source.clone(),
                        semantic: f.semantic.and_then(|s| self.reg.id(self.name(s))),
                        offset_bits: f.offset_bits,
                        width_bits: f.width_bits,
                    })
                    .collect();
                self.headers.push((hid, slots));
                self.headers.len() - 1
            }
        };
        &self.headers[at].1
    }

    fn state_name(&mut self, state: Sym) -> Arc<str> {
        if let Some((_, name)) = self.states.iter().find(|(s, _)| *s == state) {
            return name.clone();
        }
        let name: Arc<str> = self.name(state).into();
        self.states.push((state, name.clone()));
        name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opendesc_p4::typecheck::parse_and_check;

    const QDMA_TX: &str = r#"
        header base_t {
            @semantic("buf_addr") bit<64> addr;
            @semantic("buf_len")  bit<16> len;
            bit<8> flags;
            bit<8> qid;
        }
        header ext_t { @semantic("tx_l4_csum_offload") bit<32> csum_args; }
        struct desc_t { base_t base; ext_t ext; }
        struct h2c_ctx_t { bit<8> desc_size; }
        parser DescParser(desc_in d, in h2c_ctx_t ctx, out desc_t hdr) {
            state start {
                d.extract(hdr.base);
                transition select(ctx.desc_size) {
                    12: accept;
                    16: parse_ext;
                    default: reject;
                }
            }
            state parse_ext {
                d.extract(hdr.ext);
                transition accept;
            }
        }
    "#;

    fn layouts_of(src: &str, name: &str) -> (Vec<DescriptorLayout>, SemanticRegistry) {
        let (checked, d) = parse_and_check(src);
        assert!(
            !d.has_errors(),
            "{:?}",
            d.iter().map(|x| x.message.clone()).collect::<Vec<_>>()
        );
        let mut reg = SemanticRegistry::with_builtins();
        let l = enumerate_tx_layouts(&checked, name, &mut reg).unwrap();
        (l, reg)
    }

    /// The refusal `src`'s parser `P` draws, as one string.
    fn refusal(src: &str) -> String {
        let (checked, d) = parse_and_check(src);
        assert!(
            !d.has_errors(),
            "{:?}",
            d.iter().map(|x| x.message.clone()).collect::<Vec<_>>()
        );
        refusal_of(&checked)
    }

    fn refusal_of(checked: &CheckedProgram) -> String {
        let mut reg = SemanticRegistry::with_builtins();
        let err = enumerate_tx_layouts(checked, "P", &mut reg).unwrap_err();
        err.summary()
    }

    #[test]
    fn qdma_tx_two_layouts() {
        let (layouts, reg) = layouts_of(QDMA_TX, "DescParser");
        assert_eq!(layouts.len(), 2, "reject arm produces no layout");
        let small = layouts.iter().find(|l| l.size_bytes() == 12).unwrap();
        let big = layouts.iter().find(|l| l.size_bytes() == 16).unwrap();
        let csum = reg.id("tx_l4_csum_offload").unwrap();
        assert!(!small.consumes.contains(&csum));
        assert!(big.consumes.contains(&csum));
        // Guards solve to the right context values.
        let sctx = small.solve_context().unwrap();
        assert_eq!(sctx.values().next(), Some(&12));
        let bctx = big.solve_context().unwrap();
        assert_eq!(bctx.values().next(), Some(&16));
    }

    #[test]
    fn slots_have_absolute_offsets() {
        let (layouts, reg) = layouts_of(QDMA_TX, "DescParser");
        let big = layouts.iter().find(|l| l.size_bytes() == 16).unwrap();
        let addr = reg.id("buf_addr").unwrap();
        let csum = reg.id("tx_l4_csum_offload").unwrap();
        assert_eq!(big.slot_for(addr).unwrap().offset_bits, 0);
        assert_eq!(big.slot_for(csum).unwrap().offset_bits, 96);
        assert_eq!(big.states, ["start", "parse_ext"].map(Arc::from));
    }

    #[test]
    fn single_state_parser_single_layout() {
        let src = r#"
            header d_t { @semantic("buf_addr") bit<64> a; @semantic("buf_len") bit<16> l; bit<16> pad0; }
            struct desc_t { d_t d; }
            struct ctx_t { bit<1> r; }
            parser P(desc_in x, in ctx_t ctx, out desc_t hdr) {
                state start { x.extract(hdr.d); transition accept; }
            }
        "#;
        let (layouts, _) = layouts_of(src, "P");
        assert_eq!(layouts.len(), 1);
        assert!(layouts[0].guard.is_empty());
        assert_eq!(layouts[0].size_bytes(), 12);
    }

    #[test]
    fn cyclic_parser_rejected() {
        let src = r#"
            header d_t { bit<8> a; }
            struct desc_t { d_t d; }
            parser P(desc_in x, out desc_t hdr) {
                state start { transition spin; }
                state spin { transition start; }
            }
        "#;
        assert!(refusal(src).contains("depth"));
    }

    #[test]
    fn missing_parser_is_an_error() {
        let (checked, _) = parse_and_check("header h_t { bit<8> a; }");
        let mut reg = SemanticRegistry::with_builtins();
        assert!(enumerate_tx_layouts(&checked, "Nope", &mut reg).is_err());
    }

    /// A parser with a base header carrying the buffer fields, `start`
    /// extracting it and then running `tail` (statements + transition).
    fn parser_with(tail: &str) -> String {
        format!(
            r#"
            header b_t {{
                @semantic("buf_addr") bit<64> addr;
                @semantic("buf_len") bit<16> len;
                bit<8> kind;
                bit<8> rsvd;
            }}
            header e_t {{ @semantic("tx_ip_csum_offload") bit<8> ip; bit<24> rsvd; }}
            struct desc_t {{ b_t base; e_t ext; }}
            struct ctx_t {{ bit<8> kind; bit<8> size; }}
            parser P(desc_in d, in ctx_t ctx, out desc_t hdr) {{
                state start {{
                    d.extract(hdr.base);
                    {tail}
                }}
                state ext {{ d.extract(hdr.ext); transition accept; }}
            }}
            "#
        )
    }

    #[test]
    fn a_select_on_an_extracted_field_is_refused_by_name() {
        let msg = refusal(&parser_with(
            "transition select(hdr.base.kind) { 0: accept; 1: ext; default: reject; }",
        ));
        assert!(msg.contains("state `start`"), "{msg}");
        assert!(msg.contains("hdr.base.kind"), "{msg}");
    }

    #[test]
    fn a_tuple_select_is_refused() {
        let msg = refusal(&parser_with(
            "transition select(ctx.kind, ctx.size) { 0: accept; default: reject; }",
        ));
        assert!(msg.contains("tuple select"), "{msg}");
        let msg = refusal(&parser_with(
            "transition select(ctx.kind) { 0, 1: accept; default: reject; }",
        ));
        assert!(msg.contains("tuple keyset"), "{msg}");
    }

    #[test]
    fn a_non_constant_label_is_refused() {
        // The checker reports it too; the enumerator must not lean on
        // that.
        let src = parser_with("transition select(ctx.kind) { ctx.size: accept; default: reject; }");
        let msg = refusal_of(&parse_and_check(&src).0);
        assert!(msg.contains("`ctx.size` is not a constant"), "{msg}");
    }

    #[test]
    fn a_state_that_does_more_than_extract_is_refused() {
        let msg = refusal(&parser_with("hdr.base.kind = 3; transition accept;"));
        assert!(msg.contains("state `start`"), "{msg}");
        assert!(msg.contains("hdr.base.kind = 3"), "{msg}");
    }

    #[test]
    fn a_layout_must_carry_each_semantic_once_and_both_buffer_fields() {
        let twice = r#"
            header b_t { @semantic("buf_addr") bit<64> addr; @semantic("buf_len") bit<16> len; bit<16> pad; }
            struct desc_t { b_t a; b_t b; }
            struct ctx_t { bit<1> r; }
            parser P(desc_in d, in ctx_t ctx, out desc_t hdr) {
                state start { d.extract(hdr.a); d.extract(hdr.b); transition accept; }
            }
        "#;
        assert!(refusal(twice).contains("carries `buf_addr` twice"));
        let no_len = r#"
            header b_t { @semantic("buf_addr") bit<64> addr; bit<16> len; bit<16> pad; }
            struct desc_t { b_t a; }
            struct ctx_t { bit<1> r; }
            parser P(desc_in d, in ctx_t ctx, out desc_t hdr) {
                state start { d.extract(hdr.a); transition accept; }
            }
        "#;
        assert!(refusal(no_len).contains("no `buf_len` field"));
        let narrow = no_len.replace(
            "@semantic(\"buf_addr\") bit<64> addr; bit<16> len;",
            "@semantic(\"buf_addr\") bit<32> addr; @semantic(\"buf_len\") bit<16> len;",
        );
        let msg = refusal(&narrow);
        assert!(msg.contains("32-bit `buf_addr`"), "{msg}");
    }

    #[test]
    fn unreachable_cases_walk_nowhere() {
        // The second `0` and everything after `default` are dead: the
        // parser takes the first matching case.
        let src = parser_with(
            "transition select(ctx.kind) { 0: reject; 0: accept; default: ext; 1: accept; }",
        );
        let (layouts, _) = layouts_of(&src, "P");
        assert_eq!(layouts.len(), 1);
        assert_eq!(layouts[0].states, ["start", "ext"].map(Arc::from));
        assert_eq!(format!("{}", layouts[0].guard[0]), "(ctx.kind != 0)");
    }
}
