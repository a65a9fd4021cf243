//! Control-flow-graph extraction from a `CmptDeparser` control
//! (paper §4, step 1).
//!
//! Each `emit` statement becomes a vertex carrying the three static
//! properties the paper defines — `bits(v)` (the committed range, here as
//! per-emit field layout), `sem(v)` (the semantics those bits encode, from
//! `@semantic` annotations), and `size(v)` — and each conditional becomes
//! labeled edges. The graph is a DAG built by continuation passing over
//! the structured `apply` block, so `if/else` joins share their
//! continuation instead of duplicating suffixes.

use crate::pred::{CmpOp, Cond, ContextFields, FieldRef};
use crate::semantics::{SemanticId, SemanticRegistry};
use opendesc_p4::ast::{self, BinOp, ExprId, ExprKind, Program, Stmt, StmtKind, Sym, UnOp};
use opendesc_p4::diag::Diagnostics;
use opendesc_p4::span::Span;
use opendesc_p4::typecheck::CheckedProgram;
use opendesc_p4::types::{ExternKind, Ty};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Node index within a [`Cfg`].
pub type NodeId = usize;

/// One flattened field of an emitted item.
#[derive(Debug, Clone, PartialEq)]
pub struct EmitField {
    /// Name of the field's slot in every layout that carries this emit,
    /// qualified by the last segment of the emit's source
    /// (`ip_fields.csum`, unambiguous across emits). A field emitted on
    /// its own, or the only field of a header named like it, keeps its
    /// bare name.
    pub name: Arc<str>,
    /// Bit offset within this emit.
    pub offset_bits: u32,
    pub width_bits: u16,
    /// Semantic tag from `@semantic(...)`, if any.
    pub semantic: Option<SemanticId>,
}

/// A vertex of the completion CFG: one static `emit` call.
#[derive(Debug, Clone, PartialEq)]
pub struct EmitVertex {
    pub id: usize,
    /// Dotted source path of the emitted item, e.g. `pipe_meta.rss`.
    pub source: Arc<str>,
    /// Total emitted width.
    pub size_bits: u32,
    /// Flattened fields with their in-emit offsets.
    pub fields: Vec<EmitField>,
    pub span: Span,
}

impl EmitVertex {
    /// `size(v)` in whole bytes (paper step 1).
    pub fn size_bytes(&self) -> u32 {
        self.size_bits.div_ceil(8)
    }

    /// `sem(v)`: the set of semantics this emit commits.
    pub fn sems(&self) -> impl Iterator<Item = SemanticId> + '_ {
        self.fields.iter().filter_map(|f| f.semantic)
    }
}

/// A CFG node.
#[derive(Debug, Clone, PartialEq)]
pub enum CfgNode {
    /// Emit vertex; `vertex` indexes [`Cfg::vertices`].
    Emit { vertex: usize, next: NodeId },
    /// Conditional with one labeled edge per arm. Arms are ordered and
    /// their conditions are mutually exclusive by construction (if/else,
    /// switch with implicit default).
    Branch {
        arms: Vec<(Cond, NodeId)>,
        span: Span,
    },
    /// End of the deparser.
    Exit,
}

/// The extracted completion CFG of one `CmptDeparser`.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub control_name: String,
    /// Name of the `cmpt_out` parameter the emits go through.
    pub cmpt_param: String,
    pub nodes: Vec<CfgNode>,
    pub entry: NodeId,
    pub exit: NodeId,
    pub vertices: Vec<EmitVertex>,
}

impl Cfg {
    /// Graphviz DOT rendering, for documentation and debugging.
    pub fn to_dot(&self, reg: &SemanticRegistry) -> String {
        let mut out = String::from("digraph cmpt_deparser {\n  rankdir=TB;\n");
        for (i, node) in self.nodes.iter().enumerate() {
            match node {
                CfgNode::Emit { vertex, next } => {
                    let v = &self.vertices[*vertex];
                    let sems: Vec<&str> = v.sems().map(|s| reg.name(s)).collect();
                    out.push_str(&format!(
                        "  n{} [shape=box,label=\"emit {} ({}B{}{})\"];\n",
                        i,
                        v.source,
                        v.size_bytes(),
                        if sems.is_empty() { "" } else { ": " },
                        sems.join(",")
                    ));
                    out.push_str(&format!("  n{i} -> n{next};\n"));
                }
                CfgNode::Branch { arms, .. } => {
                    out.push_str(&format!("  n{i} [shape=diamond,label=\"branch\"];\n"));
                    for (cond, target) in arms {
                        out.push_str(&format!(
                            "  n{i} -> n{target} [label=\"{}\"];\n",
                            format!("{cond}").replace('"', "'")
                        ));
                    }
                }
                CfgNode::Exit => {
                    out.push_str(&format!("  n{i} [shape=doublecircle,label=\"exit\"];\n"));
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Extract the completion CFG of control `name` from a checked program.
pub fn extract(
    checked: &CheckedProgram,
    name: &str,
    reg: &mut SemanticRegistry,
) -> Result<Cfg, Diagnostics> {
    let mut diags = Diagnostics::new();
    let Some(control) = checked.program.control(name) else {
        diags.error(
            format!("no control named `{name}` in contract"),
            Span::default(),
        );
        return Err(diags);
    };
    if !control.type_params.is_empty() {
        diags.error(
            format!("control `{name}` is a template; extraction needs a concrete control"),
            control.name.span,
        );
        return Err(diags);
    }
    let Some(apply) = &control.apply else {
        diags.error(
            format!("control `{name}` has no `apply` body"),
            control.name.span,
        );
        return Err(diags);
    };

    // Parameter environment: name → type.
    let mut params = Vec::with_capacity(control.params.len());
    let mut cmpt_param = None;
    for p in &control.params {
        let Some(ty) = checked.param_ty(p) else {
            continue;
        };
        if matches!(ty, Ty::Extern(ExternKind::CmptOut)) {
            cmpt_param = Some(p.name.name);
        }
        params.push((p.name.name, ty));
    }
    let Some(cmpt_param) = cmpt_param else {
        diags.error(
            format!("control `{name}` has no `cmpt_out` parameter to emit through"),
            control.name.span,
        );
        return Err(diags);
    };

    // Param-less actions, for call inlining.
    let actions = (control.locals.iter())
        .filter_map(|local| match local {
            ast::ControlLocal::Action(a) if a.params.is_empty() => Some((a.name.name, &a.body)),
            _ => None,
        })
        .collect();

    let mut b = Builder {
        checked,
        decl_params: &control.params,
        params,
        cmpt_param,
        actions,
        reg,
        context: ContextFields::default(),
        text: String::new(),
        emitted: BTreeMap::new(),
        nodes: vec![CfgNode::Exit],
        vertices: Vec::new(),
        diags: Diagnostics::new(),
        inline_depth: 0,
    };
    let exit: NodeId = 0;
    let entry = b.build_block(&apply.stmts, exit);
    let cfg = Cfg {
        control_name: name.to_string(),
        cmpt_param: checked.name(cmpt_param).to_string(),
        nodes: b.nodes,
        entry,
        exit,
        vertices: b.vertices,
    };
    if b.diags.has_errors() {
        Err(b.diags)
    } else {
        // Warnings ride along silently; callers can re-run checks for them.
        Ok(cfg)
    }
}

struct Builder<'a> {
    checked: &'a CheckedProgram,
    /// The control's parameters, as declared (directions included).
    decl_params: &'a [ast::Param],
    params: Vec<(Sym, Ty)>,
    cmpt_param: Sym,
    actions: Vec<(Sym, &'a ast::Block)>,
    reg: &'a mut SemanticRegistry,
    context: ContextFields,
    /// Scratch space a name is spelled in before it is shared.
    text: String,
    /// The vertex that first emitted each source.
    emitted: BTreeMap<Arc<str>, usize>,
    nodes: Vec<CfgNode>,
    vertices: Vec<EmitVertex>,
    diags: Diagnostics,
    inline_depth: u32,
}

impl<'a> Builder<'a> {
    fn push(&mut self, node: CfgNode) -> NodeId {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    fn name(&self, sym: Sym) -> &'a str {
        self.checked.program.name(sym)
    }

    /// Build `stmts` so that control falls through to `next`; returns the
    /// entry node of the built fragment.
    fn build_block(&mut self, stmts: &[Stmt], next: NodeId) -> NodeId {
        let mut cont = next;
        for stmt in stmts.iter().rev() {
            cont = self.build_stmt(stmt, cont);
        }
        cont
    }

    fn build_stmt(&mut self, stmt: &Stmt, next: NodeId) -> NodeId {
        match &stmt.kind {
            StmtKind::Expr(e) => self.build_expr_stmt(*e, next),
            StmtKind::If { arms, else_blk } => {
                // An else-if chain is a chain of two-way branches: each arm
                // goes to its block or falls on to the rest of the chain.
                // Blocks are built front to back, branches back to front.
                let mut built = Vec::with_capacity(arms.len());
                for arm in arms {
                    let c = self.cond_of_expr(arm.cond);
                    let then_entry = self.build_block(&arm.then_blk.stmts, next);
                    built.push((c, then_entry, arm.span.to(stmt.span)));
                }
                let mut entry = match else_blk {
                    Some(b) => self.build_block(&b.stmts, next),
                    None => next,
                };
                for (c, then_entry, span) in built.into_iter().rev() {
                    // A branch with identical arms collapses.
                    if then_entry != entry {
                        let negated = c.negated();
                        entry = self.push(CfgNode::Branch {
                            arms: vec![(c, then_entry), (negated, entry)],
                            span,
                        });
                    }
                }
                entry
            }
            StmtKind::Switch { scrutinee, cases } => {
                let field = self.field_of_expr(*scrutinee);
                let mut arms: Vec<(Cond, NodeId)> = Vec::new();
                let mut covered: Vec<u128> = Vec::new();
                let mut default_entry: Option<NodeId> = None;
                for case in cases {
                    let entry = self.build_block(&case.block.stmts, next);
                    let mut labels = Vec::new();
                    for label in &case.labels {
                        match label {
                            ast::SwitchLabel::Default => default_entry = Some(entry),
                            ast::SwitchLabel::Expr(e) => {
                                if let Some(v) = self.checked.const_eval(*e) {
                                    labels.push(v);
                                    covered.push(v);
                                } else {
                                    self.diags.error(
                                        "switch label is not a compile-time constant",
                                        self.checked.program.expr(*e).span,
                                    );
                                }
                            }
                        }
                    }
                    if !labels.is_empty() {
                        let cond = match (&field, labels.len()) {
                            (Some(f), 1) => Cond::Cmp {
                                field: f.clone(),
                                op: CmpOp::Eq,
                                value: labels[0],
                            },
                            (Some(f), _) => Cond::Or(
                                labels
                                    .iter()
                                    .map(|v| Cond::Cmp {
                                        field: f.clone(),
                                        op: CmpOp::Eq,
                                        value: *v,
                                    })
                                    .collect(),
                            ),
                            (None, _) => Cond::Opaque(
                                format!(
                                    "{} in {:?}",
                                    expr_str(&self.checked.program, *scrutinee),
                                    labels
                                )
                                .into(),
                            ),
                        };
                        arms.push((cond, entry));
                    }
                }
                // Default (explicit or implicit fallthrough to `next`).
                let default_cond = match &field {
                    Some(f) => Cond::And(
                        covered
                            .iter()
                            .map(|v| Cond::Cmp {
                                field: f.clone(),
                                op: CmpOp::Ne,
                                value: *v,
                            })
                            .collect(),
                    ),
                    None => Cond::Opaque(
                        format!(
                            "{} not matched",
                            expr_str(&self.checked.program, *scrutinee)
                        )
                        .into(),
                    ),
                };
                arms.push((default_cond, default_entry.unwrap_or(next)));
                self.push(CfgNode::Branch {
                    arms,
                    span: stmt.span,
                })
            }
            StmtKind::Return => {
                // Return jumps straight to exit, discarding `next`.
                0
            }
            StmtKind::Block(b) => self.build_block(&b.stmts, next),
            // Assignments and local declarations do not commit completion
            // bytes; they are interpreter concerns, not layout concerns.
            StmtKind::Assign { .. } | StmtKind::Var(_) => next,
        }
    }

    fn build_expr_stmt(&mut self, e: ExprId, next: NodeId) -> NodeId {
        let call = self.checked.program.expr(e);
        let ExprKind::Call { callee, args } = &call.kind else {
            return next;
        };
        // `cmpt.emit(x)`?
        if let Some(path) = self.checked.program.path(*callee) {
            if path.len() == 2 && path[0] == self.cmpt_param && path[1] == Sym::EMIT {
                if let Some(vertex) = self.make_emit_vertex(args[0], call.span) {
                    let idx = self.vertices.len();
                    self.vertices.push(vertex);
                    return self.push(CfgNode::Emit { vertex: idx, next });
                }
                return next;
            }
            // Param-less action call: inline.
            if let [action] = path[..] {
                let body =
                    (self.actions.iter().rev()).find_map(|(n, b)| (*n == action).then_some(*b));
                if let Some(body) = body {
                    if self.inline_depth >= 16 {
                        self.diags.error(
                            "action inlining exceeded depth 16 (recursive actions?)",
                            call.span,
                        );
                        return next;
                    }
                    self.inline_depth += 1;
                    let entry = self.build_block(&body.stmts, next);
                    self.inline_depth -= 1;
                    return entry;
                }
            }
        }
        // Other calls (externs, packet emits) do not touch the completion
        // stream.
        next
    }

    /// Resolve an emit argument to a vertex: either a header-typed path or
    /// a single header field.
    fn make_emit_vertex(&mut self, arg: ExprId, span: Span) -> Option<EmitVertex> {
        let arg_span = self.checked.program.expr(arg).span;
        let Some(path) = self.checked.program.path(arg) else {
            self.diags.error(
                "emit argument must be a field path (computed emits are not static layout)",
                arg_span,
            );
            return None;
        };
        let ty = self.resolve_path_ty(&path, arg_span)?;
        let id = self.vertices.len();
        self.text.clear();
        for (i, seg) in path.iter().enumerate() {
            if i > 0 {
                self.text.push('.');
            }
            self.text.push_str(self.name(*seg));
        }
        // The same item emitted on another branch shares its names.
        if let Some(&v) = self.emitted.get(self.text.as_str()) {
            return Some(EmitVertex {
                id,
                span,
                ..self.vertices[v].clone()
            });
        }
        let source: Arc<str> = Arc::from(self.text.as_str());
        self.emitted.insert(source.clone(), id);
        let prefix = self.name(path[path.len() - 1]);
        match ty {
            Ty::Header(hid) => {
                let info = self.checked.types.header(hid);
                let alone = info.fields.len() == 1;
                let fields = info
                    .fields
                    .iter()
                    .map(|f| EmitField {
                        name: self.slot_name(prefix, self.name(f.name), alone),
                        offset_bits: f.offset_bits,
                        width_bits: f.width_bits,
                        semantic: f
                            .semantic
                            .map(|s| self.reg.intern(self.checked.program.name(s))),
                    })
                    .collect();
                Some(EmitVertex {
                    id,
                    source,
                    size_bits: info.width_bits,
                    fields,
                    span,
                })
            }
            Ty::Bit(width) => {
                // Single header-field emit: find its semantic annotation by
                // resolving the parent header.
                let semantic = self.field_semantic(&path);
                Some(EmitVertex {
                    id,
                    source,
                    size_bits: width as u32,
                    fields: vec![EmitField {
                        name: prefix.into(),
                        offset_bits: 0,
                        width_bits: width,
                        semantic,
                    }],
                    span,
                })
            }
            other => {
                self.diags.error(
                    format!(
                        "emit argument must be a header or header field, found {}",
                        self.checked.display(other)
                    ),
                    arg_span,
                );
                None
            }
        }
    }

    /// The slot name of field `field` of an emit whose source ends in
    /// `prefix` (see [`EmitField::name`]); `alone` when it is the emit's
    /// only field.
    fn slot_name(&mut self, prefix: &str, field: &str, alone: bool) -> Arc<str> {
        if alone && field == prefix {
            return field.into();
        }
        self.text.clear();
        self.text.push_str(prefix);
        self.text.push('.');
        self.text.push_str(field);
        Arc::from(self.text.as_str())
    }

    /// Semantic annotation of the field named by `path`, when its parent is
    /// a header.
    fn field_semantic(&mut self, path: &[Sym]) -> Option<SemanticId> {
        let (last, parent) = path.split_last()?;
        if parent.is_empty() {
            return None;
        }
        let Ty::Header(hid) = self.resolve_path_ty(parent, Span::default())? else {
            return None;
        };
        let sem = self.checked.types.header(hid).field(*last)?.semantic?;
        Some(self.reg.intern(self.checked.program.name(sem)))
    }

    /// Type of a dotted path rooted at a parameter.
    fn resolve_path_ty(&mut self, path: &[Sym], span: Span) -> Option<Ty> {
        let root = (self.params.iter().rev()).find_map(|(n, t)| (*n == path[0]).then_some(*t));
        let Some(mut ty) = root else {
            self.diags.error(
                format!(
                    "`{}` is not a parameter of the deparser",
                    self.name(path[0])
                ),
                span,
            );
            return None;
        };
        for seg in &path[1..] {
            ty = match ty {
                Ty::Struct(sid) => {
                    let info = self.checked.types.struct_(sid);
                    match info.field(*seg) {
                        Some(f) => f.ty,
                        None => {
                            self.diags.error(
                                format!(
                                    "struct `{}` has no field `{}`",
                                    self.name(info.name),
                                    self.name(*seg)
                                ),
                                span,
                            );
                            return None;
                        }
                    }
                }
                Ty::Header(hid) => {
                    let info = self.checked.types.header(hid);
                    match info.field(*seg) {
                        Some(f) => Ty::Bit(f.width_bits),
                        None => {
                            self.diags.error(
                                format!(
                                    "header `{}` has no field `{}`",
                                    self.name(info.name),
                                    self.name(*seg)
                                ),
                                span,
                            );
                            return None;
                        }
                    }
                }
                other => {
                    self.diags.error(
                        format!(
                            "cannot access `.{}` on {}",
                            self.name(*seg),
                            self.checked.display(other)
                        ),
                        span,
                    );
                    return None;
                }
            };
        }
        Some(ty)
    }

    /// The context field `e` names (see [`ContextFields::get`]); `None`
    /// makes the condition over it opaque.
    fn field_of_expr(&mut self, e: ExprId) -> Option<FieldRef> {
        self.context.get(self.checked, self.decl_params, e)
    }

    /// Lower a boolean expression to a symbolic [`Cond`].
    fn cond_of_expr(&mut self, id: ExprId) -> Cond {
        let e = self.checked.program.expr(id);
        match &e.kind {
            ExprKind::Bool(true) => Cond::True,
            ExprKind::Bool(false) => Cond::False,
            ExprKind::Unary {
                op: UnOp::Not,
                expr,
            } => self.cond_of_expr(*expr).negated(),
            ExprKind::Binary { op, lhs, rhs } => {
                use BinOp::*;
                match op {
                    And => Cond::And(vec![self.cond_of_expr(*lhs), self.cond_of_expr(*rhs)]),
                    Or => Cond::Or(vec![self.cond_of_expr(*lhs), self.cond_of_expr(*rhs)]),
                    Eq | Ne | Lt | Le | Gt | Ge => {
                        let cmp = match op {
                            Eq => CmpOp::Eq,
                            Ne => CmpOp::Ne,
                            Lt => CmpOp::Lt,
                            Le => CmpOp::Le,
                            Gt => CmpOp::Gt,
                            Ge => CmpOp::Ge,
                            _ => unreachable!(),
                        };
                        // field OP const, or const OP field (flip).
                        if let (Some(f), Some(v)) =
                            (self.field_of_expr(*lhs), self.checked.const_eval(*rhs))
                        {
                            return Cond::Cmp {
                                field: f,
                                op: cmp,
                                value: v,
                            };
                        }
                        if let (Some(v), Some(f)) =
                            (self.checked.const_eval(*lhs), self.field_of_expr(*rhs))
                        {
                            let flipped = match cmp {
                                CmpOp::Lt => CmpOp::Gt,
                                CmpOp::Le => CmpOp::Ge,
                                CmpOp::Gt => CmpOp::Lt,
                                CmpOp::Ge => CmpOp::Le,
                                other => other,
                            };
                            return Cond::Cmp {
                                field: f,
                                op: flipped,
                                value: v,
                            };
                        }
                        Cond::Opaque(expr_str(&self.checked.program, id).into())
                    }
                    _ => Cond::Opaque(expr_str(&self.checked.program, id).into()),
                }
            }
            _ => Cond::Opaque(expr_str(&self.checked.program, id).into()),
        }
    }
}

/// Compact textual rendering of an expression, for opaque-condition
/// display.
fn expr_str(p: &Program, e: ExprId) -> String {
    let s = |e: ExprId| expr_str(p, e);
    match &p.expr(e).kind {
        ExprKind::Int {
            value,
            width: Some(w),
        } => format!("{w}w{value}"),
        ExprKind::Int { value, width: None } => format!("{value}"),
        ExprKind::Bool(b) => format!("{b}"),
        ExprKind::Ident(n) => p.name(*n).to_string(),
        ExprKind::Member { base, member } => format!("{}.{}", s(*base), p.name(member.name)),
        ExprKind::Slice { base, hi, lo } => {
            format!("{}[{}:{}]", s(*base), s(*hi), s(*lo))
        }
        ExprKind::Call { callee, args } => {
            let a: Vec<String> = args.iter().map(|a| s(*a)).collect();
            format!("{}({})", s(*callee), a.join(", "))
        }
        ExprKind::Unary { op, expr } => format!("{op}{}", s(*expr)),
        ExprKind::Binary { op, lhs, rhs } => {
            format!("({} {op} {})", s(*lhs), s(*rhs))
        }
        ExprKind::Cast { ty, expr } => format!("({}) {}", ty.kind.display(&p.syms), s(*expr)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opendesc_p4::typecheck::parse_and_check;

    /// The paper's Fig. 6 running example: a simplified e1000 completion
    /// serializer with a single context bit selecting RSS vs ip_id+csum.
    pub const E1000_FIG6: &str = r#"
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

    fn extract_ok(src: &str, name: &str) -> (Cfg, SemanticRegistry) {
        let (checked, diags) = parse_and_check(src);
        assert!(
            !diags.has_errors(),
            "{}",
            diags
                .iter()
                .map(|d| d.message.clone())
                .collect::<Vec<_>>()
                .join("\n")
        );
        let mut reg = SemanticRegistry::with_builtins();
        let cfg = extract(&checked, name, &mut reg).expect("extraction succeeds");
        (cfg, reg)
    }

    #[test]
    fn fig6_has_three_vertices_and_one_branch() {
        let (cfg, reg) = extract_ok(E1000_FIG6, "CmptDeparser");
        assert_eq!(cfg.vertices.len(), 3);
        let branches = cfg
            .nodes
            .iter()
            .filter(|n| matches!(n, CfgNode::Branch { .. }));
        assert_eq!(branches.count(), 1);
        // Vertex properties (paper step 1).
        let rss = cfg
            .vertices
            .iter()
            .find(|v| &*v.source == "pipe_meta.rss")
            .unwrap();
        assert_eq!(rss.size_bytes(), 4);
        let sems: Vec<&str> = rss.sems().map(|s| reg.name(s)).collect();
        assert_eq!(sems, ["rss_hash"]);
        let ip = cfg
            .vertices
            .iter()
            .find(|v| &*v.source == "pipe_meta.ip_fields")
            .unwrap();
        assert_eq!(ip.size_bytes(), 4);
        assert_eq!(ip.fields.len(), 2);
        assert_eq!(ip.fields[1].offset_bits, 16);
    }

    #[test]
    fn fig6_branch_conditions_symbolic() {
        let (cfg, _) = extract_ok(E1000_FIG6, "CmptDeparser");
        let CfgNode::Branch { arms, .. } = &cfg.nodes[cfg.entry] else {
            panic!("entry should be the if-branch");
        };
        assert_eq!(arms.len(), 2);
        let c0 = format!("{}", arms[0].0);
        let c1 = format!("{}", arms[1].0);
        assert_eq!(c0, "ctx.use_rss == 1");
        assert_eq!(c1, "ctx.use_rss != 1");
    }

    #[test]
    fn join_is_shared_not_duplicated() {
        let (cfg, _) = extract_ok(E1000_FIG6, "CmptDeparser");
        // Both if-arms must converge on the same `emit(base)` node.
        let CfgNode::Branch { arms, .. } = &cfg.nodes[cfg.entry] else {
            panic!()
        };
        let succ = |n: NodeId| -> NodeId {
            match &cfg.nodes[n] {
                // The shared base emit (or exit) the arm falls into:
                CfgNode::Emit { next, .. } => *next,
                _ => n,
            }
        };
        let a = succ(arms[0].1);
        let b = succ(arms[1].1);
        assert_eq!(a, b, "if/else arms must share their continuation node");
    }

    #[test]
    fn switch_produces_exclusive_arms_with_default() {
        let src = r#"
            header a_t { @semantic("rss_hash") bit<32> x; }
            header b_t { @semantic("vlan_tci") bit<16> y; bit<16> pad; }
            struct ctx_t { bit<2> fmt; }
            struct m_t { a_t a; b_t b; }
            control C(cmpt_out o, in ctx_t ctx, in m_t m) {
                apply {
                    switch (ctx.fmt) {
                        0: { o.emit(m.a); }
                        1: { o.emit(m.b); }
                    }
                }
            }
        "#;
        let (cfg, _) = extract_ok(src, "C");
        let CfgNode::Branch { arms, .. } = &cfg.nodes[cfg.entry] else {
            panic!()
        };
        assert_eq!(arms.len(), 3, "two labels + implicit default");
        assert_eq!(format!("{}", arms[0].0), "ctx.fmt == 0");
        assert_eq!(format!("{}", arms[1].0), "ctx.fmt == 1");
        let def = format!("{}", arms[2].0);
        assert!(def.contains("!= 0") && def.contains("!= 1"), "{def}");
    }

    #[test]
    fn return_short_circuits_to_exit() {
        let src = r#"
            header a_t { bit<8> x; }
            struct ctx_t { bit<1> skip; }
            struct m_t { a_t a; }
            control C(cmpt_out o, in ctx_t ctx, in m_t m) {
                apply {
                    if (ctx.skip == 1) { return; }
                    o.emit(m.a);
                }
            }
        "#;
        let (cfg, _) = extract_ok(src, "C");
        let CfgNode::Branch { arms, .. } = &cfg.nodes[cfg.entry] else {
            panic!()
        };
        assert_eq!(arms[0].1, cfg.exit, "return arm goes straight to exit");
        assert!(matches!(cfg.nodes[arms[1].1], CfgNode::Emit { .. }));
    }

    #[test]
    fn field_emit_carries_semantic() {
        let src = r#"
            header h_t { @semantic("rss_hash") bit<32> rss; bit<32> other; }
            struct m_t { h_t h; }
            control C(cmpt_out o, in m_t m) {
                apply { o.emit(m.h.rss); }
            }
        "#;
        let (cfg, reg) = extract_ok(src, "C");
        assert_eq!(cfg.vertices.len(), 1);
        let v = &cfg.vertices[0];
        assert_eq!(v.size_bits, 32);
        assert_eq!(v.fields[0].semantic, reg.id("rss_hash"));
    }

    #[test]
    fn action_calls_are_inlined() {
        let src = r#"
            header a_t { bit<8> x; }
            struct m_t { a_t a; }
            control C(cmpt_out o, in m_t m) {
                action fin() { o.emit(m.a); }
                apply { fin(); }
            }
        "#;
        let (cfg, _) = extract_ok(src, "C");
        assert_eq!(cfg.vertices.len(), 1);
    }

    #[test]
    fn missing_cmpt_out_param_is_an_error() {
        let src = r#"
            struct ctx_t { bit<1> f; }
            control C(in ctx_t ctx) { apply { } }
        "#;
        let (checked, _) = parse_and_check(src);
        let mut reg = SemanticRegistry::with_builtins();
        let err = extract(&checked, "C", &mut reg).unwrap_err();
        assert!(err.iter().any(|d| d.message.contains("cmpt_out")));
    }

    #[test]
    fn template_control_is_rejected() {
        let src = r#"
            control C<META_T>(cmpt_out o, in META_T m);
        "#;
        let (checked, _) = parse_and_check(src);
        let mut reg = SemanticRegistry::with_builtins();
        let err = extract(&checked, "C", &mut reg).unwrap_err();
        assert!(err.iter().any(|d| d.message.contains("template")));
    }

    #[test]
    fn opaque_condition_still_enumerable() {
        let src = r#"
            header a_t { bit<8> x; }
            struct d_t { bit<8> p; bit<8> q; }
            struct m_t { a_t a; }
            control C(cmpt_out o, in d_t d, in m_t m) {
                apply {
                    if (d.p == d.q) { o.emit(m.a); }
                }
            }
        "#;
        let (cfg, _) = extract_ok(src, "C");
        let CfgNode::Branch { arms, .. } = &cfg.nodes[cfg.entry] else {
            panic!()
        };
        assert!(arms[0].0.has_opaque());
    }

    #[test]
    fn a_per_packet_field_is_never_context() {
        // `m.a.x` is a header field: per-packet metadata, not a queue
        // setting, even though it is a bit<8> behind an `in` parameter.
        let src = r#"
            header a_t { bit<8> x; }
            struct ctx_t { bit<8> n; }
            struct m_t { a_t a; }
            control C(cmpt_out o, in ctx_t ctx, in m_t m) {
                apply {
                    if (m.a.x == 64) { o.emit(m.a); }
                    switch (m.a.x) { 1: { o.emit(m.a); } }
                    if (ctx.n == 64) { o.emit(m.a); }
                }
            }
        "#;
        let (cfg, _) = extract_ok(src, "C");
        let conds: Vec<String> = cfg
            .nodes
            .iter()
            .filter_map(|n| match n {
                CfgNode::Branch { arms, .. } => Some(format!("{}", arms[0].0)),
                _ => None,
            })
            .collect();
        assert_eq!(conds.len(), 3, "{conds:?}");
        assert!(conds.iter().any(|c| c == "ctx.n == 64"), "{conds:?}");
        assert_eq!(conds.iter().filter(|c| c.starts_with('⟨')).count(), 2);
    }

    #[test]
    fn flipped_constant_comparison_normalized() {
        let src = r#"
            header a_t { bit<8> x; }
            struct ctx_t { bit<4> n; }
            struct m_t { a_t a; }
            control C(cmpt_out o, in ctx_t ctx, in m_t m) {
                apply {
                    if (3 < ctx.n) { o.emit(m.a); }
                }
            }
        "#;
        let (cfg, _) = extract_ok(src, "C");
        let CfgNode::Branch { arms, .. } = &cfg.nodes[cfg.entry] else {
            panic!()
        };
        assert_eq!(format!("{}", arms[0].0), "ctx.n > 3");
    }

    #[test]
    fn dot_rendering_mentions_semantics() {
        let (cfg, reg) = extract_ok(E1000_FIG6, "CmptDeparser");
        let dot = cfg.to_dot(&reg);
        assert!(dot.contains("rss_hash"), "{dot}");
        assert!(dot.contains("diamond"), "{dot}");
    }

    #[test]
    fn enum_condition_uses_repr_width() {
        let src = r#"
            enum bit<2> fmt_t { FULL, MINI }
            header a_t { bit<8> x; }
            struct ctx_t { fmt_t fmt; }
            struct m_t { a_t a; }
            control C(cmpt_out o, in ctx_t ctx, in m_t m) {
                apply {
                    if (ctx.fmt == fmt_t.MINI) { o.emit(m.a); }
                }
            }
        "#;
        let (cfg, _) = extract_ok(src, "C");
        let CfgNode::Branch { arms, .. } = &cfg.nodes[cfg.entry] else {
            panic!()
        };
        let Cond::Cmp { field, value, .. } = &arms[0].0 else {
            panic!()
        };
        assert_eq!(field.width, 2);
        assert_eq!(*value, 1);
    }
}
