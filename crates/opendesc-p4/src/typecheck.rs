//! Type checker: lowers a parsed [`Program`] into a [`CheckedProgram`].
//!
//! Responsibilities:
//! * build the nominal type table (headers with field offsets, structs,
//!   enums, externs, consts, typedef expansion);
//! * check concrete parser/control bodies: name resolution, expression
//!   types, `emit`/`extract` argument validity;
//! * evaluate constant expressions (needed for select/switch labels and
//!   bit-slice bounds).
//!
//! Template (generic) parsers/controls are checked for signature sanity
//! only — their bodies cannot be typed until instantiated, and OpenDesc
//! contracts in practice use them as bodiless interface signatures
//! (paper Figs. 3–4).
//!
//! Names are compared as symbols throughout; text is only looked at to
//! render a diagnostic.

use crate::ast::{self, ExprId, Program, Sym};
use crate::diag::{Diagnostic, Diagnostics};
use crate::span::Span;
use crate::types::*;

/// A checked program: the original AST plus resolved type information.
#[derive(Debug, Clone)]
pub struct CheckedProgram {
    pub program: Program,
    pub types: TypeTable,
}

impl CheckedProgram {
    /// Resolve the type of a parser/control parameter.
    pub fn param_ty(&self, param: &ast::Param) -> Option<Ty> {
        self.ty_of(&param.ty)
    }

    /// Resolve a syntactic type.
    pub fn ty_of(&self, ty: &ast::Type) -> Option<Ty> {
        resolve_syntactic_ty(ty, &self.types)
    }

    /// The text of `sym`.
    pub fn name(&self, sym: Sym) -> &str {
        self.program.name(sym)
    }

    /// The symbol spelling `text`, if the contract has one.
    pub fn sym(&self, text: &str) -> Option<Sym> {
        self.program.sym(text)
    }

    /// The expression `id` addresses.
    pub fn expr(&self, id: ExprId) -> &ast::Expr {
        self.program.expr(id)
    }

    /// The type named `name`.
    pub fn lookup(&self, name: &str) -> Option<Ty> {
        self.types.lookup(self.sym(name)?)
    }

    /// The header named `name`.
    pub fn header_id(&self, name: &str) -> Option<HeaderId> {
        self.types.header_id(self.sym(name)?)
    }

    /// Render a type for diagnostics.
    pub fn display(&self, ty: Ty) -> TyDisplay<'_> {
        self.types.display(ty, &self.program.syms)
    }

    /// The value of a compile-time constant expression: named
    /// constants, enum variants, literals and pure operators; `None`
    /// when `e` is not one.
    pub fn const_eval(&self, e: ExprId) -> Option<u128> {
        const_eval(&self.program, &self.types, e)
    }
}

/// Type-check a parsed program.
pub fn check(program: Program) -> (CheckedProgram, Diagnostics) {
    // Every declaration names at most one type, header, struct or const:
    // size the tables once instead of growing them.
    let decls = program.decls.len();
    let mut by_sym = vec![None; program.syms.len()];
    // Builtin extern types resolve by name everywhere (params, lookups).
    for sym in [Sym::CMPT_OUT, Sym::DESC_IN, Sym::PACKET_IN, Sym::PACKET_OUT] {
        by_sym[sym.0 as usize] = ExternKind::builtin(sym).map(Ty::Extern);
    }
    let mut cx = Checker {
        program: &program,
        types: TypeTable {
            headers: Vec::with_capacity(program.headers().count()),
            structs: Vec::with_capacity(decls),
            by_sym,
            ..TypeTable::default()
        },
        diags: Diagnostics::new(),
        stamps: vec![0; program.syms.len()],
        generation: 0,
    };
    cx.collect_types();
    cx.check_bodies();
    let Checker { types, diags, .. } = cx;
    (CheckedProgram { program, types }, diags)
}

/// Convenience: parse then check in one call.
pub fn parse_and_check(src: &str) -> (CheckedProgram, Diagnostics) {
    let (program, mut diags) = crate::parser::parse(src);
    if diags.has_errors() {
        return (
            CheckedProgram {
                program,
                types: TypeTable::default(),
            },
            diags,
        );
    }
    let (checked, cdiags) = check(program);
    for d in cdiags {
        diags.push(d);
    }
    (checked, diags)
}

/// Resolve a syntactic type against a type table (typedefs already
/// expanded into it).
fn resolve_syntactic_ty(ty: &ast::Type, tt: &TypeTable) -> Option<Ty> {
    match &ty.kind {
        ast::TypeKind::Bit(w) => Some(Ty::Bit(*w)),
        ast::TypeKind::Bool => Some(Ty::Bool),
        ast::TypeKind::Void => Some(Ty::Void),
        ast::TypeKind::Named(n) => tt.lookup(*n),
    }
}

struct Checker<'p> {
    program: &'p Program,
    types: TypeTable,
    diags: Diagnostics,
    /// Duplicate-field detection without a set per field list:
    /// `stamps[sym] == generation` once `sym` names a field of the list
    /// being filled.
    stamps: Vec<u32>,
    generation: u32,
}

/// The value names in scope while a body is checked, innermost last. A
/// block, branch, case, state or action body pushes its locals and is
/// truncated away on exit, so a name declared inside shadows an outer
/// one for exactly as long as the block lasts.
#[derive(Default)]
struct Env {
    names: Vec<(Sym, Ty)>,
}

impl Env {
    fn get(&self, name: Sym) -> Option<Ty> {
        self.names
            .iter()
            .rev()
            .find_map(|(n, ty)| (*n == name).then_some(*ty))
    }

    fn insert(&mut self, name: Sym, ty: Ty) {
        self.names.push((name, ty));
    }

    /// Opens a scope; hand the result to [`leave`](Env::leave).
    fn enter(&self) -> usize {
        self.names.len()
    }

    fn leave(&mut self, scope: usize) {
        self.names.truncate(scope);
    }
}

/// Result of typing an expression. Integer literals without a width prefix
/// are `UnsizedInt` and unify with any `bit<N>`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ETy {
    Val(Ty),
    UnsizedInt,
    /// Already-diagnosed error; suppress cascades.
    Err,
}

impl ETy {
    fn is_bits(&self, tt: &TypeTable) -> bool {
        match self {
            ETy::UnsizedInt => true,
            ETy::Val(t) => {
                matches!(t, Ty::Bit(_) | Ty::Enum(_))
                    || t.bit_width(tt).is_some() && matches!(t, Ty::Bit(_) | Ty::Enum(_))
            }
            ETy::Err => true,
        }
    }

    fn is_bool(&self) -> bool {
        matches!(self, ETy::Val(Ty::Bool) | ETy::Err)
    }
}

impl<'p> Checker<'p> {
    fn name(&self, sym: Sym) -> &'p str {
        self.program.name(sym)
    }

    fn expr(&self, id: ExprId) -> &'p ast::Expr {
        self.program.expr(id)
    }

    fn ty_name(&self, ty: &ast::Type) -> ast::TypeKindDisplay<'p> {
        ty.kind.display(&self.program.syms)
    }

    fn display(&self, ty: Ty) -> String {
        self.types.display(ty, &self.program.syms).to_string()
    }

    /// Start a field list: no field of it has been seen yet.
    fn fresh_fields(&mut self) {
        self.generation += 1;
    }

    /// Whether an earlier field of the current list is also named `sym`.
    fn seen_field(&mut self, sym: Sym) -> bool {
        let stamp = &mut self.stamps[sym.0 as usize];
        let seen = *stamp == self.generation;
        *stamp = self.generation;
        seen
    }

    // -------------------------------------------------------- declarations

    fn declare(&mut self, name: &ast::Ident, ty: Ty) {
        if ExternKind::builtin(name.name).is_some() {
            self.diags.push(Diagnostic::error(
                format!(
                    "`{}` is a builtin extern type and cannot be redeclared",
                    self.name(name.name)
                ),
                name.span,
            ));
            return;
        }
        let slot = &mut self.types.by_sym[name.name.0 as usize];
        if slot.is_some() {
            self.diags.push(Diagnostic::error(
                format!("duplicate type name `{}`", self.name(name.name)),
                name.span,
            ));
            return;
        }
        *slot = Some(ty);
    }

    fn collect_types(&mut self) {
        let program = self.program;
        // Two passes: nominal shells first so structs can reference headers
        // declared later, then field resolution.
        for decl in &program.decls {
            match decl {
                ast::Decl::Header(h) => {
                    let id = HeaderId(self.types.headers.len() as u32);
                    self.types.headers.push(HeaderInfo {
                        name: h.name.name,
                        fields: Vec::new(),
                        width_bits: 0,
                        span: h.span,
                    });
                    self.declare(&h.name, Ty::Header(id));
                }
                ast::Decl::Struct(s) => {
                    let id = StructId(self.types.structs.len() as u32);
                    self.types.structs.push(StructInfo {
                        name: s.name.name,
                        fields: Vec::new(),
                        span: s.span,
                    });
                    self.declare(&s.name, Ty::Struct(id));
                }
                ast::Decl::Enum(e) => {
                    let repr_width = match &e.repr {
                        Some(t) => match &t.kind {
                            ast::TypeKind::Bit(w) => *w,
                            _ => {
                                self.diags.push(Diagnostic::error(
                                    "enum representation must be bit<N>",
                                    t.span,
                                ));
                                8
                            }
                        },
                        // Default to the smallest byte multiple that fits.
                        None => 8,
                    };
                    let nvars = e.variants.len() as u128;
                    if repr_width < 128 && nvars > (1u128 << repr_width) {
                        self.diags.push(Diagnostic::error(
                            format!(
                                "enum `{}` has {} variants but bit<{}> holds only {}",
                                self.name(e.name.name),
                                nvars,
                                repr_width,
                                1u128 << repr_width
                            ),
                            e.span,
                        ));
                    }
                    let id = EnumId(self.types.enums.len() as u32);
                    self.types.enums.push(EnumInfo {
                        name: e.name.name,
                        repr_width,
                        variants: e.variants.iter().map(|v| v.name).collect(),
                        span: e.span,
                    });
                    self.declare(&e.name, Ty::Enum(id));
                }
                ast::Decl::Extern(x) => {
                    let id = self.types.externs.len() as u32;
                    self.types.externs.push(ExternInfo {
                        name: x.name.name,
                        methods: x.methods.iter().map(|m| m.name.name).collect(),
                        span: x.span,
                    });
                    self.declare(&x.name, Ty::Extern(ExternKind::User(id)));
                }
                _ => {}
            }
        }
        // Typedefs may chain; resolve in order (forward references to
        // headers/structs already work thanks to the shell pass).
        for decl in &program.decls {
            if let ast::Decl::Typedef(td) = decl {
                match resolve_syntactic_ty(&td.ty, &self.types) {
                    Some(ty) => self.declare(&td.name, ty),
                    None => self.diags.push(Diagnostic::error(
                        format!(
                            "typedef `{}` refers to unknown type `{}`",
                            self.name(td.name.name),
                            self.ty_name(&td.ty)
                        ),
                        td.ty.span,
                    )),
                }
            }
        }
        // Consts (value expressions may reference earlier consts and enums).
        for decl in &program.decls {
            if let ast::Decl::Const(c) = decl {
                self.collect_const(c);
            }
        }
        // Now fill header and struct fields.
        for decl in &program.decls {
            match decl {
                ast::Decl::Header(h) => self.fill_header(h),
                ast::Decl::Struct(s) => self.fill_struct(s),
                _ => {}
            }
        }
    }

    fn collect_const(&mut self, c: &ast::ConstDecl) {
        let Some(ty) = resolve_syntactic_ty(&c.ty, &self.types) else {
            self.diags.push(Diagnostic::error(
                format!(
                    "constant `{}` has unknown type `{}`",
                    self.name(c.name.name),
                    self.ty_name(&c.ty)
                ),
                c.ty.span,
            ));
            return;
        };
        let vspan = self.expr(c.value).span;
        let Some(value) = self.const_eval(c.value) else {
            self.diags.push(Diagnostic::error(
                format!(
                    "constant `{}` must have a compile-time value",
                    self.name(c.name.name)
                ),
                vspan,
            ));
            return;
        };
        if let Ty::Bit(w) = ty {
            if w < 128 && value >= (1u128 << w) {
                self.diags.push(Diagnostic::error(
                    format!("value {value} does not fit in bit<{w}>"),
                    vspan,
                ));
            }
        }
        if self.types.const_(c.name.name).is_some() {
            self.diags.push(Diagnostic::error(
                format!("duplicate constant `{}`", self.name(c.name.name)),
                c.name.span,
            ));
            return;
        }
        self.types.consts.push(ConstInfo {
            name: c.name.name,
            ty,
            value,
            span: c.span,
        });
    }

    fn fill_header(&mut self, h: &ast::HeaderDecl) {
        let Some(Ty::Header(id)) = self.types.lookup(h.name.name) else {
            return; // duplicate name already diagnosed
        };
        let mut fields = Vec::with_capacity(h.fields.len());
        let mut offset: u32 = 0;
        self.fresh_fields();
        for f in &h.fields {
            if self.seen_field(f.name.name) {
                self.diags.push(Diagnostic::error(
                    format!(
                        "duplicate field `{}` in header `{}`",
                        self.name(f.name.name),
                        self.name(h.name.name)
                    ),
                    f.name.span,
                ));
            }
            let width_bits = match resolve_syntactic_ty(&f.ty, &self.types) {
                Some(Ty::Bit(w)) => w,
                Some(Ty::Bool) => 1,
                Some(Ty::Enum(eid)) => self.types.enum_(eid).repr_width,
                Some(other) => {
                    self.diags.push(
                        Diagnostic::error(
                            format!(
                                "header field `{}` must have a value type, found {}",
                                self.name(f.name.name),
                                self.display(other)
                            ),
                            f.ty.span,
                        )
                        .with_note("headers are wire formats: only bit<N>, bool and bit-repr enums are allowed"),
                    );
                    0
                }
                None => {
                    self.diags.push(Diagnostic::error(
                        format!("unknown type `{}`", self.ty_name(&f.ty)),
                        f.ty.span,
                    ));
                    0
                }
            };
            fields.push(FieldInfo {
                name: f.name.name,
                offset_bits: offset,
                width_bits,
                semantic: self.program.semantic(f),
                cost: self.program.cost(f).map(|c| c as u64),
                span: f.span,
            });
            offset += width_bits as u32;
        }
        if !offset.is_multiple_of(8) {
            self.diags.push(
                Diagnostic::error(
                    format!(
                        "header `{}` is {offset} bits wide, which is not a whole number of bytes",
                        self.name(h.name.name)
                    ),
                    h.span,
                )
                .with_note("descriptor hardware DMAs whole bytes; pad the header explicitly"),
            );
        }
        let info = &mut self.types.headers[id.0 as usize];
        info.fields = fields;
        info.width_bits = offset;
    }

    fn fill_struct(&mut self, s: &ast::StructDecl) {
        let Some(Ty::Struct(id)) = self.types.lookup(s.name.name) else {
            return;
        };
        let mut fields = Vec::with_capacity(s.fields.len());
        self.fresh_fields();
        for f in &s.fields {
            if self.seen_field(f.name.name) {
                self.diags.push(Diagnostic::error(
                    format!(
                        "duplicate field `{}` in struct `{}`",
                        self.name(f.name.name),
                        self.name(s.name.name)
                    ),
                    f.name.span,
                ));
            }
            let ty = match resolve_syntactic_ty(&f.ty, &self.types) {
                Some(t) => t,
                None => {
                    self.diags.push(Diagnostic::error(
                        format!("unknown type `{}`", self.ty_name(&f.ty)),
                        f.ty.span,
                    ));
                    continue;
                }
            };
            fields.push(StructFieldInfo {
                name: f.name.name,
                ty,
                span: f.span,
            });
        }
        self.types.structs[id.0 as usize].fields = fields;
    }

    // --------------------------------------------------------------- bodies

    fn check_bodies(&mut self) {
        for decl in &self.program.decls {
            match decl {
                ast::Decl::Parser(p) => self.check_parser(p),
                ast::Decl::Control(c) => self.check_control(c),
                _ => {}
            }
        }
    }

    fn check_parser(&mut self, p: &ast::ParserDecl) {
        if !p.type_params.is_empty() {
            if p.states.is_some() {
                self.diags.push(Diagnostic::warning(
                    format!(
                        "generic parser `{}` body is not checked (templates are signatures)",
                        self.name(p.name.name)
                    ),
                    p.name.span,
                ));
            }
            return;
        }
        let Some(mut env) = self.param_env(&p.params, &p.type_params) else {
            return;
        };
        let Some(states) = &p.states else { return };
        // Transition targets: a state of this parser, `accept` or `reject`.
        let is_state = |t: Sym| {
            t == Sym::ACCEPT || t == Sym::REJECT || states.iter().any(|s| s.name.name == t)
        };
        if !states.iter().any(|s| s.name.name == Sym::START) {
            self.diags.push(Diagnostic::error(
                format!("parser `{}` has no `start` state", self.name(p.name.name)),
                p.name.span,
            ));
        }
        for st in states {
            let scope = env.enter();
            for stmt in &st.stmts {
                self.check_stmt(stmt, &mut env);
            }
            match &st.transition {
                None => self.diags.push(Diagnostic::error(
                    format!("state `{}` has no transition", self.name(st.name.name)),
                    st.span,
                )),
                Some(ast::Transition::Direct(target)) => {
                    if !is_state(target.name) {
                        self.diags.push(Diagnostic::error(
                            format!("transition to unknown state `{}`", self.name(target.name)),
                            target.span,
                        ));
                    }
                }
                Some(ast::Transition::Select { exprs, cases, .. }) => {
                    for e in exprs {
                        self.type_expr(*e, &env);
                    }
                    for case in cases {
                        for m in &case.matches {
                            if let ast::SelectMatch::Expr(e) = m {
                                if self.const_eval(*e).is_none() {
                                    self.diags.push(Diagnostic::error(
                                        "select match must be a compile-time constant",
                                        self.expr(*e).span,
                                    ));
                                }
                            }
                        }
                        if !is_state(case.target.name) {
                            self.diags.push(Diagnostic::error(
                                format!(
                                    "transition to unknown state `{}`",
                                    self.name(case.target.name)
                                ),
                                case.target.span,
                            ));
                        }
                    }
                }
            }
            env.leave(scope);
        }
    }

    fn check_control(&mut self, c: &ast::ControlDecl) {
        if !c.type_params.is_empty() {
            if c.apply.is_some() {
                self.diags.push(Diagnostic::warning(
                    format!(
                        "generic control `{}` body is not checked (templates are signatures)",
                        self.name(c.name.name)
                    ),
                    c.name.span,
                ));
            }
            return;
        }
        let Some(mut env) = self.param_env(&c.params, &c.type_params) else {
            return;
        };
        for local in &c.locals {
            match local {
                ast::ControlLocal::Var(v) => self.check_var(v, &mut env),
                ast::ControlLocal::Const(k) => {
                    self.collect_const(k);
                }
                ast::ControlLocal::Action(a) => {
                    let scope = env.enter();
                    for p in &a.params {
                        match resolve_syntactic_ty(&p.ty, &self.types) {
                            Some(t) => env.insert(p.name.name, t),
                            None => self.diags.push(Diagnostic::error(
                                format!("unknown type `{}`", self.ty_name(&p.ty)),
                                p.ty.span,
                            )),
                        }
                    }
                    for stmt in &a.body.stmts {
                        self.check_stmt(stmt, &mut env);
                    }
                    env.leave(scope);
                    // Actions are callable by name: record as a no-type env
                    // entry checked specially in calls.
                    env.insert(a.name.name, Ty::Void);
                }
            }
        }
        if let Some(apply) = &c.apply {
            for stmt in &apply.stmts {
                self.check_stmt(stmt, &mut env);
            }
        }
    }

    fn param_env(&mut self, params: &[ast::Param], type_params: &[ast::Ident]) -> Option<Env> {
        let mut env = Env::default();
        let mut ok = true;
        for p in params {
            let ty = match &p.ty.kind {
                ast::TypeKind::Named(n) if ExternKind::builtin(*n).is_some() => {
                    Ty::Extern(ExternKind::builtin(*n).unwrap())
                }
                ast::TypeKind::Named(n) if type_params.iter().any(|t| t.name == *n) => {
                    // Template parameter: body will not be checked anyway.
                    continue;
                }
                _ => match resolve_syntactic_ty(&p.ty, &self.types) {
                    Some(t) => t,
                    None => {
                        self.diags.push(Diagnostic::error(
                            format!("unknown type `{}`", self.ty_name(&p.ty)),
                            p.ty.span,
                        ));
                        ok = false;
                        continue;
                    }
                },
            };
            env.insert(p.name.name, ty);
        }
        ok.then_some(env)
    }

    fn check_var(&mut self, v: &ast::VarDecl, env: &mut Env) {
        let ty = match resolve_syntactic_ty(&v.ty, &self.types) {
            Some(t) => t,
            None => {
                self.diags.push(Diagnostic::error(
                    format!("unknown type `{}`", self.ty_name(&v.ty)),
                    v.ty.span,
                ));
                return;
            }
        };
        if let Some(init) = v.init {
            let ity = self.type_expr(init, env);
            self.require_assignable(ity, ty, self.expr(init).span);
        }
        env.insert(v.name.name, ty);
    }

    fn check_stmt(&mut self, stmt: &ast::Stmt, env: &mut Env) {
        match &stmt.kind {
            ast::StmtKind::If { arms, else_blk } => {
                for arm in arms {
                    let cty = self.type_expr(arm.cond, env);
                    if !cty.is_bool() {
                        // P4 habit: `if (x == 1)` is fine, `if (x)` over bits
                        // is not. Match that strictness.
                        self.diags.push(Diagnostic::error(
                            "if condition must be boolean",
                            self.expr(arm.cond).span,
                        ));
                    }
                    self.check_block(&arm.then_blk, env);
                }
                if let Some(eb) = else_blk {
                    self.check_block(eb, env);
                }
            }
            ast::StmtKind::Switch { scrutinee, cases } => {
                let sty = self.type_expr(*scrutinee, env);
                if !sty.is_bits(&self.types) {
                    self.diags.push(Diagnostic::error(
                        "switch scrutinee must be a bit value",
                        self.expr(*scrutinee).span,
                    ));
                }
                let mut default_seen = false;
                for case in cases {
                    for label in &case.labels {
                        match label {
                            ast::SwitchLabel::Default => {
                                if default_seen {
                                    self.diags.push(Diagnostic::error(
                                        "duplicate `default` label",
                                        case.span,
                                    ));
                                }
                                default_seen = true;
                            }
                            ast::SwitchLabel::Expr(e) => {
                                if self.const_eval(*e).is_none() {
                                    self.diags.push(Diagnostic::error(
                                        "switch label must be a compile-time constant",
                                        self.expr(*e).span,
                                    ));
                                }
                            }
                        }
                    }
                    self.check_block(&case.block, env);
                }
            }
            ast::StmtKind::Expr(e) => {
                // Must be a call to be meaningful as a statement.
                match &self.expr(*e).kind {
                    ast::ExprKind::Call { .. } => {
                        self.type_expr(*e, env);
                    }
                    _ => {
                        self.diags.push(Diagnostic::error(
                            "expression statement has no effect",
                            self.expr(*e).span,
                        ));
                    }
                }
            }
            ast::StmtKind::Assign { lhs, rhs } => {
                let lty = self.type_expr(*lhs, env);
                let rty = self.type_expr(*rhs, env);
                if let (ETy::Val(l), r) = (lty, rty) {
                    self.require_assignable(r, l, self.expr(*rhs).span);
                }
            }
            ast::StmtKind::Var(v) => self.check_var(v, env),
            ast::StmtKind::Return => {}
            ast::StmtKind::Block(b) => self.check_block(b, env),
        }
    }

    /// Check a block in a scope of its own.
    fn check_block(&mut self, b: &ast::Block, env: &mut Env) {
        let scope = env.enter();
        for s in &b.stmts {
            self.check_stmt(s, env);
        }
        env.leave(scope);
    }

    fn require_assignable(&mut self, from: ETy, to: Ty, span: Span) {
        match (from, to) {
            (ETy::Err, _) => {}
            (ETy::UnsizedInt, Ty::Bit(_)) => {}
            (ETy::Val(f), t) if f == t => {}
            (ETy::Val(Ty::Enum(_)), Ty::Bit(_)) => {}
            (f, t) => {
                let fs = match f {
                    ETy::UnsizedInt => "integer".to_string(),
                    ETy::Val(v) => self.display(v),
                    ETy::Err => unreachable!(),
                };
                self.diags.push(Diagnostic::error(
                    format!("cannot assign {} to {}", fs, self.display(t)),
                    span,
                ));
            }
        }
    }

    // ----------------------------------------------------------- expressions

    fn type_expr(&mut self, id: ExprId, env: &Env) -> ETy {
        let e = self.expr(id);
        match &e.kind {
            ast::ExprKind::Int { width, .. } => match width {
                Some(w) => ETy::Val(Ty::Bit(*w)),
                None => ETy::UnsizedInt,
            },
            ast::ExprKind::Bool(_) => ETy::Val(Ty::Bool),
            ast::ExprKind::Ident(n) => {
                if let Some(t) = env.get(*n) {
                    return ETy::Val(t);
                }
                if let Some(c) = self.types.const_(*n) {
                    return ETy::Val(c.ty);
                }
                // Enum type name used as scope (`fmt_t.FULL`) handled in
                // Member; bare enum type name is an error here.
                self.diags.push(Diagnostic::error(
                    format!("unknown name `{}`", self.name(*n)),
                    e.span,
                ));
                ETy::Err
            }
            ast::ExprKind::Member { base, member } => {
                let base_expr = self.expr(*base);
                // Enum variant access: `EnumName.VARIANT`.
                if let ast::ExprKind::Ident(n) = &base_expr.kind {
                    if let Some(Ty::Enum(id)) = self.types.lookup(*n) {
                        let info = self.types.enum_(id);
                        if info.variant_value(member.name).is_some() {
                            return ETy::Val(Ty::Enum(id));
                        }
                        self.diags.push(Diagnostic::error(
                            format!(
                                "enum `{}` has no variant `{}`",
                                self.name(*n),
                                self.name(member.name)
                            ),
                            member.span,
                        ));
                        return ETy::Err;
                    }
                }
                let bty = self.type_expr(*base, env);
                match bty {
                    ETy::Val(Ty::Struct(id)) => {
                        let info = self.types.struct_(id);
                        match info.field(member.name) {
                            Some(f) => ETy::Val(f.ty),
                            None => {
                                let msg = format!(
                                    "struct `{}` has no field `{}`",
                                    self.name(info.name),
                                    self.name(member.name)
                                );
                                self.diags.push(Diagnostic::error(msg, member.span));
                                ETy::Err
                            }
                        }
                    }
                    ETy::Val(Ty::Header(id)) => {
                        let info = self.types.header(id);
                        match info.field(member.name) {
                            Some(f) => ETy::Val(Ty::Bit(f.width_bits)),
                            None => {
                                let msg = format!(
                                    "header `{}` has no field `{}`",
                                    self.name(info.name),
                                    self.name(member.name)
                                );
                                self.diags.push(Diagnostic::error(msg, member.span));
                                ETy::Err
                            }
                        }
                    }
                    ETy::Err => ETy::Err,
                    _ => {
                        self.diags.push(Diagnostic::error(
                            format!("`{}` is not a struct or header", self.name(member.name)),
                            base_expr.span,
                        ));
                        ETy::Err
                    }
                }
            }
            ast::ExprKind::Slice { base, hi, lo } => {
                let bty = self.type_expr(*base, env);
                let bw = match bty {
                    ETy::Val(Ty::Bit(w)) => Some(w),
                    ETy::Err => None,
                    _ => {
                        self.diags.push(Diagnostic::error(
                            "slice base must be a bit value",
                            self.expr(*base).span,
                        ));
                        None
                    }
                };
                let (Some(h), Some(l)) = (self.const_eval(*hi), self.const_eval(*lo)) else {
                    self.diags.push(Diagnostic::error(
                        "slice bounds must be compile-time constants",
                        self.expr(*hi).span.to(self.expr(*lo).span),
                    ));
                    return ETy::Err;
                };
                if h < l {
                    self.diags.push(Diagnostic::error(
                        format!("slice bounds reversed: [{h}:{l}]"),
                        e.span,
                    ));
                    return ETy::Err;
                }
                if let Some(w) = bw {
                    if h >= w as u128 {
                        self.diags.push(Diagnostic::error(
                            format!("slice bit {h} out of range for bit<{w}>"),
                            e.span,
                        ));
                        return ETy::Err;
                    }
                }
                ETy::Val(Ty::Bit((h - l + 1) as u16))
            }
            ast::ExprKind::Call { callee, args } => self.type_call(e, *callee, args, env),
            ast::ExprKind::Unary { op, expr } => {
                let t = self.type_expr(*expr, env);
                match op {
                    ast::UnOp::Not => {
                        if !t.is_bool() {
                            self.diags.push(Diagnostic::error(
                                "`!` requires a boolean operand",
                                self.expr(*expr).span,
                            ));
                            return ETy::Err;
                        }
                        ETy::Val(Ty::Bool)
                    }
                    ast::UnOp::BitNot | ast::UnOp::Neg => {
                        if !t.is_bits(&self.types) {
                            self.diags.push(Diagnostic::error(
                                format!("`{op}` requires a bit operand"),
                                self.expr(*expr).span,
                            ));
                            return ETy::Err;
                        }
                        t
                    }
                }
            }
            ast::ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.type_expr(*lhs, env);
                let rt = self.type_expr(*rhs, env);
                use ast::BinOp::*;
                match op {
                    And | Or => {
                        if !lt.is_bool() || !rt.is_bool() {
                            self.diags.push(Diagnostic::error(
                                format!("`{op}` requires boolean operands"),
                                e.span,
                            ));
                        }
                        ETy::Val(Ty::Bool)
                    }
                    Eq | Ne | Lt | Le | Gt | Ge => {
                        self.require_compatible(lt, rt, e.span);
                        ETy::Val(Ty::Bool)
                    }
                    BitAnd | BitOr | BitXor | Add | Sub | Mul | Div | Mod => {
                        self.require_compatible(lt, rt, e.span);
                        self.join_bits(lt, rt)
                    }
                    Shl | Shr => {
                        if !lt.is_bits(&self.types) || !rt.is_bits(&self.types) {
                            self.diags.push(Diagnostic::error(
                                format!("`{op}` requires bit operands"),
                                e.span,
                            ));
                        }
                        lt
                    }
                    Concat => match (lt, rt) {
                        (ETy::Val(Ty::Bit(a)), ETy::Val(Ty::Bit(b))) => ETy::Val(Ty::Bit(a + b)),
                        (ETy::Err, _) | (_, ETy::Err) => ETy::Err,
                        _ => {
                            self.diags.push(Diagnostic::error(
                                "`++` requires sized bit operands",
                                e.span,
                            ));
                            ETy::Err
                        }
                    },
                }
            }
            ast::ExprKind::Cast { ty, expr } => {
                self.type_expr(*expr, env);
                match resolve_syntactic_ty(ty, &self.types) {
                    Some(t @ (Ty::Bit(_) | Ty::Bool)) => ETy::Val(t),
                    _ => {
                        self.diags.push(Diagnostic::error(
                            "casts are only allowed to bit<N> or bool",
                            ty.span,
                        ));
                        ETy::Err
                    }
                }
            }
        }
    }

    fn join_bits(&self, a: ETy, b: ETy) -> ETy {
        match (a, b) {
            (ETy::Err, _) | (_, ETy::Err) => ETy::Err,
            (ETy::UnsizedInt, x) | (x, ETy::UnsizedInt) => x,
            (x, _) => x,
        }
    }

    fn require_compatible(&mut self, a: ETy, b: ETy, span: Span) {
        let ok = match (a, b) {
            (ETy::Err, _) | (_, ETy::Err) => true,
            (ETy::UnsizedInt, x) | (x, ETy::UnsizedInt) => x.is_bits(&self.types),
            (ETy::Val(Ty::Bool), ETy::Val(Ty::Bool)) => true,
            (ETy::Val(Ty::Bit(wa)), ETy::Val(Ty::Bit(wb))) => wa == wb,
            (ETy::Val(Ty::Enum(ea)), ETy::Val(Ty::Enum(eb))) => ea == eb,
            (ETy::Val(Ty::Enum(id)), ETy::Val(Ty::Bit(w)))
            | (ETy::Val(Ty::Bit(w)), ETy::Val(Ty::Enum(id))) => {
                self.types.enum_(id).repr_width == w
            }
            _ => false,
        };
        if !ok {
            let shown = |t: ETy| match t {
                ETy::UnsizedInt => "integer".to_string(),
                ETy::Val(v) => self.display(v),
                ETy::Err => unreachable!(),
            };
            let (da, db) = (shown(a), shown(b));
            self.diags.push(Diagnostic::error(
                format!("incompatible operand types {da} and {db}"),
                span,
            ));
        }
    }

    fn type_call(&mut self, whole: &ast::Expr, callee: ExprId, args: &[ExprId], env: &Env) -> ETy {
        let callee_expr = self.expr(callee);
        // Method-style call: `recv.emit(x)`, `d.extract(h)`, user externs,
        // `hdr.isValid()`, or a bare action call `name()`.
        if let ast::ExprKind::Member { base, member } = &callee_expr.kind {
            let bty = self.type_expr(*base, env);
            match (&bty, member.name) {
                (ETy::Val(Ty::Extern(ExternKind::CmptOut | ExternKind::PacketOut)), Sym::EMIT) => {
                    if args.len() != 1 {
                        self.diags.push(Diagnostic::error(
                            format!("`emit` takes exactly one argument, got {}", args.len()),
                            whole.span,
                        ));
                        return ETy::Err;
                    }
                    let aty = self.type_expr(args[0], env);
                    match aty {
                        ETy::Val(Ty::Header(_)) | ETy::Val(Ty::Bit(_)) => ETy::Val(Ty::Void),
                        ETy::Err => ETy::Err,
                        _ => {
                            self.diags.push(
                                Diagnostic::error(
                                    "`emit` argument must be a header or a header field",
                                    self.expr(args[0]).span,
                                )
                                .with_note(
                                    "the completion stream is a byte layout; structs have no \
                                     defined wire order",
                                ),
                            );
                            ETy::Err
                        }
                    }
                }
                (ETy::Val(Ty::Extern(ExternKind::DescIn | ExternKind::PacketIn)), Sym::EXTRACT) => {
                    if args.len() != 1 {
                        self.diags.push(Diagnostic::error(
                            format!("`extract` takes exactly one argument, got {}", args.len()),
                            whole.span,
                        ));
                        return ETy::Err;
                    }
                    let aty = self.type_expr(args[0], env);
                    match aty {
                        ETy::Val(Ty::Header(_)) => ETy::Val(Ty::Void),
                        ETy::Err => ETy::Err,
                        _ => {
                            self.diags.push(Diagnostic::error(
                                "`extract` argument must be a header",
                                self.expr(args[0]).span,
                            ));
                            ETy::Err
                        }
                    }
                }
                (ETy::Val(Ty::Header(_)), Sym::IS_VALID) => {
                    if !args.is_empty() {
                        self.diags.push(Diagnostic::error(
                            "`isValid` takes no arguments",
                            whole.span,
                        ));
                    }
                    ETy::Val(Ty::Bool)
                }
                (ETy::Val(Ty::Header(_)), Sym::SET_VALID | Sym::SET_INVALID) => {
                    if !args.is_empty() {
                        self.diags.push(Diagnostic::error(
                            "validity setters take no arguments",
                            whole.span,
                        ));
                    }
                    ETy::Val(Ty::Void)
                }
                (ETy::Val(Ty::Extern(ExternKind::User(id))), m) => {
                    let info = &self.types.externs[*id as usize];
                    if !info.methods.contains(&m) {
                        let msg = format!(
                            "extern `{}` has no method `{}`",
                            self.name(info.name),
                            self.name(m)
                        );
                        self.diags.push(Diagnostic::error(msg, member.span));
                        return ETy::Err;
                    }
                    for a in args {
                        self.type_expr(*a, env);
                    }
                    // Extern method results are opaque; contracts only use
                    // void-ish externs in statement position.
                    ETy::Val(Ty::Void)
                }
                (ETy::Err, _) => ETy::Err,
                (_, m) => {
                    self.diags.push(Diagnostic::error(
                        format!("unknown method `{}`", self.name(m)),
                        member.span,
                    ));
                    ETy::Err
                }
            }
        } else if let ast::ExprKind::Ident(n) = &callee_expr.kind {
            // Bare action call.
            if env.get(*n) == Some(Ty::Void) {
                for a in args {
                    self.type_expr(*a, env);
                }
                return ETy::Val(Ty::Void);
            }
            self.diags.push(Diagnostic::error(
                format!("unknown function `{}`", self.name(*n)),
                callee_expr.span,
            ));
            ETy::Err
        } else {
            self.diags.push(Diagnostic::error(
                "expression is not callable",
                callee_expr.span,
            ));
            ETy::Err
        }
    }

    // -------------------------------------------------------- const eval

    /// Evaluate a compile-time constant expression. Returns `None` when the
    /// expression is not constant; callers emit the diagnostic.
    fn const_eval(&self, e: ExprId) -> Option<u128> {
        const_eval(self.program, &self.types, e)
    }
}

/// Evaluate a compile-time constant expression of `program` against its
/// type table (see [`CheckedProgram::const_eval`]).
fn const_eval(program: &Program, types: &TypeTable, e: ExprId) -> Option<u128> {
    let eval = |e: ExprId| const_eval(program, types, e);
    match &program.expr(e).kind {
        ast::ExprKind::Int { value, .. } => Some(*value),
        ast::ExprKind::Bool(b) => Some(*b as u128),
        ast::ExprKind::Ident(n) => types.const_(*n).map(|c| c.value),
        ast::ExprKind::Member { base, member } => {
            if let ast::ExprKind::Ident(n) = &program.expr(*base).kind {
                if let Some(Ty::Enum(id)) = types.lookup(*n) {
                    return types.enum_(id).variant_value(member.name);
                }
            }
            None
        }
        ast::ExprKind::Unary { op, expr } => {
            let v = eval(*expr)?;
            Some(match op {
                ast::UnOp::Not => (v == 0) as u128,
                ast::UnOp::BitNot => !v,
                ast::UnOp::Neg => v.wrapping_neg(),
            })
        }
        ast::ExprKind::Binary { op, lhs, rhs } => {
            let a = eval(*lhs)?;
            let b = eval(*rhs)?;
            use ast::BinOp::*;
            Some(match op {
                Add => a.wrapping_add(b),
                Sub => a.wrapping_sub(b),
                Mul => a.wrapping_mul(b),
                Div => a.checked_div(b)?,
                Mod => a.checked_rem(b)?,
                BitAnd => a & b,
                BitOr => a | b,
                BitXor => a ^ b,
                Shl => a.checked_shl(b.try_into().ok()?).unwrap_or(0),
                Shr => a.checked_shr(b.try_into().ok()?).unwrap_or(0),
                Eq => (a == b) as u128,
                Ne => (a != b) as u128,
                Lt => (a < b) as u128,
                Le => (a <= b) as u128,
                Gt => (a > b) as u128,
                Ge => (a >= b) as u128,
                And => ((a != 0) && (b != 0)) as u128,
                Or => ((a != 0) || (b != 0)) as u128,
                Concat => return None,
            })
        }
        ast::ExprKind::Cast { ty, expr } => {
            let v = eval(*expr)?;
            match &ty.kind {
                ast::TypeKind::Bit(w) if *w < 128 => Some(v & ((1u128 << w) - 1)),
                ast::TypeKind::Bit(_) => Some(v),
                ast::TypeKind::Bool => Some((v != 0) as u128),
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_ok(src: &str) -> CheckedProgram {
        let (p, diags) = parse_and_check(src);
        assert!(
            !diags.has_errors(),
            "unexpected errors:\n{}",
            diags
                .iter()
                .map(|d| format!("{}: {}", d.severity, d.message))
                .collect::<Vec<_>>()
                .join("\n")
        );
        p
    }

    fn check_err(src: &str, needle: &str) {
        let (_, diags) = parse_and_check(src);
        assert!(
            diags.iter().any(|d| d.message.contains(needle)),
            "expected an error containing {needle:?}, got:\n{}",
            diags
                .iter()
                .map(|d| format!("{}: {}", d.severity, d.message))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn header_offsets_computed() {
        let p = check_ok(
            r#"
            header cmpt_t {
                @semantic("rss_hash") bit<32> rss;
                @semantic("vlan_tci") bit<16> vlan;
                bit<8> flags;
                bit<8> pad;
            }
            "#,
        );
        let id = p.header_id("cmpt_t").unwrap();
        let h = p.types.header(id);
        assert_eq!(h.width_bits, 64);
        assert_eq!(h.width_bytes(), 8);
        let field = |n: &str| h.field(p.sym(n).unwrap()).unwrap();
        assert_eq!(field("rss").offset_bits, 0);
        assert_eq!(field("vlan").offset_bits, 32);
        assert_eq!(field("flags").offset_bits, 48);
        assert_eq!(field("rss").semantic.map(|s| p.name(s)), Some("rss_hash"));
    }

    #[test]
    fn non_byte_aligned_header_rejected() {
        check_err("header bad_t { bit<7> x; }", "not a whole number of bytes");
    }

    #[test]
    fn header_fields_must_be_value_types() {
        check_err(
            r#"
            header inner_t { bit<8> x; }
            header outer_t { inner_t nested; }
            "#,
            "must have a value type",
        );
    }

    #[test]
    fn typedef_resolves_transitively() {
        let p = check_ok(
            r#"
            typedef bit<16> tci_t;
            typedef tci_t tci2_t;
            header h_t { tci2_t v; }
            "#,
        );
        let id = p.header_id("h_t").unwrap();
        assert_eq!(p.types.header(id).width_bits, 16);
    }

    #[test]
    fn const_values_evaluated_and_range_checked() {
        let p = check_ok("const bit<16> V = 16w0x8100;");
        assert_eq!(p.types.const_(p.sym("V").unwrap()).unwrap().value, 0x8100);
        check_err("const bit<8> V = 256;", "does not fit");
    }

    #[test]
    fn duplicate_type_names_rejected() {
        check_err(
            "header a_t { bit<8> x; } struct a_t { bit<8> y; }",
            "duplicate type name",
        );
    }

    #[test]
    fn duplicate_fields_rejected() {
        check_err("header h_t { bit<8> x; bit<8> x; }", "duplicate field");
    }

    #[test]
    fn builtin_externs_not_redeclarable() {
        check_err("struct cmpt_out { bit<8> x; }", "builtin extern");
    }

    #[test]
    fn enum_fits_check() {
        check_err("enum bit<1> e_t { A, B, C }", "holds only");
        let p = check_ok("enum bit<2> e_t { A, B, C }");
        let Ty::Enum(id) = p.lookup("e_t").unwrap() else {
            panic!()
        };
        let c = p.sym("C").unwrap();
        assert_eq!(p.types.enum_(id).variant_value(c), Some(2));
    }

    #[test]
    fn concrete_deparser_checks() {
        check_ok(
            r#"
            header rss_t { @semantic("rss_hash") bit<32> rss; }
            header csum_t { bit<16> ip_id; @semantic("ip_checksum") bit<16> csum; }
            struct ctx_t { bit<1> use_rss; }
            struct meta_t { rss_t rss; csum_t csum; }
            control CmptDeparser(cmpt_out cmpt, in ctx_t ctx, in meta_t pipe_meta) {
                apply {
                    if (ctx.use_rss == 1) {
                        cmpt.emit(pipe_meta.rss);
                    } else {
                        cmpt.emit(pipe_meta.csum);
                    }
                }
            }
            "#,
        );
    }

    #[test]
    fn emit_of_struct_rejected() {
        check_err(
            r#"
            header a_t { bit<8> x; }
            struct m_t { a_t a; }
            control C(cmpt_out o, in m_t m) {
                apply { o.emit(m); }
            }
            "#,
            "`emit` argument must be a header",
        );
    }

    #[test]
    fn unknown_member_diagnosed() {
        check_err(
            r#"
            struct ctx_t { bit<1> f; }
            control C(cmpt_out o, in ctx_t ctx) {
                apply { if (ctx.nope == 1) { return; } }
            }
            "#,
            "no field `nope`",
        );
    }

    #[test]
    fn if_condition_must_be_boolean() {
        check_err(
            r#"
            struct ctx_t { bit<8> f; }
            control C(in ctx_t ctx) {
                apply { if (ctx.f) { return; } }
            }
            "#,
            "must be boolean",
        );
    }

    #[test]
    fn width_mismatch_in_comparison() {
        check_err(
            r#"
            struct ctx_t { bit<8> a; bit<16> b; }
            control C(in ctx_t ctx) {
                apply { if (ctx.a == ctx.b) { return; } }
            }
            "#,
            "incompatible operand types",
        );
    }

    #[test]
    fn unsized_literal_unifies_with_any_width() {
        check_ok(
            r#"
            struct ctx_t { bit<3> a; }
            control C(in ctx_t ctx) {
                apply { if (ctx.a == 5) { return; } }
            }
            "#,
        );
    }

    #[test]
    fn parser_requires_start_state() {
        check_err(
            r#"
            header h_t { bit<8> x; }
            parser P(desc_in d, out h_t hdr) {
                state go { transition accept; }
            }
            "#,
            "no `start` state",
        );
    }

    #[test]
    fn parser_transition_targets_resolved() {
        check_err(
            r#"
            header h_t { bit<8> x; }
            parser P(desc_in d, out h_t hdr) {
                state start { transition nowhere; }
            }
            "#,
            "unknown state `nowhere`",
        );
    }

    #[test]
    fn parser_extract_and_select_check() {
        check_ok(
            r#"
            header h_t { bit<8> kind; }
            header ext_t { bit<32> more; }
            struct desc_t { h_t base; ext_t ext; }
            struct ctx_t { bit<8> size; }
            parser P(desc_in d, in ctx_t ctx, out desc_t hdr) {
                state start {
                    d.extract(hdr.base);
                    transition select(ctx.size) {
                        8: accept;
                        16: parse_ext;
                        default: reject;
                    }
                }
                state parse_ext {
                    d.extract(hdr.ext);
                    transition accept;
                }
            }
            "#,
        );
    }

    #[test]
    fn template_signatures_skip_body_checks() {
        // Fig. 3/4 templates: unknown generic types must not error.
        check_ok(
            r#"
            parser DescParser<H2C_CTX_T, DESC_T>(
                desc_in d, in H2C_CTX_T ctx, out DESC_T hdr
            );
            control CmptDeparser<C2H_CTX_T, DESC_T, META_T>(
                cmpt_out o, in DESC_T hdr, in META_T m
            );
            "#,
        );
    }

    #[test]
    fn switch_labels_const_checked() {
        check_ok(
            r#"
            header a_t { bit<8> x; }
            struct ctx_t { bit<2> fmt; }
            struct m_t { a_t a; }
            const bit<2> FMT_FULL = 0;
            control C(cmpt_out o, in ctx_t ctx, in m_t m) {
                apply {
                    switch (ctx.fmt) {
                        FMT_FULL: { o.emit(m.a); }
                        1: { o.emit(m.a); }
                        default: { return; }
                    }
                }
            }
            "#,
        );
        check_err(
            r#"
            struct ctx_t { bit<2> fmt; bit<2> other; }
            control C(in ctx_t ctx) {
                apply {
                    switch (ctx.fmt) {
                        ctx.other: { return; }
                    }
                }
            }
            "#,
            "compile-time constant",
        );
    }

    #[test]
    fn enum_variants_usable_in_conditions() {
        check_ok(
            r#"
            enum bit<2> fmt_t { FULL, MINI }
            struct ctx_t { fmt_t fmt; }
            control C(in ctx_t ctx) {
                apply { if (ctx.fmt == fmt_t.MINI) { return; } }
            }
            "#,
        );
    }

    #[test]
    fn slice_bounds_checked() {
        check_err(
            r#"
            struct ctx_t { bit<8> f; }
            control C(in ctx_t ctx) {
                apply { if (ctx.f[9:0] == 1) { return; } }
            }
            "#,
            "out of range",
        );
        check_err(
            r#"
            struct ctx_t { bit<8> f; }
            control C(in ctx_t ctx) {
                apply { if (ctx.f[0:3] == 1) { return; } }
            }
            "#,
            "reversed",
        );
    }

    #[test]
    fn emit_arity_checked() {
        check_err(
            r#"
            header a_t { bit<8> x; }
            struct m_t { a_t a; }
            control C(cmpt_out o, in m_t m) {
                apply { o.emit(m.a, m.a); }
            }
            "#,
            "exactly one argument",
        );
    }

    #[test]
    fn action_calls_resolve() {
        check_ok(
            r#"
            header a_t { bit<8> x; }
            struct m_t { a_t a; }
            control C(cmpt_out o, in m_t m) {
                action finish() { o.emit(m.a); }
                apply { finish(); }
            }
            "#,
        );
        check_err(
            r#"
            control C(cmpt_out o) {
                apply { nothere(); }
            }
            "#,
            "unknown function",
        );
    }

    #[test]
    fn user_extern_methods_resolve() {
        check_ok(
            r#"
            extern dma_engine { void flush(in bit<8> q); }
            control C(dma_engine e) {
                apply { e.flush(3); }
            }
            "#,
        );
        check_err(
            r#"
            extern dma_engine { void flush(in bit<8> q); }
            control C(dma_engine e) {
                apply { e.nope(); }
            }
            "#,
            "no method `nope`",
        );
    }

    #[test]
    fn cost_annotation_captured() {
        let p = check_ok(
            r#"
            header intent_t {
                @semantic("rss_hash") @cost(45) bit<32> rss;
            }
            "#,
        );
        let id = p.header_id("intent_t").unwrap();
        let rss = p.sym("rss").unwrap();
        assert_eq!(p.types.header(id).field(rss).unwrap().cost, Some(45));
    }

    #[test]
    fn concat_widths_add() {
        check_ok(
            r#"
            struct ctx_t { bit<8> a; bit<8> b; }
            control C(in ctx_t ctx) {
                apply {
                    bit<16> both = ctx.a ++ ctx.b;
                }
            }
            "#,
        );
    }
}
