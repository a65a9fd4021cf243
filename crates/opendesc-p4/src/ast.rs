//! Abstract syntax tree for the P4-16 subset used by OpenDesc contracts.
//!
//! The subset covers exactly what a descriptor contract needs (paper §3,
//! Figs. 3–5): `header`/`struct`/`typedef`/`const`/`enum` declarations,
//! `parser` declarations (the `DescParser`), `control` declarations (the
//! `CmptDeparser`), `extern` prototypes, and `@name(...)` annotations —
//! notably `@semantic("...")` on header fields and `@cost(...)` on
//! semantics. Match-action tables are deliberately out of scope: a
//! descriptor contract describes metadata exchange, not forwarding.
//!
//! A program names things once. Every identifier and string literal is
//! interned as a [`Sym`] into the program's [`Symbols`], every
//! expression lives in one arena, [`Program::exprs`], addressed by
//! [`ExprId`], and every annotation and annotation argument in two more,
//! addressed by a [`Run`]: the tree holds no strings and no boxes, and a
//! reader resolves a name through [`Program::name`] and an annotation
//! through [`Program::annotations`].

use crate::span::Span;
use std::fmt;

/// An interned identifier or string literal: an index into the
/// program's [`Symbols`]. Two symbols of one program are equal exactly
/// when their texts are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

/// The names the front end and its readers look for by themselves. Every
/// program interns them first, in this order, so each has a fixed
/// symbol: the constants on [`Sym`].
pub(crate) const WELL_KNOWN: [&str; 14] = [
    "cmpt_out",
    "desc_in",
    "packet_in",
    "packet_out",
    "emit",
    "extract",
    "isValid",
    "setValid",
    "setInvalid",
    "semantic",
    "cost",
    "start",
    "accept",
    "reject",
];

impl Sym {
    pub const CMPT_OUT: Sym = Sym(0);
    pub const DESC_IN: Sym = Sym(1);
    pub const PACKET_IN: Sym = Sym(2);
    pub const PACKET_OUT: Sym = Sym(3);
    pub const EMIT: Sym = Sym(4);
    pub const EXTRACT: Sym = Sym(5);
    pub const IS_VALID: Sym = Sym(6);
    pub const SET_VALID: Sym = Sym(7);
    pub const SET_INVALID: Sym = Sym(8);
    pub const SEMANTIC: Sym = Sym(9);
    pub const COST: Sym = Sym(10);
    pub const START: Sym = Sym(11);
    pub const ACCEPT: Sym = Sym(12);
    pub const REJECT: Sym = Sym(13);
}

/// An expression: an index into [`Program::exprs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprId(pub u32);

/// The text of every symbol of one program, back to back in one buffer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Symbols {
    text: String,
    /// `ends[i]` is the byte offset where symbol `i` ends and `i + 1`
    /// begins.
    ends: Vec<u32>,
}

impl Symbols {
    /// A table with room for `syms` symbols of `bytes` bytes in total.
    pub(crate) fn with_capacity(syms: usize, bytes: usize) -> Symbols {
        Symbols {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(syms),
        }
    }

    /// Append `text` as a new symbol. The caller has checked that no
    /// symbol spells it already.
    pub(crate) fn push(&mut self, text: &str) -> Sym {
        let sym = Sym(self.ends.len() as u32);
        self.text.push_str(text);
        self.ends.push(self.text.len() as u32);
        sym
    }

    /// Release the capacity the lexer reserved beyond what it used.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// The text of `sym`.
    pub fn name(&self, sym: Sym) -> &str {
        let i = sym.0 as usize;
        let lo = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[lo..self.ends[i] as usize]
    }

    /// The symbol spelling `text`, if the program has one. A linear
    /// scan: the map the lexer interned through is gone, and lookups by
    /// text are for entry points and tests, not for the checker.
    pub fn find(&self, text: &str) -> Option<Sym> {
        (0..self.ends.len() as u32)
            .map(Sym)
            .find(|s| self.name(*s) == text)
    }

    /// Number of distinct symbols.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

/// `start..end` of one of a [`Program`]'s arenas: the annotations of
/// one declaration or field, or the arguments of one annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Run {
    pub start: u32,
    pub end: u32,
}

impl Run {
    fn of<T>(self, arena: &[T]) -> &[T] {
        &arena[self.start as usize..self.end as usize]
    }

    pub fn is_empty(self) -> bool {
        self.start == self.end
    }
}

/// A parsed compilation unit: an ordered list of top-level declarations,
/// the expressions and annotations they refer to, and the symbols they
/// name.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub decls: Vec<Decl>,
    /// Every expression of the program; an [`ExprId`] indexes it.
    pub exprs: Vec<Expr>,
    /// Every annotation of the program, each owner's in one [`Run`].
    pub annotations: Box<[Annotation]>,
    /// Every annotation argument, each annotation's in one [`Run`].
    pub ann_args: Box<[AnnArg]>,
    /// Every identifier and string literal of the program.
    pub syms: Symbols,
}

impl Program {
    /// The text of `sym`.
    pub fn name(&self, sym: Sym) -> &str {
        self.syms.name(sym)
    }

    /// The symbol spelling `text`, if any (see [`Symbols::find`]).
    pub fn sym(&self, text: &str) -> Option<Sym> {
        self.syms.find(text)
    }

    /// The expression `id` addresses.
    pub fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id.0 as usize]
    }

    /// The annotations `run` holds (an owner's `annotations`).
    pub fn annotations(&self, run: Run) -> &[Annotation] {
        run.of(&self.annotations)
    }

    /// The arguments of `a`.
    pub fn args(&self, a: &Annotation) -> &[AnnArg] {
        a.args.of(&self.ann_args)
    }

    /// The arguments of the first annotation named `name` in `run`.
    fn annotation_args(&self, run: Run, name: Sym) -> Option<&[AnnArg]> {
        let a = self.annotations(run).iter().find(|a| a.name.name == name)?;
        Some(self.args(a))
    }

    /// The string of `f`'s `@semantic("...")` annotation, if present.
    pub fn semantic(&self, f: &FieldDecl) -> Option<Sym> {
        self.annotation_args(f.annotations, Sym::SEMANTIC)?
            .iter()
            .find_map(|a| match a {
                AnnArg::Str(s) => Some(*s),
                _ => None,
            })
    }

    /// The value of `f`'s `@cost(N)` annotation, if present.
    pub fn cost(&self, f: &FieldDecl) -> Option<u128> {
        self.annotation_args(f.annotations, Sym::COST)?
            .iter()
            .find_map(|a| match a {
                AnnArg::Int(v) => Some(*v),
                _ => None,
            })
    }

    /// Iterate over all header declarations.
    pub fn headers(&self) -> impl Iterator<Item = &HeaderDecl> {
        self.decls.iter().filter_map(|d| match d {
            Decl::Header(h) => Some(h),
            _ => None,
        })
    }

    /// Iterate over all control declarations.
    pub fn controls(&self) -> impl Iterator<Item = &ControlDecl> {
        self.decls.iter().filter_map(|d| match d {
            Decl::Control(c) => Some(c),
            _ => None,
        })
    }

    /// Iterate over all parser declarations.
    pub fn parsers(&self) -> impl Iterator<Item = &ParserDecl> {
        self.decls.iter().filter_map(|d| match d {
            Decl::Parser(p) => Some(p),
            _ => None,
        })
    }

    /// Find a control by name.
    pub fn control(&self, name: &str) -> Option<&ControlDecl> {
        self.controls().find(|c| self.name(c.name.name) == name)
    }

    /// Find a parser by name.
    pub fn parser(&self, name: &str) -> Option<&ParserDecl> {
        self.parsers().find(|p| self.name(p.name.name) == name)
    }

    /// Find a header by name.
    pub fn header(&self, name: &str) -> Option<&HeaderDecl> {
        self.headers().find(|h| self.name(h.name.name) == name)
    }

    /// If `e` is a dotted path of identifiers (`a.b.c`), its segments.
    /// Used to resolve emit/extract arguments and context predicates.
    pub fn path(&self, e: ExprId) -> Option<Vec<Sym>> {
        let mut rev = Vec::new();
        let mut at = self.expr(e);
        loop {
            match &at.kind {
                ExprKind::Ident(n) => {
                    rev.push(*n);
                    break;
                }
                ExprKind::Member { base, member } => {
                    rev.push(member.name);
                    at = self.expr(*base);
                }
                _ => return None,
            }
        }
        rev.reverse();
        Some(rev)
    }
}

/// An identifier with its source span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ident {
    pub name: Sym,
    pub span: Span,
}

/// `@name` or `@name(arg, ...)` attached to a declaration or field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Annotation {
    pub name: Ident,
    /// Into [`Program::ann_args`]; read through [`Program::args`].
    pub args: Run,
    pub span: Span,
}

/// An annotation argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnnArg {
    Str(Sym),
    Int(u128),
    Ident(Sym),
}

/// A top-level declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum Decl {
    Header(HeaderDecl),
    Struct(StructDecl),
    Typedef(TypedefDecl),
    Const(ConstDecl),
    Enum(EnumDecl),
    Parser(ParserDecl),
    Control(ControlDecl),
    Extern(ExternDecl),
}

impl Decl {
    /// The declared name, for symbol-table population.
    pub fn name(&self) -> &Ident {
        match self {
            Decl::Header(d) => &d.name,
            Decl::Struct(d) => &d.name,
            Decl::Typedef(d) => &d.name,
            Decl::Const(d) => &d.name,
            Decl::Enum(d) => &d.name,
            Decl::Parser(d) => &d.name,
            Decl::Control(d) => &d.name,
            Decl::Extern(d) => &d.name,
        }
    }

    /// The whole declaration's span.
    pub fn span(&self) -> Span {
        match self {
            Decl::Header(d) => d.span,
            Decl::Struct(d) => d.span,
            Decl::Typedef(d) => d.span,
            Decl::Const(d) => d.span,
            Decl::Enum(d) => d.span,
            Decl::Parser(d) => d.span,
            Decl::Control(d) => d.span,
            Decl::Extern(d) => d.span,
        }
    }
}

/// `header name_t { fields }` — the unit the deparser emits.
#[derive(Debug, Clone, PartialEq)]
pub struct HeaderDecl {
    pub annotations: Run,
    pub name: Ident,
    pub fields: Vec<FieldDecl>,
    pub span: Span,
}

/// `struct name_t { fields }` — groups headers / metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDecl {
    pub annotations: Run,
    pub name: Ident,
    pub fields: Vec<FieldDecl>,
    pub span: Span,
}

/// A field inside a header or struct.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    pub annotations: Run,
    pub ty: Type,
    pub name: Ident,
    pub span: Span,
}

/// `typedef bit<16> vlan_tci_t;`
#[derive(Debug, Clone, PartialEq)]
pub struct TypedefDecl {
    pub ty: Type,
    pub name: Ident,
    pub span: Span,
}

/// `const bit<16> ETHERTYPE_VLAN = 16w0x8100;`
#[derive(Debug, Clone, PartialEq)]
pub struct ConstDecl {
    pub ty: Type,
    pub name: Ident,
    pub value: ExprId,
    pub span: Span,
}

/// `enum bit<2> cqe_format_t { FULL, COMPRESSED }` — serializable enums
/// with an explicit bit representation; variants number from 0 upward.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumDecl {
    pub annotations: Run,
    pub repr: Option<Type>,
    pub name: Ident,
    pub variants: Vec<Ident>,
    pub span: Span,
}

/// `parser DescParser<T...>(params) { states }` or a bodiless template
/// signature terminated by `;` (Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct ParserDecl {
    pub annotations: Run,
    pub name: Ident,
    pub type_params: Vec<Ident>,
    pub params: Vec<Param>,
    /// `None` for a signature-only template declaration.
    pub states: Option<Vec<StateDecl>>,
    pub span: Span,
}

/// A parser state: local statements then a transition.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDecl {
    pub name: Ident,
    pub stmts: Vec<Stmt>,
    pub transition: Option<Transition>,
    pub span: Span,
}

/// `transition next_state;` or `transition select(e) { ... }`.
#[derive(Debug, Clone, PartialEq)]
pub enum Transition {
    Direct(Ident),
    Select {
        exprs: Vec<ExprId>,
        cases: Vec<SelectCase>,
        span: Span,
    },
}

/// One arm of a `select`: match values and the target state.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectCase {
    pub matches: Vec<SelectMatch>,
    pub target: Ident,
    pub span: Span,
}

/// A select match pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectMatch {
    Expr(ExprId),
    Default,
}

/// `control CmptDeparser<T...>(params) { locals apply { ... } }` or a
/// bodiless template signature (Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct ControlDecl {
    pub annotations: Run,
    pub name: Ident,
    pub type_params: Vec<Ident>,
    pub params: Vec<Param>,
    pub locals: Vec<ControlLocal>,
    /// `None` for a signature-only template declaration.
    pub apply: Option<Block>,
    pub span: Span,
}

/// Declarations allowed in a control body before `apply`.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlLocal {
    Action(ActionDecl),
    Var(VarDecl),
    Const(ConstDecl),
}

/// `action set_hash() { ... }`
#[derive(Debug, Clone, PartialEq)]
pub struct ActionDecl {
    pub annotations: Run,
    pub name: Ident,
    pub params: Vec<Param>,
    pub body: Block,
    pub span: Span,
}

/// `bit<32> tmp = 0;`
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    pub ty: Type,
    pub name: Ident,
    pub init: Option<ExprId>,
    pub span: Span,
}

/// `extern void dma_write(...);` — prototype only.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternDecl {
    pub annotations: Run,
    pub name: Ident,
    pub methods: Vec<ExternMethod>,
    pub span: Span,
}

/// One method prototype inside an extern.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternMethod {
    pub ret: Type,
    pub name: Ident,
    pub params: Vec<Param>,
    pub span: Span,
}

/// A runtime parameter of a parser/control/action.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    pub dir: Option<Direction>,
    pub ty: Type,
    pub name: Ident,
    pub span: Span,
}

/// P4 parameter direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    In,
    Out,
    InOut,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::In => write!(f, "in"),
            Direction::Out => write!(f, "out"),
            Direction::InOut => write!(f, "inout"),
        }
    }
}

/// A syntactic type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Type {
    pub kind: TypeKind,
    pub span: Span,
}

/// The kinds of types the subset accepts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TypeKind {
    /// `bit<N>`
    Bit(u16),
    /// `bool`
    Bool,
    /// A named header/struct/typedef/enum or a template type parameter.
    Named(Sym),
    /// `void` (extern return type only).
    Void,
}

impl TypeKind {
    /// The type as it is spelled, names resolved through `syms`.
    pub fn display(self, syms: &Symbols) -> TypeKindDisplay<'_> {
        TypeKindDisplay(self, syms)
    }
}

/// A [`TypeKind`] with its name resolved, for printing.
pub struct TypeKindDisplay<'a>(TypeKind, &'a Symbols);

impl fmt::Display for TypeKindDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            TypeKind::Bit(w) => write!(f, "bit<{w}>"),
            TypeKind::Bool => write!(f, "bool"),
            TypeKind::Named(n) => write!(f, "{}", self.1.name(n)),
            TypeKind::Void => write!(f, "void"),
        }
    }
}

/// A block of statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub span: Span,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub kind: StmtKind,
    pub span: Span,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `if (c1) { .. } else if (c2) { .. } else { .. }` — one statement
    /// however long the chain: the arms in source order, tried in turn,
    /// then the `else` block if no condition held.
    If {
        arms: Vec<IfArm>,
        else_blk: Option<Block>,
    },
    /// `switch (e) { v: { .. } default: { .. } }`. OpenDesc relaxes P4-16's
    /// action-run-only switch to value switches over context fields — the
    /// natural way mlx5-style NICs select among several CQE formats.
    Switch {
        scrutinee: ExprId,
        cases: Vec<SwitchCase>,
    },
    /// An expression statement — in practice a method call such as
    /// `cmpt_out.emit(pipe_meta.rss)` or `pkt.extract(hdr)`.
    Expr(ExprId),
    /// `lhs = rhs;`
    Assign { lhs: ExprId, rhs: ExprId },
    /// Local variable declaration.
    Var(VarDecl),
    /// `return;`
    Return,
    /// A nested block.
    Block(Block),
}

/// One `if (cond) { .. }` of an if/else-if chain.
#[derive(Debug, Clone, PartialEq)]
pub struct IfArm {
    pub cond: ExprId,
    pub then_blk: Block,
    /// From this arm's `if` to the end of its block.
    pub span: Span,
}

/// One arm of a switch.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchCase {
    pub labels: Vec<SwitchLabel>,
    pub block: Block,
    pub span: Span,
}

/// A switch label: a constant expression or `default`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwitchLabel {
    Expr(ExprId),
    Default,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    pub kind: ExprKind,
    pub span: Span,
}

/// Expression kinds. Subexpressions are [`ExprId`]s into the same
/// program's arena.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal, optionally width-typed.
    Int { value: u128, width: Option<u16> },
    /// `true` / `false`.
    Bool(bool),
    /// A name.
    Ident(Sym),
    /// `base.member`.
    Member { base: ExprId, member: Ident },
    /// Bit slice `x[hi:lo]` or single-bit index `x[i]` (hi == lo).
    Slice {
        base: ExprId,
        hi: ExprId,
        lo: ExprId,
    },
    /// `callee(args)`, where callee is usually a member path
    /// (`cmpt_out.emit`).
    Call { callee: ExprId, args: Vec<ExprId> },
    /// Unary operator application.
    Unary { op: UnOp, expr: ExprId },
    /// Binary operator application.
    Binary { op: BinOp, lhs: ExprId, rhs: ExprId },
    /// `(bit<8>) e` / `(bool) e`.
    Cast { ty: Type, expr: ExprId },
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `!`
    Not,
    /// `~`
    BitNot,
    /// `-`
    Neg,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Not => write!(f, "!"),
            UnOp::BitNot => write!(f, "~"),
            UnOp::Neg => write!(f, "-"),
        }
    }
}

/// Binary operators, in ascending precedence groups (see parser).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Or,
    And,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    BitOr,
    BitXor,
    BitAnd,
    Shl,
    Shr,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    /// `++` bit-string concatenation.
    Concat,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use BinOp::*;
        let s = match self {
            Or => "||",
            And => "&&",
            Eq => "==",
            Ne => "!=",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            BitOr => "|",
            BitXor => "^",
            BitAnd => "&",
            Shl => "<<",
            Shr => ">>",
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Mod => "%",
            Concat => "++",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// The dotted path `e` spells.
    fn spelled(p: &Program, e: ExprId) -> Vec<&str> {
        p.path(e).unwrap().iter().map(|s| p.name(*s)).collect()
    }

    #[test]
    fn symbols_resolve_and_find() {
        let mut s = Symbols::default();
        let a = s.push("ctx");
        let b = s.push("use_rss");
        assert_eq!((s.name(a), s.name(b)), ("ctx", "use_rss"));
        assert_eq!(s.find("use_rss"), Some(b));
        assert_eq!(s.find("nope"), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn path_extracts_dotted_names() {
        let (p, _) = parse("const bit<8> K = ctx.flags.use_rss;");
        let Decl::Const(c) = &p.decls[0] else {
            panic!()
        };
        assert_eq!(spelled(&p, c.value), vec!["ctx", "flags", "use_rss"]);
    }

    #[test]
    fn path_rejects_non_paths() {
        let (p, _) = parse("const bit<8> K = 3;");
        let Decl::Const(c) = &p.decls[0] else {
            panic!()
        };
        assert!(p.path(c.value).is_none());
    }

    #[test]
    fn field_semantic_annotation_lookup() {
        let (p, _) = parse(r#"header h_t { @semantic("rss_hash") bit<32> rss; }"#);
        let h = p.header("h_t").unwrap();
        assert_eq!(
            p.semantic(&h.fields[0]).map(|s| p.name(s)),
            Some("rss_hash")
        );
        assert_eq!(p.cost(&h.fields[0]), None);
    }
}
