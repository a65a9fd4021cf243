//! Abstract syntax tree for the P4-16 subset used by OpenDesc contracts.
//!
//! The subset covers exactly what a descriptor contract needs (paper §3,
//! Figs. 3–5): `header`/`struct`/`typedef`/`const`/`enum` declarations,
//! `parser` declarations (the `DescParser`), `control` declarations (the
//! `CmptDeparser`), `extern` prototypes, and `@name(...)` annotations —
//! notably `@semantic("...")` on header fields and `@cost(...)` on
//! semantics. Match-action tables are deliberately out of scope: a
//! descriptor contract describes metadata exchange, not forwarding.

use crate::span::Span;
use std::fmt;

/// A parsed compilation unit: an ordered list of top-level declarations.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub decls: Vec<Decl>,
}

impl Program {
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
        self.controls().find(|c| c.name.name == name)
    }

    /// Find a parser by name.
    pub fn parser(&self, name: &str) -> Option<&ParserDecl> {
        self.parsers().find(|p| p.name.name == name)
    }

    /// Find a header by name.
    pub fn header(&self, name: &str) -> Option<&HeaderDecl> {
        self.headers().find(|h| h.name.name == name)
    }
}

/// An identifier with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ident {
    pub name: String,
    pub span: Span,
}

impl Ident {
    pub fn new(name: impl Into<String>, span: Span) -> Self {
        Ident {
            name: name.into(),
            span,
        }
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// `@name` or `@name(arg, ...)` attached to a declaration or field.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    pub name: Ident,
    pub args: Vec<AnnArg>,
    pub span: Span,
}

impl Annotation {
    /// First string argument, if any (`@semantic("rss_hash")` → `rss_hash`).
    fn str_arg(&self) -> Option<&str> {
        self.args.iter().find_map(|a| match a {
            AnnArg::Str(s) => Some(s.as_str()),
            _ => None,
        })
    }

    /// First integer argument, if any (`@cost(120)` → `120`).
    fn int_arg(&self) -> Option<u128> {
        self.args.iter().find_map(|a| match a {
            AnnArg::Int(v) => Some(*v),
            _ => None,
        })
    }
}

/// An annotation argument.
#[derive(Debug, Clone, PartialEq)]
pub enum AnnArg {
    Str(String),
    Int(u128),
    Ident(String),
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
    pub annotations: Vec<Annotation>,
    pub name: Ident,
    pub fields: Vec<FieldDecl>,
    pub span: Span,
}

/// `struct name_t { fields }` — groups headers / metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDecl {
    pub annotations: Vec<Annotation>,
    pub name: Ident,
    pub fields: Vec<FieldDecl>,
    pub span: Span,
}

/// A field inside a header or struct.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    pub annotations: Vec<Annotation>,
    pub ty: Type,
    pub name: Ident,
    pub span: Span,
}

impl FieldDecl {
    /// The value of this field's `@semantic("...")` annotation, if present.
    pub fn semantic(&self) -> Option<&str> {
        self.annotations
            .iter()
            .find(|a| a.name.name == "semantic")
            .and_then(|a| a.str_arg())
    }

    /// The value of this field's `@cost(N)` annotation, if present.
    pub fn cost(&self) -> Option<u128> {
        self.annotations
            .iter()
            .find(|a| a.name.name == "cost")
            .and_then(|a| a.int_arg())
    }
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
    pub value: Expr,
    pub span: Span,
}

/// `enum bit<2> cqe_format_t { FULL, COMPRESSED }` — serializable enums
/// with an explicit bit representation; variants number from 0 upward.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumDecl {
    pub annotations: Vec<Annotation>,
    pub repr: Option<Type>,
    pub name: Ident,
    pub variants: Vec<Ident>,
    pub span: Span,
}

/// `parser DescParser<T...>(params) { states }` or a bodiless template
/// signature terminated by `;` (Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct ParserDecl {
    pub annotations: Vec<Annotation>,
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
        exprs: Vec<Expr>,
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
#[derive(Debug, Clone, PartialEq)]
pub enum SelectMatch {
    Expr(Expr),
    Default,
}

/// `control CmptDeparser<T...>(params) { locals apply { ... } }` or a
/// bodiless template signature (Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct ControlDecl {
    pub annotations: Vec<Annotation>,
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
    pub annotations: Vec<Annotation>,
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
    pub init: Option<Expr>,
    pub span: Span,
}

/// `extern void dma_write(...);` — prototype only.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternDecl {
    pub annotations: Vec<Annotation>,
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
#[derive(Debug, Clone, PartialEq)]
pub struct Type {
    pub kind: TypeKind,
    pub span: Span,
}

/// The kinds of types the subset accepts.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeKind {
    /// `bit<N>`
    Bit(u16),
    /// `bool`
    Bool,
    /// A named header/struct/typedef/enum or a template type parameter.
    Named(String),
    /// `void` (extern return type only).
    Void,
}

impl fmt::Display for TypeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeKind::Bit(w) => write!(f, "bit<{w}>"),
            TypeKind::Bool => write!(f, "bool"),
            TypeKind::Named(n) => write!(f, "{n}"),
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
    /// `if (c) { .. } else { .. }` — `else if` chains nest in `else_blk`.
    If {
        cond: Expr,
        then_blk: Block,
        else_blk: Option<Block>,
    },
    /// `switch (e) { v: { .. } default: { .. } }`. OpenDesc relaxes P4-16's
    /// action-run-only switch to value switches over context fields — the
    /// natural way mlx5-style NICs select among several CQE formats.
    Switch {
        scrutinee: Expr,
        cases: Vec<SwitchCase>,
    },
    /// An expression statement — in practice a method call such as
    /// `cmpt_out.emit(pipe_meta.rss)` or `pkt.extract(hdr)`.
    Expr(Expr),
    /// `lhs = rhs;`
    Assign { lhs: Expr, rhs: Expr },
    /// Local variable declaration.
    Var(VarDecl),
    /// `return;`
    Return,
    /// A nested block.
    Block(Block),
}

/// One arm of a switch.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchCase {
    pub labels: Vec<SwitchLabel>,
    pub block: Block,
    pub span: Span,
}

/// A switch label: a constant expression or `default`.
#[derive(Debug, Clone, PartialEq)]
pub enum SwitchLabel {
    Expr(Expr),
    Default,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    pub kind: ExprKind,
    pub span: Span,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal, optionally width-typed.
    Int { value: u128, width: Option<u16> },
    /// `true` / `false`.
    Bool(bool),
    /// A name.
    Ident(String),
    /// `base.member`.
    Member { base: Box<Expr>, member: Ident },
    /// Bit slice `x[hi:lo]` or single-bit index `x[i]` (hi == lo).
    Slice {
        base: Box<Expr>,
        hi: Box<Expr>,
        lo: Box<Expr>,
    },
    /// `callee(args)`, where callee is usually a member path
    /// (`cmpt_out.emit`).
    Call { callee: Box<Expr>, args: Vec<Expr> },
    /// Unary operator application.
    Unary { op: UnOp, expr: Box<Expr> },
    /// Binary operator application.
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `(bit<8>) e` / `(bool) e`.
    Cast { ty: Type, expr: Box<Expr> },
}

impl Expr {
    /// If the expression is a dotted path of identifiers (`a.b.c`), return
    /// its segments. Used to resolve emit/extract arguments and context
    /// predicates.
    pub fn as_path(&self) -> Option<Vec<&str>> {
        match &self.kind {
            ExprKind::Ident(n) => Some(vec![n.as_str()]),
            ExprKind::Member { base, member } => {
                let mut p = base.as_path()?;
                p.push(member.name.as_str());
                Some(p)
            }
            _ => None,
        }
    }
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

    fn ident(n: &str) -> Ident {
        Ident::new(n, Span::default())
    }

    #[test]
    fn expr_as_path_extracts_dotted_names() {
        let e = Expr {
            kind: ExprKind::Member {
                base: Box::new(Expr {
                    kind: ExprKind::Member {
                        base: Box::new(Expr {
                            kind: ExprKind::Ident("ctx".into()),
                            span: Span::default(),
                        }),
                        member: ident("flags"),
                    },
                    span: Span::default(),
                }),
                member: ident("use_rss"),
            },
            span: Span::default(),
        };
        assert_eq!(e.as_path().unwrap(), vec!["ctx", "flags", "use_rss"]);
    }

    #[test]
    fn expr_as_path_rejects_non_paths() {
        let e = Expr {
            kind: ExprKind::Int {
                value: 3,
                width: None,
            },
            span: Span::default(),
        };
        assert!(e.as_path().is_none());
    }

    #[test]
    fn field_semantic_annotation_lookup() {
        let f = FieldDecl {
            annotations: vec![Annotation {
                name: ident("semantic"),
                args: vec![AnnArg::Str("rss_hash".into())],
                span: Span::default(),
            }],
            ty: Type {
                kind: TypeKind::Bit(32),
                span: Span::default(),
            },
            name: ident("rss"),
            span: Span::default(),
        };
        assert_eq!(f.semantic(), Some("rss_hash"));
        assert_eq!(f.cost(), None);
    }
}
