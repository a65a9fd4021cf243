//! Recursive-descent parser for the OpenDesc P4 subset.
//!
//! Entry point is [`parse`]. The parser is resilient: on a syntax error it
//! records a diagnostic and skips ahead to the next plausible declaration
//! boundary so that a single typo does not hide every later error.
//!
//! It reads tokens the lexer has already interned: a token is a `Copy`
//! value, and the parser never hashes. It appends every expression,
//! annotation and annotation argument to the program's arenas, each
//! sized from the token stream before parsing starts. Recursion is
//! bounded: an `else if` chain is a loop, and blocks and expressions
//! nest at most [`MAX_NESTING`] levels deep — deeper source is an error
//! diagnostic, never a stack overflow.

use crate::ast::*;
use crate::diag::{Diagnostic, Diagnostics};
use crate::lexer::{lex, Lexed};
use crate::span::Span;
use crate::token::{IntLit, Keyword as Kw, Token, TokenDisplay, TokenKind as Tk};

/// How deep blocks and expressions may nest, together: every walker of
/// the tree recurses once per level, and this many levels fit a 2 MB
/// thread stack unoptimised.
pub const MAX_NESTING: u32 = 256;

/// Parse a full compilation unit. Lexing diagnostics are merged into the
/// returned set.
pub fn parse(src: &str) -> (Program, Diagnostics) {
    let Lexed {
        tokens,
        syms,
        ints,
        mut diags,
    } = lex(src);
    let (annotations, ann_args) = annotation_counts(&tokens);
    let mut p = Parser {
        // Every expression node consumes a token of its own, so the
        // token count bounds the expression arena.
        exprs: Vec::with_capacity(tokens.len()),
        tokens,
        ints,
        pos: 0,
        diags: Diagnostics::new(),
        annotations: Vec::with_capacity(annotations),
        ann_args: Vec::with_capacity(ann_args),
        syms,
        depth: 0,
    };
    let decls = p.parse_program();
    let Parser {
        mut exprs,
        annotations,
        ann_args,
        mut syms,
        diags: pdiags,
        ..
    } = p;
    for d in pdiags {
        diags.push(d);
    }
    // The expression arena and the lexer's symbol table were sized from
    // bounds, not counts: give back the rest (in place), so a resident
    // program is exact-capacity.
    exprs.shrink_to_fit();
    syms.shrink_to_fit();
    let program = Program {
        decls,
        exprs,
        // Counted exactly before the parse: no copy.
        annotations: annotations.into_boxed_slice(),
        ann_args: ann_args.into_boxed_slice(),
        syms,
    };
    (program, diags)
}

/// The annotations and annotation arguments a parse of `tokens` appends
/// to the program's arenas, counted before it starts so neither arena
/// regrows: exact for a well-formed stream.
fn annotation_counts(tokens: &[Token]) -> (usize, usize) {
    let (mut annotations, mut args) = (0, 0);
    // Inside the parentheses of `@name(...)`.
    let mut in_args = false;
    for (i, t) in tokens.iter().enumerate() {
        match t.kind {
            Tk::At => annotations += 1,
            Tk::LParen if i >= 2 && tokens[i - 2].kind == Tk::At => in_args = true,
            Tk::RParen => in_args = false,
            Tk::Str(_) | Tk::Int(_) | Tk::Ident(_) if in_args => args += 1,
            _ => {}
        }
    }
    (annotations, args)
}

struct Parser {
    /// The lexed stream; the cursor only reads it.
    tokens: Vec<Token>,
    /// What each [`Tk::Int`] indexes.
    ints: Vec<IntLit>,
    pos: usize,
    diags: Diagnostics,
    exprs: Vec<Expr>,
    annotations: Vec<Annotation>,
    ann_args: Vec<AnnArg>,
    /// The lexer's symbols: named in diagnostics, then the program's.
    syms: Symbols,
    /// Blocks and expressions currently open.
    depth: u32,
}

/// Internal result type: `Err(())` means a diagnostic was already recorded
/// and the caller should recover.
type PResult<T> = Result<T, ()>;

impl Parser {
    // ---------------------------------------------------------------- utils

    fn peek(&self) -> Token {
        self.tokens[self.pos]
    }

    fn peek_at(&self, ahead: usize) -> Token {
        self.tokens[(self.pos + ahead).min(self.tokens.len() - 1)]
    }

    /// Hand over the current token and advance. The cursor never moves
    /// past the final `Eof`, which is handed out as often as asked for.
    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos];
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    /// `kind` as a diagnostic names it.
    fn show(&self, kind: Tk) -> TokenDisplay<'_> {
        kind.display(&self.syms, &self.ints)
    }

    fn at(&self, kind: Tk) -> bool {
        self.peek().kind == kind
    }

    fn at_kw(&self, kw: Kw) -> bool {
        self.at(Tk::Kw(kw))
    }

    fn eat(&mut self, kind: Tk) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: Tk, what: &str) -> PResult<Token> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            let t = self.peek();
            let d = Diagnostic::error(
                format!(
                    "expected {} {what}, found {}",
                    self.show(kind),
                    self.show(t.kind)
                ),
                t.span,
            );
            self.diags.push(d);
            Err(())
        }
    }

    fn expect_ident(&mut self, what: &str) -> PResult<Ident> {
        let t = self.peek();
        let name = match t.kind {
            Tk::Ident(name) => name,
            // `accept` and `reject` double as state names in
            // transitions; allow them where P4 does.
            Tk::Kw(Kw::Accept) => Sym::ACCEPT,
            Tk::Kw(Kw::Reject) => Sym::REJECT,
            other => {
                self.diags.push(Diagnostic::error(
                    format!("expected identifier {what}, found {}", self.show(other)),
                    t.span,
                ));
                return Err(());
            }
        };
        self.bump();
        Ok(Ident { name, span: t.span })
    }

    /// Run `f` one nesting level deeper, refusing to go past
    /// [`MAX_NESTING`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        if self.depth >= MAX_NESTING {
            let span = self.peek().span;
            self.diags.push(Diagnostic::error(
                format!("blocks and expressions nest deeper than {MAX_NESTING} levels"),
                span,
            ));
            return Err(());
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn push_expr(&mut self, kind: ExprKind, span: Span) -> ExprId {
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(Expr { kind, span });
        id
    }

    fn span_of(&self, e: ExprId) -> Span {
        self.exprs[e.0 as usize].span
    }

    /// Skip tokens until a likely declaration start or EOF, for recovery.
    fn recover_to_decl(&mut self) {
        let mut depth = 0i32;
        loop {
            match self.peek().kind {
                Tk::Eof => return,
                Tk::LBrace => {
                    depth += 1;
                    self.bump();
                }
                Tk::RBrace => {
                    depth -= 1;
                    self.bump();
                    if depth <= 0 {
                        return;
                    }
                }
                Tk::Semi if depth <= 0 => {
                    self.bump();
                    return;
                }
                Tk::Kw(
                    Kw::Header
                    | Kw::Struct
                    | Kw::Typedef
                    | Kw::Const
                    | Kw::Parser
                    | Kw::Control
                    | Kw::Extern
                    | Kw::Enum,
                ) if depth <= 0 => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    // -------------------------------------------------------------- program

    fn parse_program(&mut self) -> Vec<Decl> {
        let mut decls = Vec::new();
        while !self.at(Tk::Eof) {
            match self.parse_decl() {
                Ok(d) => decls.push(d),
                Err(()) => self.recover_to_decl(),
            }
        }
        decls
    }

    /// The annotations before a declaration or field, appended to the
    /// arena: one owner's annotations, and each annotation's arguments,
    /// are contiguous.
    fn parse_annotations(&mut self) -> PResult<Run> {
        let start = self.annotations.len() as u32;
        while self.at(Tk::At) {
            let at = self.bump();
            let name = self.expect_ident("after `@`")?;
            let first = self.ann_args.len() as u32;
            let mut end = name.span;
            if self.eat(Tk::LParen) {
                if !self.at(Tk::RParen) {
                    loop {
                        let t = self.peek();
                        let arg = match t.kind {
                            Tk::Str(s) => AnnArg::Str(s),
                            Tk::Int(i) => AnnArg::Int(self.ints[i as usize].0),
                            Tk::Ident(n) => AnnArg::Ident(n),
                            other => {
                                let d = Diagnostic::error(
                                    format!("invalid annotation argument: {}", self.show(other)),
                                    t.span,
                                );
                                self.diags.push(d);
                                return Err(());
                            }
                        };
                        self.ann_args.push(arg);
                        self.bump();
                        if !self.eat(Tk::Comma) {
                            break;
                        }
                    }
                }
                end = self.expect(Tk::RParen, "to close annotation")?.span;
            }
            let args = Run {
                start: first,
                end: self.ann_args.len() as u32,
            };
            self.annotations.push(Annotation {
                name,
                args,
                span: at.span.to(end),
            });
        }
        Ok(Run {
            start,
            end: self.annotations.len() as u32,
        })
    }

    fn parse_decl(&mut self) -> PResult<Decl> {
        let annotations = self.parse_annotations()?;
        let span = self.peek().span;
        match self.peek().kind {
            Tk::Kw(Kw::Header) => self.parse_header(annotations).map(Decl::Header),
            Tk::Kw(Kw::Struct) => self.parse_struct(annotations).map(Decl::Struct),
            Tk::Kw(Kw::Typedef) => self.parse_typedef().map(Decl::Typedef),
            Tk::Kw(Kw::Const) => self.parse_const().map(Decl::Const),
            Tk::Kw(Kw::Enum) => self.parse_enum(annotations).map(Decl::Enum),
            Tk::Kw(Kw::Parser) => self.parse_parser(annotations).map(Decl::Parser),
            Tk::Kw(Kw::Control) => self.parse_control(annotations).map(Decl::Control),
            Tk::Kw(Kw::Extern) => self.parse_extern(annotations).map(Decl::Extern),
            Tk::Kw(Kw::Table) => {
                self.diags.push(
                    Diagnostic::error(
                        "match-action tables are not part of OpenDesc descriptor contracts",
                        span,
                    )
                    .with_note(
                        "a contract describes metadata exchange, not forwarding; \
                             model pipeline results as pipe_meta fields instead",
                    ),
                );
                Err(())
            }
            other => {
                let d = Diagnostic::error(
                    format!("expected a declaration, found {}", self.show(other)),
                    span,
                );
                self.diags.push(d);
                Err(())
            }
        }
    }

    // ----------------------------------------------------- type-ish helpers

    fn parse_type(&mut self) -> PResult<Type> {
        let span = self.peek().span;
        match self.peek().kind {
            Tk::Kw(Kw::Bit) => {
                self.bump();
                self.expect(Tk::LAngle, "after `bit`")?;
                let w = match self.peek().kind {
                    Tk::Int(i) if self.ints[i as usize].1.is_none() => {
                        let v = self.ints[i as usize].0;
                        let tok = self.bump();
                        if v == 0 || v > 4096 {
                            self.diags.push(Diagnostic::error(
                                format!("bit width {v} out of supported range 1..=4096"),
                                tok.span,
                            ));
                            return Err(());
                        }
                        v as u16
                    }
                    other => {
                        let span = self.peek().span;
                        self.diags.push(Diagnostic::error(
                            format!("expected bit width, found {}", self.show(other)),
                            span,
                        ));
                        return Err(());
                    }
                };
                let end = self.expect(Tk::RAngle, "to close `bit<`")?.span;
                Ok(Type {
                    kind: TypeKind::Bit(w),
                    span: span.to(end),
                })
            }
            Tk::Kw(Kw::Bool) => {
                self.bump();
                Ok(Type {
                    kind: TypeKind::Bool,
                    span,
                })
            }
            Tk::Kw(Kw::Void) => {
                self.bump();
                Ok(Type {
                    kind: TypeKind::Void,
                    span,
                })
            }
            Tk::Ident(n) => {
                self.bump();
                Ok(Type {
                    kind: TypeKind::Named(n),
                    span,
                })
            }
            other => {
                let d =
                    Diagnostic::error(format!("expected a type, found {}", self.show(other)), span);
                self.diags.push(d);
                Err(())
            }
        }
    }

    fn parse_field_list(&mut self) -> PResult<Vec<FieldDecl>> {
        self.expect(Tk::LBrace, "to open field list")?;
        // A field list nests no braces, so every `;` before its `}` ends
        // one field: size the vector once instead of growing it.
        let count = self.tokens[self.pos..]
            .iter()
            .take_while(|t| !matches!(t.kind, Tk::RBrace | Tk::Eof))
            .filter(|t| t.kind == Tk::Semi)
            .count();
        let mut fields = Vec::with_capacity(count);
        while !self.at(Tk::RBrace) && !self.at(Tk::Eof) {
            let annotations = self.parse_annotations()?;
            let ty = self.parse_type()?;
            let name = self.expect_ident("as field name")?;
            let semi = self.expect(Tk::Semi, "after field")?;
            let span = ty.span.to(semi.span);
            fields.push(FieldDecl {
                annotations,
                ty,
                name,
                span,
            });
        }
        self.expect(Tk::RBrace, "to close field list")?;
        Ok(fields)
    }

    // -------------------------------------------------------- declarations

    fn parse_header(&mut self, annotations: Run) -> PResult<HeaderDecl> {
        let kw = self.bump(); // `header`
        let name = self.expect_ident("as header name")?;
        let fields = self.parse_field_list()?;
        let span = kw.span.to(self.tokens[self.pos - 1].span);
        Ok(HeaderDecl {
            annotations,
            name,
            fields,
            span,
        })
    }

    fn parse_struct(&mut self, annotations: Run) -> PResult<StructDecl> {
        let kw = self.bump(); // `struct`
        let name = self.expect_ident("as struct name")?;
        let fields = self.parse_field_list()?;
        let span = kw.span.to(self.tokens[self.pos - 1].span);
        Ok(StructDecl {
            annotations,
            name,
            fields,
            span,
        })
    }

    fn parse_typedef(&mut self) -> PResult<TypedefDecl> {
        let kw = self.bump(); // `typedef`
        let ty = self.parse_type()?;
        let name = self.expect_ident("as typedef name")?;
        let semi = self.expect(Tk::Semi, "after typedef")?;
        Ok(TypedefDecl {
            ty,
            name,
            span: kw.span.to(semi.span),
        })
    }

    fn parse_const(&mut self) -> PResult<ConstDecl> {
        let kw = self.bump(); // `const`
        let ty = self.parse_type()?;
        let name = self.expect_ident("as constant name")?;
        self.expect(Tk::Assign, "after constant name")?;
        let value = self.parse_expr()?;
        let semi = self.expect(Tk::Semi, "after constant")?;
        Ok(ConstDecl {
            ty,
            name,
            value,
            span: kw.span.to(semi.span),
        })
    }

    fn parse_enum(&mut self, annotations: Run) -> PResult<EnumDecl> {
        let kw = self.bump(); // `enum`
        let repr = if self.at_kw(Kw::Bit) {
            Some(self.parse_type()?)
        } else {
            None
        };
        let name = self.expect_ident("as enum name")?;
        self.expect(Tk::LBrace, "to open enum")?;
        let mut variants = Vec::new();
        while !self.at(Tk::RBrace) && !self.at(Tk::Eof) {
            variants.push(self.expect_ident("as enum variant")?);
            if !self.eat(Tk::Comma) {
                break;
            }
        }
        let close = self.expect(Tk::RBrace, "to close enum")?;
        Ok(EnumDecl {
            annotations,
            repr,
            name,
            variants,
            span: kw.span.to(close.span),
        })
    }

    fn parse_type_params(&mut self) -> PResult<Vec<Ident>> {
        let mut type_params = Vec::new();
        if self.eat(Tk::LAngle) {
            loop {
                type_params.push(self.expect_ident("as type parameter")?);
                if !self.eat(Tk::Comma) {
                    break;
                }
            }
            self.expect(Tk::RAngle, "to close type parameters")?;
        }
        Ok(type_params)
    }

    fn parse_params(&mut self) -> PResult<Vec<Param>> {
        self.expect(Tk::LParen, "to open parameter list")?;
        let mut params = Vec::new();
        if !self.at(Tk::RParen) {
            loop {
                let start = self.peek().span;
                let dir = match self.peek().kind {
                    Tk::Kw(Kw::In) => {
                        // Disambiguate `in` direction from a type named `in`
                        // (not possible: `in` is reserved), safe to bump.
                        self.bump();
                        Some(Direction::In)
                    }
                    Tk::Kw(Kw::Out) => {
                        self.bump();
                        Some(Direction::Out)
                    }
                    Tk::Kw(Kw::InOut) => {
                        self.bump();
                        Some(Direction::InOut)
                    }
                    _ => None,
                };
                let ty = self.parse_type()?;
                let name = self.expect_ident("as parameter name")?;
                let span = start.to(name.span);
                params.push(Param {
                    dir,
                    ty,
                    name,
                    span,
                });
                if !self.eat(Tk::Comma) {
                    break;
                }
            }
        }
        self.expect(Tk::RParen, "to close parameter list")?;
        Ok(params)
    }

    fn parse_parser(&mut self, annotations: Run) -> PResult<ParserDecl> {
        let kw = self.bump(); // `parser`
        let name = self.expect_ident("as parser name")?;
        let type_params = self.parse_type_params()?;
        let params = self.parse_params()?;
        if self.eat(Tk::Semi) {
            let span = kw.span.to(self.tokens[self.pos - 1].span);
            return Ok(ParserDecl {
                annotations,
                name,
                type_params,
                params,
                states: None,
                span,
            });
        }
        self.expect(Tk::LBrace, "to open parser body")?;
        let mut states = Vec::new();
        while !self.at(Tk::RBrace) && !self.at(Tk::Eof) {
            states.push(self.parse_state()?);
        }
        let close = self.expect(Tk::RBrace, "to close parser body")?;
        Ok(ParserDecl {
            annotations,
            name,
            type_params,
            params,
            states: Some(states),
            span: kw.span.to(close.span),
        })
    }

    fn parse_state(&mut self) -> PResult<StateDecl> {
        let kw = self.expect(Tk::Kw(Kw::State), "to begin parser state")?;
        let name = self.expect_ident("as state name")?;
        self.expect(Tk::LBrace, "to open state body")?;
        let mut stmts = Vec::new();
        let mut transition = None;
        while !self.at(Tk::RBrace) && !self.at(Tk::Eof) {
            if self.at_kw(Kw::Transition) {
                transition = Some(self.parse_transition()?);
                break;
            }
            stmts.push(self.parse_stmt()?);
        }
        let close = self.expect(Tk::RBrace, "to close state body")?;
        Ok(StateDecl {
            name,
            stmts,
            transition,
            span: kw.span.to(close.span),
        })
    }

    fn parse_transition(&mut self) -> PResult<Transition> {
        self.bump(); // `transition`
        if self.at_kw(Kw::Select) {
            let start = self.bump().span; // `select`
            self.expect(Tk::LParen, "after `select`")?;
            let mut exprs = vec![self.parse_expr()?];
            while self.eat(Tk::Comma) {
                exprs.push(self.parse_expr()?);
            }
            self.expect(Tk::RParen, "to close select expression")?;
            self.expect(Tk::LBrace, "to open select body")?;
            let mut cases = Vec::new();
            while !self.at(Tk::RBrace) && !self.at(Tk::Eof) {
                let cstart = self.peek().span;
                let mut matches = Vec::new();
                if self.at_kw(Kw::Default) {
                    self.bump();
                    matches.push(SelectMatch::Default);
                } else {
                    matches.push(SelectMatch::Expr(self.parse_expr()?));
                    while self.eat(Tk::Comma) {
                        if self.at_kw(Kw::Default) {
                            self.bump();
                            matches.push(SelectMatch::Default);
                        } else {
                            matches.push(SelectMatch::Expr(self.parse_expr()?));
                        }
                    }
                }
                self.expect(Tk::Colon, "after select match")?;
                let target = self.expect_ident("as transition target")?;
                let semi = self.expect(Tk::Semi, "after select case")?;
                cases.push(SelectCase {
                    matches,
                    target,
                    span: cstart.to(semi.span),
                });
            }
            let close = self.expect(Tk::RBrace, "to close select body")?;
            Ok(Transition::Select {
                exprs,
                cases,
                span: start.to(close.span),
            })
        } else {
            let target = self.expect_ident("as transition target")?;
            self.expect(Tk::Semi, "after transition")?;
            Ok(Transition::Direct(target))
        }
    }

    fn parse_control(&mut self, annotations: Run) -> PResult<ControlDecl> {
        let kw = self.bump(); // `control`
        let name = self.expect_ident("as control name")?;
        let type_params = self.parse_type_params()?;
        let params = self.parse_params()?;
        if self.eat(Tk::Semi) {
            let span = kw.span.to(self.tokens[self.pos - 1].span);
            return Ok(ControlDecl {
                annotations,
                name,
                type_params,
                params,
                locals: Vec::new(),
                apply: None,
                span,
            });
        }
        self.expect(Tk::LBrace, "to open control body")?;
        let mut locals = Vec::new();
        let mut apply = None;
        while !self.at(Tk::RBrace) && !self.at(Tk::Eof) {
            if self.at_kw(Kw::Apply) {
                self.bump();
                apply = Some(self.parse_block()?);
                break;
            } else if self.at_kw(Kw::Action) {
                locals.push(ControlLocal::Action(self.parse_action()?));
            } else if self.at_kw(Kw::Const) {
                locals.push(ControlLocal::Const(self.parse_const()?));
            } else {
                // Must be a local variable declaration: `ty name [= init];`
                let ty = self.parse_type()?;
                let name = self.expect_ident("as local variable name")?;
                let init = if self.eat(Tk::Assign) {
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                let semi = self.expect(Tk::Semi, "after local variable")?;
                let span = ty.span.to(semi.span);
                locals.push(ControlLocal::Var(VarDecl {
                    ty,
                    name,
                    init,
                    span,
                }));
            }
        }
        let close = self.expect(Tk::RBrace, "to close control body")?;
        Ok(ControlDecl {
            annotations,
            name,
            type_params,
            params,
            locals,
            apply,
            span: kw.span.to(close.span),
        })
    }

    fn parse_action(&mut self) -> PResult<ActionDecl> {
        let kw = self.bump(); // `action`
        let name = self.expect_ident("as action name")?;
        let params = self.parse_params()?;
        let body = self.parse_block()?;
        let span = kw.span.to(body.span);
        Ok(ActionDecl {
            annotations: Run::default(),
            name,
            params,
            body,
            span,
        })
    }

    fn parse_extern(&mut self, annotations: Run) -> PResult<ExternDecl> {
        let kw = self.bump(); // `extern`
        let name = self.expect_ident("as extern name")?;
        let mut methods = Vec::new();
        if self.eat(Tk::LBrace) {
            while !self.at(Tk::RBrace) && !self.at(Tk::Eof) {
                let ret = self.parse_type()?;
                let mname = self.expect_ident("as extern method name")?;
                let params = self.parse_params()?;
                let semi = self.expect(Tk::Semi, "after extern method")?;
                let span = ret.span.to(semi.span);
                methods.push(ExternMethod {
                    ret,
                    name: mname,
                    params,
                    span,
                });
            }
            self.expect(Tk::RBrace, "to close extern")?;
        } else {
            self.expect(Tk::Semi, "after extern declaration")?;
        }
        let span = kw.span.to(self.tokens[self.pos - 1].span);
        Ok(ExternDecl {
            annotations,
            name,
            methods,
            span,
        })
    }

    // ----------------------------------------------------------- statements

    fn parse_block(&mut self) -> PResult<Block> {
        self.nested(|p| {
            let open = p.expect(Tk::LBrace, "to open block")?;
            let mut stmts = Vec::new();
            while !p.at(Tk::RBrace) && !p.at(Tk::Eof) {
                stmts.push(p.parse_stmt()?);
            }
            let close = p.expect(Tk::RBrace, "to close block")?;
            Ok(Block {
                stmts,
                span: open.span.to(close.span),
            })
        })
    }

    fn parse_stmt(&mut self) -> PResult<Stmt> {
        let span = self.peek().span;
        match self.peek().kind {
            Tk::Kw(Kw::If) => self.parse_if(),
            Tk::Kw(Kw::Switch) => self.parse_switch(),
            Tk::Kw(Kw::Return) => {
                self.bump();
                let semi = self.expect(Tk::Semi, "after `return`")?;
                Ok(Stmt {
                    kind: StmtKind::Return,
                    span: span.to(semi.span),
                })
            }
            Tk::LBrace => {
                let b = self.parse_block()?;
                let span = b.span;
                Ok(Stmt {
                    kind: StmtKind::Block(b),
                    span,
                })
            }
            // Local declarations inside blocks: `bit<8> x = ...;`
            Tk::Kw(Kw::Bit) | Tk::Kw(Kw::Bool) => self.parse_var_stmt(),
            // `Type name = ...;` vs expression statement: two identifiers in
            // a row means a declaration with a named type.
            Tk::Ident(_) if matches!(self.peek_at(1).kind, Tk::Ident(_)) => self.parse_var_stmt(),
            _ => {
                let e = self.parse_expr()?;
                let espan = self.span_of(e);
                if self.eat(Tk::Assign) {
                    let rhs = self.parse_expr()?;
                    let semi = self.expect(Tk::Semi, "after assignment")?;
                    Ok(Stmt {
                        kind: StmtKind::Assign { lhs: e, rhs },
                        span: espan.to(semi.span),
                    })
                } else {
                    let semi = self.expect(Tk::Semi, "after expression statement")?;
                    Ok(Stmt {
                        kind: StmtKind::Expr(e),
                        span: espan.to(semi.span),
                    })
                }
            }
        }
    }

    fn parse_var_stmt(&mut self) -> PResult<Stmt> {
        let ty = self.parse_type()?;
        let name = self.expect_ident("as variable name")?;
        let init = if self.eat(Tk::Assign) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let semi = self.expect(Tk::Semi, "after variable declaration")?;
        let span = ty.span.to(semi.span);
        Ok(Stmt {
            kind: StmtKind::Var(VarDecl {
                ty,
                name,
                init,
                span,
            }),
            span,
        })
    }

    /// `if (c) { .. }`, then as many `else if (c) { .. }` as follow, then
    /// an optional `else { .. }` — a loop, so a chain of any length costs
    /// no stack.
    fn parse_if(&mut self) -> PResult<Stmt> {
        let start = self.peek().span;
        let mut arms = Vec::new();
        let mut else_blk = None;
        loop {
            let kw = self.bump(); // `if`
            self.expect(Tk::LParen, "after `if`")?;
            let cond = self.parse_expr()?;
            self.expect(Tk::RParen, "to close `if` condition")?;
            let then_blk = self.parse_block()?;
            let span = kw.span.to(then_blk.span);
            arms.push(IfArm {
                cond,
                then_blk,
                span,
            });
            if !self.eat(Tk::Kw(Kw::Else)) {
                break;
            }
            if !self.at_kw(Kw::If) {
                else_blk = Some(self.parse_block()?);
                break;
            }
        }
        let end = match &else_blk {
            Some(b) => b.span,
            None => arms[arms.len() - 1].span,
        };
        Ok(Stmt {
            kind: StmtKind::If { arms, else_blk },
            span: start.to(end),
        })
    }

    fn parse_switch(&mut self) -> PResult<Stmt> {
        let kw = self.bump(); // `switch`
        self.expect(Tk::LParen, "after `switch`")?;
        let scrutinee = self.parse_expr()?;
        self.expect(Tk::RParen, "to close `switch` scrutinee")?;
        self.expect(Tk::LBrace, "to open switch body")?;
        let mut cases = Vec::new();
        while !self.at(Tk::RBrace) && !self.at(Tk::Eof) {
            let cstart = self.peek().span;
            let mut labels = Vec::new();
            loop {
                if self.at_kw(Kw::Default) {
                    self.bump();
                    labels.push(SwitchLabel::Default);
                } else {
                    labels.push(SwitchLabel::Expr(self.parse_expr()?));
                }
                self.expect(Tk::Colon, "after switch label")?;
                // Fallthrough labels: another label directly follows.
                if !self.at(Tk::LBrace) {
                    continue;
                }
                break;
            }
            let block = self.parse_block()?;
            let span = cstart.to(block.span);
            cases.push(SwitchCase {
                labels,
                block,
                span,
            });
        }
        let close = self.expect(Tk::RBrace, "to close switch body")?;
        Ok(Stmt {
            kind: StmtKind::Switch { scrutinee, cases },
            span: kw.span.to(close.span),
        })
    }

    // ---------------------------------------------------------- expressions

    /// One expression, one nesting level deeper: every group, argument,
    /// slice bound and condition enters here.
    fn parse_expr(&mut self) -> PResult<ExprId> {
        self.nested(|p| p.parse_bin_expr(0))
    }

    /// Precedence-climbing binary expression parser.
    fn parse_bin_expr(&mut self, min_prec: u8) -> PResult<ExprId> {
        let mut lhs = self.parse_unary()?;
        loop {
            let (op, prec) = match self.peek().kind {
                Tk::OrOr => (BinOp::Or, 1),
                Tk::AndAnd => (BinOp::And, 2),
                Tk::EqEq => (BinOp::Eq, 3),
                Tk::NotEq => (BinOp::Ne, 3),
                Tk::LAngle => (BinOp::Lt, 4),
                Tk::Le => (BinOp::Le, 4),
                Tk::RAngle => (BinOp::Gt, 4),
                Tk::Ge => (BinOp::Ge, 4),
                Tk::Pipe => (BinOp::BitOr, 5),
                Tk::Caret => (BinOp::BitXor, 6),
                Tk::Amp => (BinOp::BitAnd, 7),
                Tk::Shl => (BinOp::Shl, 8),
                Tk::Shr => (BinOp::Shr, 8),
                Tk::PlusPlus => (BinOp::Concat, 9),
                Tk::Plus => (BinOp::Add, 10),
                Tk::Minus => (BinOp::Sub, 10),
                Tk::Star => (BinOp::Mul, 11),
                Tk::Slash => (BinOp::Div, 11),
                Tk::Percent => (BinOp::Mod, 11),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.parse_bin_expr(prec + 1)?;
            let span = self.span_of(lhs).to(self.span_of(rhs));
            lhs = self.push_expr(ExprKind::Binary { op, lhs, rhs }, span);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> PResult<ExprId> {
        let start = self.peek().span;
        let op = match self.peek().kind {
            Tk::Not => Some(UnOp::Not),
            Tk::Tilde => Some(UnOp::BitNot),
            Tk::Minus => Some(UnOp::Neg),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let expr = self.nested(|p| p.parse_unary())?;
            let span = start.to(self.span_of(expr));
            return Ok(self.push_expr(ExprKind::Unary { op, expr }, span));
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> PResult<ExprId> {
        let mut e = self.parse_primary()?;
        loop {
            match self.peek().kind {
                Tk::Dot => {
                    self.bump();
                    let member = self.expect_ident("after `.`")?;
                    let span = self.span_of(e).to(member.span);
                    e = self.push_expr(ExprKind::Member { base: e, member }, span);
                }
                Tk::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at(Tk::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat(Tk::Comma) {
                                break;
                            }
                        }
                    }
                    let close = self.expect(Tk::RParen, "to close call")?;
                    let span = self.span_of(e).to(close.span);
                    e = self.push_expr(ExprKind::Call { callee: e, args }, span);
                }
                Tk::LBracket => {
                    self.bump();
                    let hi = self.parse_expr()?;
                    let lo = if self.eat(Tk::Colon) {
                        self.parse_expr()?
                    } else {
                        hi
                    };
                    let close = self.expect(Tk::RBracket, "to close slice")?;
                    let span = self.span_of(e).to(close.span);
                    e = self.push_expr(ExprKind::Slice { base: e, hi, lo }, span);
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn parse_primary(&mut self) -> PResult<ExprId> {
        let span = self.peek().span;
        let kind = match self.peek().kind {
            Tk::Int(i) => {
                let (value, width) = self.ints[i as usize];
                ExprKind::Int { value, width }
            }
            Tk::Kw(Kw::True) => ExprKind::Bool(true),
            Tk::Kw(Kw::False) => ExprKind::Bool(false),
            Tk::Ident(n) => ExprKind::Ident(n),
            Tk::LParen => {
                // Either a cast `(bit<8>) e` / `(bool) e` or a grouped expr.
                if matches!(self.peek_at(1).kind, Tk::Kw(Kw::Bit) | Tk::Kw(Kw::Bool)) {
                    self.bump(); // `(`
                    let ty = self.parse_type()?;
                    self.expect(Tk::RParen, "to close cast type")?;
                    let expr = self.nested(|p| p.parse_unary())?;
                    let span = span.to(self.span_of(expr));
                    return Ok(self.push_expr(ExprKind::Cast { ty, expr }, span));
                }
                self.bump();
                let inner = self.parse_expr()?;
                let close = self.expect(Tk::RParen, "to close expression")?;
                // A group is its inner expression, spanning the parens.
                self.exprs[inner.0 as usize].span = span.to(close.span);
                return Ok(inner);
            }
            other => {
                let d = Diagnostic::error(
                    format!("expected an expression, found {}", self.show(other)),
                    span,
                );
                self.diags.push(d);
                return Err(());
            }
        };
        self.bump();
        Ok(self.push_expr(kind, span))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dotted path `e` spells.
    fn spelled(p: &Program, e: ExprId) -> Vec<&str> {
        p.path(e).unwrap().iter().map(|s| p.name(*s)).collect()
    }

    /// The `@semantic` string of `f`.
    fn sem<'p>(p: &'p Program, f: &FieldDecl) -> Option<&'p str> {
        p.semantic(f).map(|s| p.name(s))
    }

    fn parse_ok(src: &str) -> Program {
        let (p, diags) = parse(src);
        assert!(
            !diags.has_errors(),
            "unexpected parse errors:\n{}",
            diags
                .iter()
                .map(|d| format!("{}: {}", d.severity, d.message))
                .collect::<Vec<_>>()
                .join("\n")
        );
        p
    }

    #[test]
    fn parse_intent_header_fig5() {
        let p = parse_ok(
            r#"
            header intent_t {
                @semantic("rss")
                bit<32> rss_val;
                @semantic("vlan")
                bit<16> vlan_tag;
                @semantic("ip_checksum")
                bit<16> csum;
            }
            "#,
        );
        let h = p.header("intent_t").expect("header present");
        assert_eq!(h.fields.len(), 3);
        assert_eq!(sem(&p, &h.fields[0]), Some("rss"));
        assert_eq!(sem(&p, &h.fields[1]), Some("vlan"));
        assert_eq!(sem(&p, &h.fields[2]), Some("ip_checksum"));
        assert_eq!(h.fields[0].ty.kind, TypeKind::Bit(32));
    }

    #[test]
    fn every_name_is_interned_once() {
        let p = parse_ok(
            r#"
            header h_t { @semantic("rss_hash") bit<32> rss; }
            struct m_t { h_t h; h_t rss; }
            "#,
        );
        // h_t, rss_hash, rss, m_t, h — each spelled once, after the
        // well-known names (`semantic` among them).
        assert_eq!(p.syms.len(), WELL_KNOWN.len() + 5);
        assert_eq!(p.name(Sym::SEMANTIC), "semantic");
        let Decl::Struct(s) = &p.decls[1] else {
            panic!()
        };
        let h = p.header("h_t").unwrap();
        assert_eq!(s.fields[1].name.name, h.fields[0].name.name);
        assert_eq!(s.fields[0].ty.kind, TypeKind::Named(h.name.name));
    }

    #[test]
    fn parse_template_signatures_fig3_fig4() {
        let p = parse_ok(
            r#"
            parser DescParser<H2C_CTX_T, DESC_T>(
                desc_in desc_in,
                in H2C_CTX_T h2c_ctx,
                out DESC_T desc_hdr
            );
            control CmptDeparser<C2H_CTX_T, DESC_T, META_T>(
                cmpt_out cmpt_out,
                in DESC_T desc_hdr,
                in META_T pipe_meta
            );
            "#,
        );
        let dp = p.parser("DescParser").unwrap();
        assert_eq!(dp.type_params.len(), 2);
        assert_eq!(dp.params.len(), 3);
        assert!(dp.states.is_none(), "signature only");
        assert_eq!(dp.params[1].dir, Some(Direction::In));
        assert_eq!(dp.params[2].dir, Some(Direction::Out));

        let cd = p.control("CmptDeparser").unwrap();
        assert_eq!(cd.type_params.len(), 3);
        assert!(cd.apply.is_none());
    }

    #[test]
    fn parse_concrete_deparser_with_if_else() {
        let p = parse_ok(
            r#"
            control CmptDeparser(cmpt_out cmpt, in ctx_t ctx, in meta_t pipe_meta) {
                apply {
                    if (ctx.use_rss == 1) {
                        cmpt.emit(pipe_meta.rss);
                    } else {
                        cmpt.emit(pipe_meta.ip_fields);
                    }
                    cmpt.emit(pipe_meta.base);
                }
            }
            "#,
        );
        let c = p.control("CmptDeparser").unwrap();
        let body = c.apply.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 2);
        assert!(matches!(body.stmts[0].kind, StmtKind::If { .. }));
        match &body.stmts[1].kind {
            StmtKind::Expr(e) => match &p.expr(*e).kind {
                ExprKind::Call { callee, args } => {
                    assert_eq!(spelled(&p, *callee), vec!["cmpt", "emit"]);
                    assert_eq!(spelled(&p, args[0]), vec!["pipe_meta", "base"]);
                }
                other => panic!("expected call, got {other:?}"),
            },
            other => panic!("expected expr stmt, got {other:?}"),
        }
    }

    #[test]
    fn parse_parser_with_states_and_select() {
        let p = parse_ok(
            r#"
            parser DescParser(desc_in d, in ctx_t ctx, out desc_t hdr) {
                state start {
                    d.extract(hdr.base);
                    transition select(ctx.desc_size) {
                        8: parse_small;
                        16, 32: parse_large;
                        default: accept;
                    }
                }
                state parse_small {
                    transition accept;
                }
                state parse_large {
                    d.extract(hdr.ext);
                    transition accept;
                }
            }
            "#,
        );
        let dp = p.parser("DescParser").unwrap();
        let states = dp.states.as_ref().unwrap();
        assert_eq!(states.len(), 3);
        match states[0].transition.as_ref().unwrap() {
            Transition::Select { cases, .. } => {
                assert_eq!(cases.len(), 3);
                assert_eq!(cases[1].matches.len(), 2);
                assert_eq!(cases[2].matches, vec![SelectMatch::Default]);
                assert_eq!(p.name(cases[2].target.name), "accept");
            }
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn parse_switch_statement() {
        let p = parse_ok(
            r#"
            control C(cmpt_out o, in ctx_t ctx, in meta_t m) {
                apply {
                    switch (ctx.cqe_format) {
                        0: { o.emit(m.full); }
                        1: { o.emit(m.compressed); }
                        default: { o.emit(m.minimal); }
                    }
                }
            }
            "#,
        );
        let c = p.control("C").unwrap();
        match &c.apply.as_ref().unwrap().stmts[0].kind {
            StmtKind::Switch { cases, .. } => assert_eq!(cases.len(), 3),
            other => panic!("expected switch, got {other:?}"),
        }
    }

    #[test]
    fn parse_typedef_const_enum() {
        let p = parse_ok(
            r#"
            typedef bit<16> tci_t;
            const bit<16> ETH_VLAN = 16w0x8100;
            enum bit<2> cqe_fmt_t { FULL, COMPRESSED, MINI }
            "#,
        );
        assert_eq!(p.decls.len(), 3);
        match &p.decls[2] {
            Decl::Enum(e) => {
                assert_eq!(e.variants.len(), 3);
                assert_eq!(e.repr.as_ref().unwrap().kind, TypeKind::Bit(2));
            }
            other => panic!("expected enum, got {other:?}"),
        }
    }

    #[test]
    fn parse_expressions_precedence() {
        let p = parse_ok(
            r#"
            control C(in ctx_t ctx) {
                apply {
                    if (ctx.a == 1 && ctx.b != 2 || !ctx.c) { return; }
                    if ((ctx.x & 0xF0) >> 4 == 3) { return; }
                    if (ctx.flags[3:1] == 2) { return; }
                }
            }
            "#,
        );
        let c = p.control("C").unwrap();
        // `a == 1 && b != 2 || !c` must parse as `((a==1) && (b!=2)) || (!c)`.
        match &c.apply.as_ref().unwrap().stmts[0].kind {
            StmtKind::If { arms, .. } => match &p.expr(arms[0].cond).kind {
                ExprKind::Binary {
                    op: BinOp::Or, lhs, ..
                } => {
                    assert!(matches!(
                        p.expr(*lhs).kind,
                        ExprKind::Binary { op: BinOp::And, .. }
                    ));
                }
                other => panic!("expected `||` at top, got {other:?}"),
            },
            _ => unreachable!(),
        }
    }

    #[test]
    fn parse_cast_expression() {
        let p = parse_ok(
            r#"
            control C(in ctx_t ctx) {
                apply {
                    bit<8> x = (bit<8>) ctx.wide;
                }
            }
            "#,
        );
        let c = p.control("C").unwrap();
        match &c.apply.as_ref().unwrap().stmts[0].kind {
            StmtKind::Var(v) => {
                assert!(matches!(
                    p.expr(v.init.unwrap()).kind,
                    ExprKind::Cast { .. }
                ));
            }
            other => panic!("expected var, got {other:?}"),
        }
    }

    #[test]
    fn parse_extern_with_methods() {
        let p = parse_ok(
            r#"
            extern crypto_engine {
                void aes_gcm(in bit<128> key, in bit<96> iv);
                bit<32> digest(in bit<32> seed);
            }
            "#,
        );
        match &p.decls[0] {
            Decl::Extern(e) => assert_eq!(e.methods.len(), 2),
            other => panic!("expected extern, got {other:?}"),
        }
    }

    #[test]
    fn table_decl_is_rejected_with_guidance() {
        let (_, diags) = parse("table t { }");
        assert!(diags.has_errors());
        let msg = diags.iter().next().unwrap();
        assert!(msg.message.contains("tables"));
    }

    #[test]
    fn parser_recovers_after_bad_decl() {
        let (p, diags) = parse(
            r#"
            header broken_t { bit<8> }
            header ok_t { bit<8> x; }
            "#,
        );
        assert!(diags.has_errors());
        assert!(
            p.header("ok_t").is_some(),
            "parser must recover and see ok_t"
        );
    }

    #[test]
    fn control_locals_parsed() {
        let p = parse_ok(
            r#"
            control C(in ctx_t ctx) {
                bit<32> scratch = 0;
                const bit<8> MAGIC = 7;
                action note() { scratch = 1; }
                apply { note(); }
            }
            "#,
        );
        let c = p.control("C").unwrap();
        assert_eq!(c.locals.len(), 3);
        assert!(matches!(c.locals[0], ControlLocal::Var(_)));
        assert!(matches!(c.locals[1], ControlLocal::Const(_)));
        assert!(matches!(c.locals[2], ControlLocal::Action(_)));
    }

    #[test]
    fn else_if_chain_is_one_statement_with_flat_arms() {
        let p = parse_ok(
            r#"
            control C(in ctx_t ctx, cmpt_out o, in meta_t m) {
                apply {
                    if (ctx.f == 0) { o.emit(m.a); }
                    else if (ctx.f == 1) { o.emit(m.b); }
                    else if (ctx.f == 2) { o.emit(m.c); }
                    else { o.emit(m.d); }
                }
            }
            "#,
        );
        let c = p.control("C").unwrap();
        let body = &c.apply.as_ref().unwrap().stmts;
        assert_eq!(body.len(), 1);
        match &body[0].kind {
            StmtKind::If {
                arms,
                else_blk: Some(b),
            } => {
                assert_eq!(arms.len(), 3);
                assert!(arms.iter().all(|a| a.then_blk.stmts.len() == 1));
                assert!(matches!(b.stmts[0].kind, StmtKind::Expr(_)));
                // Each arm spans its own `if` to its own block; the
                // statement spans the whole chain.
                assert!(arms[1].span.lo > arms[0].span.hi);
                assert_eq!(body[0].span.lo, arms[0].span.lo);
                assert_eq!(body[0].span.hi, b.span.hi);
            }
            other => panic!("expected if/else-if, got {other:?}"),
        }
    }

    #[test]
    fn nesting_past_the_bound_is_one_error() {
        let deep = |open: &str, close: &str, n: usize| {
            format!("const bit<8> K = {}1{};", open.repeat(n), close.repeat(n))
        };
        let (_, ok) = parse(&deep("(", ")", MAX_NESTING as usize - 1));
        assert!(!ok.has_errors());
        for src in [
            deep("(", ")", MAX_NESTING as usize),
            deep("~", "", 2 * MAX_NESTING as usize),
            deep("(bit<8>)", "", 2 * MAX_NESTING as usize),
        ] {
            let (_, d) = parse(&src);
            let msgs: Vec<_> = d.iter().map(|d| d.message.as_str()).collect();
            assert_eq!(msgs.len(), 1, "{msgs:?}");
            assert!(msgs[0].contains("nest deeper than 256"), "{msgs:?}");
        }
        let blocks = format!(
            "control C() {{ apply {} }}",
            "{".repeat(300) + &"}".repeat(300)
        );
        let (_, d) = parse(&blocks);
        assert!(d.iter().any(|d| d.message.contains("nest deeper")));
    }

    #[test]
    fn empty_program_parses() {
        let p = parse_ok("");
        assert!(p.decls.is_empty());
    }

    #[test]
    fn bit_slice_single_index() {
        let p = parse_ok("control C(in ctx_t c) { apply { if (c.flags[0] == 1) { return; } } }");
        let ctl = p.control("C").unwrap();
        match &ctl.apply.as_ref().unwrap().stmts[0].kind {
            StmtKind::If { arms, .. } => match &p.expr(arms[0].cond).kind {
                ExprKind::Binary { lhs, .. } => {
                    assert!(matches!(p.expr(*lhs).kind, ExprKind::Slice { .. }));
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }
}
