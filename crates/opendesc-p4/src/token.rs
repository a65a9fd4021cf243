//! Token definitions for the P4-16 subset accepted by OpenDesc.

use crate::span::Span;
use std::borrow::Cow;
use std::fmt;

/// Keywords of the accepted P4 subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Keyword {
    Header,
    Struct,
    Typedef,
    Const,
    Parser,
    Control,
    State,
    Transition,
    Select,
    Apply,
    If,
    Else,
    Switch,
    Return,
    Bit,
    Bool,
    True,
    False,
    In,
    Out,
    InOut,
    Default,
    Accept,
    Reject,
    Extern,
    Void,
    Error,
    Action,
    Table,
    Enum,
}

impl Keyword {
    /// The source spelling of the keyword.
    pub fn as_str(&self) -> &'static str {
        use Keyword::*;
        match self {
            Header => "header",
            Struct => "struct",
            Typedef => "typedef",
            Const => "const",
            Parser => "parser",
            Control => "control",
            State => "state",
            Transition => "transition",
            Select => "select",
            Apply => "apply",
            If => "if",
            Else => "else",
            Switch => "switch",
            Return => "return",
            Bit => "bit",
            Bool => "bool",
            True => "true",
            False => "false",
            In => "in",
            Out => "out",
            InOut => "inout",
            Default => "default",
            Accept => "accept",
            Reject => "reject",
            Extern => "extern",
            Void => "void",
            Error => "error",
            Action => "action",
            Table => "table",
            Enum => "enum",
        }
    }

    /// Look up a keyword from its spelling (inherent: fallible lookup,
    /// not the `FromStr` trait).
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<Keyword> {
        use Keyword::*;
        Some(match s {
            "header" => Header,
            "struct" => Struct,
            "typedef" => Typedef,
            "const" => Const,
            "parser" => Parser,
            "control" => Control,
            "state" => State,
            "transition" => Transition,
            "select" => Select,
            "apply" => Apply,
            "if" => If,
            "else" => Else,
            "switch" => Switch,
            "return" => Return,
            "bit" => Bit,
            "bool" => Bool,
            "true" => True,
            "false" => False,
            "in" => In,
            "out" => Out,
            "inout" => InOut,
            "default" => Default,
            "accept" => Accept,
            "reject" => Reject,
            "extern" => Extern,
            "void" => Void,
            "error" => Error,
            "action" => Action,
            "table" => Table,
            "enum" => Enum,
            _ => return None,
        })
    }
}

/// The kind of a lexed token. Identifier and string text is borrowed
/// from the source the token was lexed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind<'src> {
    /// Identifier that is not a keyword.
    Ident(&'src str),
    /// Reserved word.
    Kw(Keyword),
    /// Integer literal, optionally width-prefixed (`16w0x88A8`); the lexer
    /// resolves the value and the optional width.
    Int {
        value: u128,
        width: Option<u16>,
    },
    /// Double-quoted string literal (annotation arguments only): the
    /// source's own bytes between the quotes, owned only when an escape
    /// had to be resolved.
    Str(Cow<'src, str>),
    /// `@` introducing an annotation.
    At,
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    LAngle,
    RAngle,
    Comma,
    Semi,
    Colon,
    Dot,
    Assign,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Not,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `~`
    Tilde,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    /// `++` (P4 bit-string concatenation).
    PlusPlus,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TokenKind::*;
        match self {
            Ident(s) => write!(f, "identifier `{s}`"),
            Kw(k) => write!(f, "`{}`", k.as_str()),
            Int {
                value,
                width: Some(w),
            } => write!(f, "`{w}w{value}`"),
            Int { value, width: None } => write!(f, "`{value}`"),
            Str(s) => write!(f, "\"{s}\""),
            At => write!(f, "`@`"),
            LParen => write!(f, "`(`"),
            RParen => write!(f, "`)`"),
            LBrace => write!(f, "`{{`"),
            RBrace => write!(f, "`}}`"),
            LBracket => write!(f, "`[`"),
            RBracket => write!(f, "`]`"),
            LAngle => write!(f, "`<`"),
            RAngle => write!(f, "`>`"),
            Comma => write!(f, "`,`"),
            Semi => write!(f, "`;`"),
            Colon => write!(f, "`:`"),
            Dot => write!(f, "`.`"),
            Assign => write!(f, "`=`"),
            EqEq => write!(f, "`==`"),
            NotEq => write!(f, "`!=`"),
            Le => write!(f, "`<=`"),
            Ge => write!(f, "`>=`"),
            AndAnd => write!(f, "`&&`"),
            OrOr => write!(f, "`||`"),
            Not => write!(f, "`!`"),
            Amp => write!(f, "`&`"),
            Pipe => write!(f, "`|`"),
            Caret => write!(f, "`^`"),
            Tilde => write!(f, "`~`"),
            Shl => write!(f, "`<<`"),
            Shr => write!(f, "`>>`"),
            Plus => write!(f, "`+`"),
            Minus => write!(f, "`-`"),
            Star => write!(f, "`*`"),
            Slash => write!(f, "`/`"),
            Percent => write!(f, "`%`"),
            PlusPlus => write!(f, "`++`"),
            Eof => write!(f, "end of input"),
        }
    }
}

/// A lexed token with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token<'src> {
    pub kind: TokenKind<'src>,
    pub span: Span,
}

impl<'src> Token<'src> {
    pub fn new(kind: TokenKind<'src>, span: Span) -> Self {
        Token { kind, span }
    }
}
