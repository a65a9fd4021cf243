//! Token definitions for the P4-16 subset accepted by OpenDesc.

use crate::ast::{Sym, Symbols};
use crate::span::Span;
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

/// The kind of a lexed token: a tag and at most one `u32`, so a whole
/// [`Token`] is 16 bytes and `Copy`. Identifier and string text lives
/// in the program's symbol table and integer values in the lexer's
/// literal table; the token holds their index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier that is not a keyword.
    Ident(Sym),
    /// Reserved word.
    Kw(Keyword),
    /// Integer literal, optionally width-prefixed (`16w0x88A8`): an index
    /// into [`Lexed::ints`](crate::lexer::Lexed::ints), which holds the
    /// value and the optional width the lexer resolved.
    Int(u32),
    /// Double-quoted string literal (annotation arguments only), escapes
    /// resolved.
    Str(Sym),
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

impl TokenKind {
    /// The token as a diagnostic names it, identifier and literal text
    /// resolved through `syms` and `ints`.
    pub fn display<'a>(self, syms: &'a Symbols, ints: &'a [IntLit]) -> TokenDisplay<'a> {
        TokenDisplay(self, syms, ints)
    }
}

/// An integer literal's value and its width prefix, if it had one.
pub type IntLit = (u128, Option<u16>);

/// A [`TokenKind`] with its text resolved, for printing.
pub struct TokenDisplay<'a>(TokenKind, &'a Symbols, &'a [IntLit]);

impl fmt::Display for TokenDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TokenKind::*;
        match self.0 {
            Ident(s) => write!(f, "identifier `{}`", self.1.name(s)),
            Kw(k) => write!(f, "`{}`", k.as_str()),
            Int(i) => match self.2[i as usize] {
                (value, Some(w)) => write!(f, "`{w}w{value}`"),
                (value, None) => write!(f, "`{value}`"),
            },
            Str(s) => write!(f, "\"{}\"", self.1.name(s)),
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub span: Span,
}

impl Token {
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, span }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_token_is_sixteen_copy_bytes() {
        fn copy<T: Copy>() {}
        copy::<Token>();
        assert_eq!(std::mem::size_of::<Token>(), 16);
    }
}
