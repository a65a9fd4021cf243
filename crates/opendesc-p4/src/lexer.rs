//! Hand-written lexer for the P4-16 subset.
//!
//! Produces the full token vector in one pass so the parser can do
//! unlimited lookahead, and interns as it scans: every identifier and
//! string literal becomes a [`Sym`] of the program's [`Symbols`] the
//! first time its text is seen, and every integer literal an entry of
//! [`Lexed::ints`]. A token is a tag and at most one index, so the
//! parser copies tokens and never hashes. Integer literals follow P4
//! syntax: decimal, `0x`/`0b`/`0o` prefixed, underscores allowed, and an
//! optional leading width prefix as in `16w0x88A8` or `4w7`.

use crate::ast::{Sym, Symbols, WELL_KNOWN};
use crate::diag::{Diagnostic, Diagnostics};
use crate::span::Span;
use crate::token::{IntLit, Keyword, Token, TokenKind};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// A lexed source: its tokens and the tables they index.
#[derive(Debug)]
pub struct Lexed {
    /// Always terminated by [`TokenKind::Eof`].
    pub tokens: Vec<Token>,
    /// Every identifier and string literal: the `WELL_KNOWN` names
    /// first, then the source's in order of first occurrence.
    pub syms: Symbols,
    /// What each [`TokenKind::Int`] indexes.
    pub ints: Vec<IntLit>,
    pub diags: Diagnostics,
}

/// Lex `src`. Lexing recovers from bad characters by skipping them, so
/// the parser always receives a stream.
pub fn lex(src: &str) -> Lexed {
    // The catalog contracts run at one token per 4.3–5.4 bytes
    // (indentation and comments included); one per four covers them
    // without a regrow, and a denser source only costs that regrow.
    let tokens = src.len() / 4 + 1;
    let mut lexer = Lexer {
        text: src,
        src: src.as_bytes(),
        pos: 0,
        tokens: Vec::with_capacity(tokens),
        // A symbol is never longer than its source text, so the source
        // length bounds the table's bytes; the parser trims the table
        // to what was used.
        syms: Symbols::with_capacity(
            tokens / 2 + WELL_KNOWN.len(),
            src.len() + WELL_KNOWN.iter().map(|w| w.len()).sum::<usize>(),
        ),
        interned: HashMap::with_capacity(tokens / 2 + WELL_KNOWN.len()),
        ints: Vec::with_capacity(tokens / 4),
        diags: Diagnostics::new(),
    };
    for name in WELL_KNOWN {
        lexer.intern(Cow::Borrowed(name));
    }
    lexer.run();
    Lexed {
        tokens: lexer.tokens,
        syms: lexer.syms,
        ints: lexer.ints,
        diags: lexer.diags,
    }
}

struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    tokens: Vec<Token>,
    syms: Symbols,
    /// Text → symbol, for this lex only: keyed by the source's own
    /// slices (owned only for a string literal with an escape), with the
    /// default keyed hash because the text is outside input.
    interned: HashMap<Cow<'a, str>, Sym>,
    ints: Vec<IntLit>,
    diags: Diagnostics,
}

/// What a byte can start: the one table the scan dispatches on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Space,
    Slash,
    Ident,
    Digit,
    Quote,
    Other,
}

static CLASS: [Class; 256] = {
    let mut t = [Class::Other; 256];
    let mut b = 0;
    while b < 256 {
        t[b] = match b as u8 {
            b' ' | b'\t' | b'\r' | b'\n' => Class::Space,
            b'/' => Class::Slash,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => Class::Ident,
            b'0'..=b'9' => Class::Digit,
            b'"' => Class::Quote,
            _ => Class::Other,
        };
        b += 1;
    }
    t
};

/// Whether `b` continues an identifier.
fn ident_byte(b: u8) -> bool {
    matches!(CLASS[b as usize], Class::Ident | Class::Digit)
}

impl<'a> Lexer<'a> {
    fn run(&mut self) {
        while self.skip_trivia() {
            let start = self.pos;
            match CLASS[self.src[start] as usize] {
                Class::Ident => self.lex_ident(),
                Class::Digit => self.lex_number(),
                Class::Quote => self.lex_string(),
                _ => {
                    if let Some((kind, len)) = self.lex_punct() {
                        let span = Span::new(start as u32, (start + len) as u32);
                        self.pos += len;
                        self.tokens.push(Token::new(kind, span));
                    } else {
                        // One diagnostic per character, not per byte: the
                        // span must end on a character boundary.
                        let ch = self.char_at(start);
                        self.pos += ch.len_utf8();
                        self.diags.push(Diagnostic::error(
                            format!("unexpected character `{ch}`"),
                            Span::new(start as u32, self.pos as u32),
                        ));
                    }
                }
            }
        }
        let at = self.src.len() as u32;
        self.tokens
            .push(Token::new(TokenKind::Eof, Span::point(at)));
    }

    /// The symbol spelling `text`, created on first sight.
    fn intern(&mut self, text: Cow<'a, str>) -> Sym {
        match self.interned.entry(text) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let sym = self.syms.push(e.key());
                *e.insert(sym)
            }
        }
    }

    /// Record an integer literal and push its token.
    fn push_int(&mut self, lit: IntLit, span: Span) {
        let at = self.ints.len() as u32;
        self.ints.push(lit);
        self.tokens.push(Token::new(TokenKind::Int(at), span));
    }

    /// The character starting at byte `at` (a character boundary: every
    /// caller sits just past an ASCII byte or a whole character).
    fn char_at(&self, at: usize) -> char {
        self.text[at..].chars().next().expect("in bounds")
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    /// Skip a run of whitespace and comments; whether a token follows.
    fn skip_trivia(&mut self) -> bool {
        while let Some(&c) = self.src.get(self.pos) {
            match CLASS[c as usize] {
                Class::Space => self.pos += 1,
                Class::Slash => match self.peek(1) {
                    Some(b'/') => self.skip_line_comment(),
                    Some(b'*') => self.skip_block_comment(),
                    _ => return true,
                },
                _ => return true,
            }
        }
        false
    }

    fn skip_line_comment(&mut self) {
        self.pos = match self.src[self.pos..].iter().position(|&b| b == b'\n') {
            Some(n) => self.pos + n,
            None => self.src.len(),
        };
    }

    fn skip_block_comment(&mut self) {
        let start = self.pos;
        self.pos += 2;
        loop {
            if self.pos + 1 >= self.src.len() {
                self.pos = self.src.len();
                self.diags.push(Diagnostic::error(
                    "unterminated block comment",
                    Span::new(start as u32, start as u32 + 2),
                ));
                return;
            }
            if self.src[self.pos] == b'*' && self.src[self.pos + 1] == b'/' {
                self.pos += 2;
                return;
            }
            self.pos += 1;
        }
    }

    /// An identifier or keyword. A width-prefixed literal starts with a
    /// digit, so it never reaches here.
    fn lex_ident(&mut self) {
        let start = self.pos;
        while self.pos < self.src.len() && ident_byte(self.src[self.pos]) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let span = Span::new(start as u32, self.pos as u32);
        let kind = match Keyword::from_str(text) {
            Some(kw) => TokenKind::Kw(kw),
            None => TokenKind::Ident(self.intern(Cow::Borrowed(text))),
        };
        self.tokens.push(Token::new(kind, span));
    }

    /// Numbers: `123`, `0x1F`, `0b1010`, `0o17`, with `_` separators, and
    /// width-prefixed forms `8w255`, `16w0xFFFF`, `1w0b1`.
    fn lex_number(&mut self) {
        let start = self.pos;
        let first = self.scan_int_body();
        // A width prefix is "<decimal>w<literal>" with no spaces. `s`-typed
        // (signed) literals are not part of the accepted subset.
        if self.peek(0) == Some(b'w') && first.radix == 10 {
            self.pos += 1; // consume 'w'
            if self
                .peek(0)
                .map(|c| c.is_ascii_alphanumeric())
                .unwrap_or(false)
            {
                let body = self.scan_int_body();
                let span = Span::new(start as u32, self.pos as u32);
                match (first.value, body.value) {
                    (Some(w), Some(v)) if w > 0 && w <= u16::MAX as u128 => {
                        let width = w as u16;
                        let value = if width < 128 {
                            v & ((1u128 << width) - 1)
                        } else {
                            v
                        };
                        if value != v {
                            self.diags.push(Diagnostic::warning(
                                format!("literal value {v} truncated to {value} by width {width}"),
                                span,
                            ));
                        }
                        self.push_int((value, Some(width)), span);
                    }
                    _ => {
                        self.diags
                            .push(Diagnostic::error("malformed width-prefixed literal", span));
                        self.push_int((0, None), span);
                    }
                }
                return;
            }
            // Lone trailing `w` with nothing after: treat as error.
            let span = Span::new(start as u32, self.pos as u32);
            self.diags
                .push(Diagnostic::error("width prefix missing literal body", span));
            self.push_int((0, None), span);
            return;
        }
        let span = Span::new(start as u32, self.pos as u32);
        match first.value {
            Some(v) => self.push_int((v, None), span),
            None => {
                self.diags
                    .push(Diagnostic::error("malformed integer literal", span));
                self.push_int((0, None), span);
            }
        }
    }

    fn scan_int_body(&mut self) -> IntScan {
        let (radix, skip) = match (self.peek(0), self.peek(1)) {
            (Some(b'0'), Some(b'x' | b'X')) => (16u32, 2usize),
            (Some(b'0'), Some(b'b' | b'B')) => (2, 2),
            (Some(b'0'), Some(b'o' | b'O')) => (8, 2),
            _ => (10, 0),
        };
        self.pos += skip;
        let mut value: Option<u128> = None;
        let mut overflow = false;
        while let Some(c) = self.peek(0) {
            let digit = match c {
                b'0'..=b'9' => (c - b'0') as u32,
                b'a'..=b'f' if radix == 16 => (c - b'a' + 10) as u32,
                b'A'..=b'F' if radix == 16 => (c - b'A' + 10) as u32,
                b'_' => {
                    self.pos += 1;
                    continue;
                }
                _ => break,
            };
            if digit >= radix {
                break;
            }
            let v = value.unwrap_or(0);
            match v
                .checked_mul(radix as u128)
                .and_then(|v| v.checked_add(digit as u128))
            {
                Some(nv) => value = Some(nv),
                None => {
                    overflow = true;
                    value = Some(u128::MAX);
                }
            }
            self.pos += 1;
        }
        if overflow {
            let span = Span::new(self.pos as u32, self.pos as u32);
            self.diags.push(Diagnostic::error(
                "integer literal overflows 128 bits",
                span,
            ));
        }
        IntScan { value, radix }
    }

    /// A string literal is the source's own UTF-8 between the quotes;
    /// it is copied only once an escape has to be resolved.
    fn lex_string(&mut self) {
        let start = self.pos;
        self.pos += 1; // opening quote
        let mut owned: Option<String> = None;
        // Start of the literal text not yet copied into `owned`.
        let mut seg = self.pos;
        let end = loop {
            match self.peek(0) {
                None | Some(b'\n') => {
                    let span = Span::new(start as u32, self.pos as u32);
                    self.diags
                        .push(Diagnostic::error("unterminated string literal", span));
                    break self.pos;
                }
                Some(b'"') => {
                    self.pos += 1;
                    break self.pos - 1;
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(&self.text[seg..self.pos]);
                    self.pos += 1;
                    match self.peek(0) {
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'"') => out.push('"'),
                        Some(_) => {
                            let ch = self.char_at(self.pos);
                            let span =
                                Span::new(self.pos as u32, (self.pos + ch.len_utf8()) as u32);
                            self.diags
                                .push(Diagnostic::error(format!("unknown escape `\\{ch}`"), span));
                            self.pos += ch.len_utf8() - 1;
                        }
                        None => {
                            self.diags.push(Diagnostic::error(
                                "unknown escape `\\ `",
                                Span::point(self.pos as u32),
                            ));
                            seg = self.pos;
                            continue;
                        }
                    }
                    self.pos += 1;
                    seg = self.pos;
                }
                Some(_) => self.pos += 1,
            }
        };
        let text = match owned {
            Some(mut out) => {
                out.push_str(&self.text[seg..end]);
                Cow::Owned(out)
            }
            None => Cow::Borrowed(&self.text[seg..end]),
        };
        let span = Span::new(start as u32, self.pos as u32);
        let sym = self.intern(text);
        self.tokens.push(Token::new(TokenKind::Str(sym), span));
    }

    fn lex_punct(&mut self) -> Option<(TokenKind, usize)> {
        use TokenKind::*;
        let c0 = self.peek(0)?;
        let c1 = self.peek(1);
        Some(match (c0, c1) {
            (b'=', Some(b'=')) => (EqEq, 2),
            (b'!', Some(b'=')) => (NotEq, 2),
            (b'<', Some(b'=')) => (Le, 2),
            (b'>', Some(b'=')) => (Ge, 2),
            (b'&', Some(b'&')) => (AndAnd, 2),
            (b'|', Some(b'|')) => (OrOr, 2),
            (b'<', Some(b'<')) => (Shl, 2),
            (b'>', Some(b'>')) => (Shr, 2),
            (b'+', Some(b'+')) => (PlusPlus, 2),
            (b'@', _) => (At, 1),
            (b'(', _) => (LParen, 1),
            (b')', _) => (RParen, 1),
            (b'{', _) => (LBrace, 1),
            (b'}', _) => (RBrace, 1),
            (b'[', _) => (LBracket, 1),
            (b']', _) => (RBracket, 1),
            (b'<', _) => (LAngle, 1),
            (b'>', _) => (RAngle, 1),
            (b',', _) => (Comma, 1),
            (b';', _) => (Semi, 1),
            (b':', _) => (Colon, 1),
            (b'.', _) => (Dot, 1),
            (b'=', _) => (Assign, 1),
            (b'!', _) => (Not, 1),
            (b'&', _) => (Amp, 1),
            (b'|', _) => (Pipe, 1),
            (b'^', _) => (Caret, 1),
            (b'~', _) => (Tilde, 1),
            (b'+', _) => (Plus, 1),
            (b'-', _) => (Minus, 1),
            (b'*', _) => (Star, 1),
            (b'/', _) => (Slash, 1),
            (b'%', _) => (Percent, 1),
            _ => return None,
        })
    }
}

struct IntScan {
    value: Option<u128>,
    radix: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind::*;

    /// A token with its symbol or literal resolved through the tables.
    #[derive(Debug, PartialEq)]
    enum T<'a> {
        Ident(&'a str),
        Str(&'a str),
        Int(u128, Option<u16>),
        Other(TokenKind),
    }

    fn resolve(lexed: &Lexed) -> Vec<T<'_>> {
        lexed
            .tokens
            .iter()
            .map(|t| match t.kind {
                Ident(s) => T::Ident(lexed.syms.name(s)),
                Str(s) => T::Str(lexed.syms.name(s)),
                Int(i) => {
                    let (v, w) = lexed.ints[i as usize];
                    T::Int(v, w)
                }
                other => T::Other(other),
            })
            .collect()
    }

    fn tokens(src: &str) -> Lexed {
        let lexed = lex(src);
        assert!(
            !lexed.diags.has_errors(),
            "unexpected lex errors for {src:?}"
        );
        lexed
    }

    fn first(src: &str) -> T<'static> {
        let lexed = tokens(src);
        match resolve(&lexed).remove(0) {
            T::Int(v, w) => T::Int(v, w),
            T::Other(k) => T::Other(k),
            t => panic!("{t:?}: use `resolve` for a symbol"),
        }
    }

    #[test]
    fn lex_keywords_and_idents() {
        let l = tokens("header foo_t { }");
        assert_eq!(
            resolve(&l),
            vec![
                T::Other(Kw(Keyword::Header)),
                T::Ident("foo_t"),
                T::Other(LBrace),
                T::Other(RBrace),
                T::Other(Eof)
            ]
        );
    }

    #[test]
    fn symbols_are_interned_in_order_of_first_occurrence() {
        let l = tokens(r#"b a b "a" semantic"#);
        let syms: Vec<Sym> = l
            .tokens
            .iter()
            .filter_map(|t| match t.kind {
                Ident(s) | Str(s) => Some(s),
                _ => None,
            })
            .collect();
        let first = WELL_KNOWN.len() as u32;
        assert_eq!(
            syms,
            [
                Sym(first),
                Sym(first + 1),
                Sym(first),
                Sym(first + 1),
                Sym::SEMANTIC
            ]
        );
        assert_eq!(l.syms.len(), WELL_KNOWN.len() + 2);
        assert_eq!(l.syms.name(Sym(first)), "b");
    }

    #[test]
    fn lex_plain_integers() {
        assert_eq!(first("42"), T::Int(42, None));
        assert_eq!(first("0x2A"), T::Int(42, None));
        assert_eq!(first("0b101010"), T::Int(42, None));
        assert_eq!(first("0o52"), T::Int(42, None));
        assert_eq!(first("1_000"), T::Int(1000, None));
    }

    #[test]
    fn lex_width_prefixed_integers() {
        assert_eq!(first("16w0x88A8"), T::Int(0x88A8, Some(16)));
        assert_eq!(first("8w255"), T::Int(255, Some(8)));
        assert_eq!(first("1w0b1"), T::Int(1, Some(1)));
    }

    #[test]
    fn width_prefix_truncates_with_warning() {
        let l = lex("4w255");
        assert_eq!(resolve(&l)[0], T::Int(15, Some(4)));
        assert!(!l.diags.has_errors());
        assert_eq!(l.diags.len(), 1, "expected truncation warning");
    }

    #[test]
    fn ident_followed_by_w_is_not_width_literal() {
        // `aw12` is just an identifier.
        assert_eq!(resolve(&tokens("aw12"))[0], T::Ident("aw12"));
    }

    #[test]
    fn lex_two_char_operators() {
        let l = tokens("== != <= >= && || << >> ++");
        let kinds: Vec<TokenKind> = l.tokens.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![EqEq, NotEq, Le, Ge, AndAnd, OrOr, Shl, Shr, PlusPlus, Eof]
        );
    }

    #[test]
    fn angle_brackets_vs_shifts() {
        // `bit<32>` must lex as LAngle/RAngle, not shifts.
        assert_eq!(
            resolve(&tokens("bit<32>")),
            vec![
                T::Other(Kw(Keyword::Bit)),
                T::Other(LAngle),
                T::Int(32, None),
                T::Other(RAngle),
                T::Other(Eof)
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let l = tokens("a // comment\n /* block\n comment */ b");
        assert_eq!(
            resolve(&l),
            vec![T::Ident("a"), T::Ident("b"), T::Other(Eof)]
        );
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(lex("/* nope").diags.has_errors());
    }

    #[test]
    fn strings_with_escapes() {
        let l = tokens(r#"@semantic("rss\n")"#);
        let t = resolve(&l);
        assert_eq!(t[0], T::Other(At));
        assert_eq!(t[1], T::Ident("semantic"));
        assert_eq!(t[3], T::Str("rss\n"));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"abc").diags.has_errors());
    }

    #[test]
    fn unknown_char_recovers() {
        let l = lex("a ` b");
        assert!(l.diags.has_errors());
        // Lexing continues past the bad character.
        assert_eq!(l.tokens.len(), 3); // a, b, eof
    }

    #[test]
    fn spans_cover_tokens() {
        let l = lex("header x");
        assert_eq!(l.tokens[0].span, Span::new(0, 6));
        assert_eq!(l.tokens[1].span, Span::new(7, 8));
    }

    #[test]
    fn huge_literal_overflow_is_error() {
        assert!(lex("340282366920938463463374607431768211456") // 2^128
            .diags
            .has_errors());
    }
}
