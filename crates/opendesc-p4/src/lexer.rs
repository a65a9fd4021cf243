//! Hand-written lexer for the P4-16 subset.
//!
//! Produces the full token vector in one pass so the parser can do
//! unlimited lookahead. Tokens borrow their text from the source: an
//! identifier or string literal is a slice of it, and only a literal
//! with an escape owns its bytes. Integer literals follow P4 syntax:
//! decimal, `0x`/`0b`/`0o` prefixed, underscores allowed, and an
//! optional leading width prefix as in `16w0x88A8` or `4w7`.

use crate::diag::{Diagnostic, Diagnostics};
use crate::span::Span;
use crate::token::{Keyword, Token, TokenKind};
use std::borrow::Cow;

/// Lex `src` into tokens. Returns the tokens (always terminated by
/// [`TokenKind::Eof`]) alongside any diagnostics. Lexing recovers from bad
/// characters by skipping them, so the parser always receives a stream.
pub fn lex(src: &str) -> (Vec<Token<'_>>, Diagnostics) {
    let mut lexer = Lexer {
        text: src,
        src: src.as_bytes(),
        pos: 0,
        // The catalog contracts run at one token per 4.3–5.4 bytes
        // (indentation and comments included); one per four covers them
        // without a regrow, and a denser source only costs that regrow.
        tokens: Vec::with_capacity(src.len() / 4 + 1),
        diags: Diagnostics::new(),
    };
    lexer.run();
    (lexer.tokens, lexer.diags)
}

struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    tokens: Vec<Token<'a>>,
    diags: Diagnostics,
}

impl<'a> Lexer<'a> {
    fn run(&mut self) {
        while self.pos < self.src.len() {
            let start = self.pos;
            let c = self.src[self.pos];
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                }
                b'/' if self.peek(1) == Some(b'/') => self.skip_line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.skip_block_comment(),
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.lex_ident_or_number_prefix(),
                b'0'..=b'9' => self.lex_number(),
                b'"' => self.lex_string(),
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

    /// The character starting at byte `at` (a character boundary: every
    /// caller sits just past an ASCII byte or a whole character).
    fn char_at(&self, at: usize) -> char {
        self.text[at..].chars().next().expect("in bounds")
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn skip_line_comment(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
            self.pos += 1;
        }
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

    /// Identifiers, keywords, and the width-prefixed-number case where the
    /// "identifier" turns out to start a literal can't happen here because a
    /// width prefix starts with a digit; this handles pure identifiers.
    fn lex_ident_or_number_prefix(&mut self) {
        let start = self.pos;
        while self.pos < self.src.len()
            && matches!(self.src[self.pos], b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let span = Span::new(start as u32, self.pos as u32);
        let kind = match Keyword::from_str(text) {
            Some(kw) => TokenKind::Kw(kw),
            None => TokenKind::Ident(text),
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
                        self.tokens.push(Token::new(
                            TokenKind::Int {
                                value,
                                width: Some(width),
                            },
                            span,
                        ));
                    }
                    _ => {
                        self.diags
                            .push(Diagnostic::error("malformed width-prefixed literal", span));
                        self.tokens.push(Token::new(
                            TokenKind::Int {
                                value: 0,
                                width: None,
                            },
                            span,
                        ));
                    }
                }
                return;
            }
            // Lone trailing `w` with nothing after: treat as error.
            let span = Span::new(start as u32, self.pos as u32);
            self.diags
                .push(Diagnostic::error("width prefix missing literal body", span));
            self.tokens.push(Token::new(
                TokenKind::Int {
                    value: 0,
                    width: None,
                },
                span,
            ));
            return;
        }
        let span = Span::new(start as u32, self.pos as u32);
        match first.value {
            Some(v) => self.tokens.push(Token::new(
                TokenKind::Int {
                    value: v,
                    width: None,
                },
                span,
            )),
            None => {
                self.diags
                    .push(Diagnostic::error("malformed integer literal", span));
                self.tokens.push(Token::new(
                    TokenKind::Int {
                        value: 0,
                        width: None,
                    },
                    span,
                ));
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
        self.tokens.push(Token::new(TokenKind::Str(text), span));
    }

    fn lex_punct(&mut self) -> Option<(TokenKind<'a>, usize)> {
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

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        let (toks, diags) = lex(src);
        assert!(!diags.has_errors(), "unexpected lex errors for {src:?}");
        toks.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lex_keywords_and_idents() {
        let k = kinds("header foo_t { }");
        assert_eq!(
            k,
            vec![Kw(Keyword::Header), Ident("foo_t"), LBrace, RBrace, Eof]
        );
    }

    #[test]
    fn lex_plain_integers() {
        assert_eq!(
            kinds("42")[0],
            Int {
                value: 42,
                width: None
            }
        );
        assert_eq!(
            kinds("0x2A")[0],
            Int {
                value: 42,
                width: None
            }
        );
        assert_eq!(
            kinds("0b101010")[0],
            Int {
                value: 42,
                width: None
            }
        );
        assert_eq!(
            kinds("0o52")[0],
            Int {
                value: 42,
                width: None
            }
        );
        assert_eq!(
            kinds("1_000")[0],
            Int {
                value: 1000,
                width: None
            }
        );
    }

    #[test]
    fn lex_width_prefixed_integers() {
        assert_eq!(
            kinds("16w0x88A8")[0],
            Int {
                value: 0x88A8,
                width: Some(16)
            }
        );
        assert_eq!(
            kinds("8w255")[0],
            Int {
                value: 255,
                width: Some(8)
            }
        );
        assert_eq!(
            kinds("1w0b1")[0],
            Int {
                value: 1,
                width: Some(1)
            }
        );
    }

    #[test]
    fn width_prefix_truncates_with_warning() {
        let (toks, diags) = lex("4w255");
        assert_eq!(
            toks[0].kind,
            Int {
                value: 15,
                width: Some(4)
            }
        );
        assert!(!diags.has_errors());
        assert_eq!(diags.len(), 1, "expected truncation warning");
    }

    #[test]
    fn ident_followed_by_w_is_not_width_literal() {
        // `aw12` is just an identifier.
        assert_eq!(kinds("aw12")[0], Ident("aw12"));
    }

    #[test]
    fn lex_two_char_operators() {
        let k = kinds("== != <= >= && || << >> ++");
        assert_eq!(
            k,
            vec![EqEq, NotEq, Le, Ge, AndAnd, OrOr, Shl, Shr, PlusPlus, Eof]
        );
    }

    #[test]
    fn angle_brackets_vs_shifts() {
        // `bit<32>` must lex as LAngle/RAngle, not shifts.
        let k = kinds("bit<32>");
        assert_eq!(
            k,
            vec![
                Kw(Keyword::Bit),
                LAngle,
                Int {
                    value: 32,
                    width: None
                },
                RAngle,
                Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let k = kinds("a // comment\n /* block\n comment */ b");
        assert_eq!(k, vec![Ident("a"), Ident("b"), Eof]);
    }

    #[test]
    fn unterminated_block_comment_errors() {
        let (_, diags) = lex("/* nope");
        assert!(diags.has_errors());
    }

    #[test]
    fn strings_with_escapes() {
        let k = kinds(r#"@semantic("rss\n")"#);
        assert_eq!(k[0], At);
        assert_eq!(k[1], Ident("semantic"));
        assert_eq!(k[3], Str("rss\n".into()));
    }

    #[test]
    fn unterminated_string_errors() {
        let (_, diags) = lex("\"abc");
        assert!(diags.has_errors());
    }

    #[test]
    fn unknown_char_recovers() {
        let (toks, diags) = lex("a ` b");
        assert!(diags.has_errors());
        // Lexing continues past the bad character.
        assert_eq!(toks.len(), 3); // a, b, eof
    }

    #[test]
    fn spans_cover_tokens() {
        let (toks, _) = lex("header x");
        assert_eq!(toks[0].span, Span::new(0, 6));
        assert_eq!(toks[1].span, Span::new(7, 8));
    }

    #[test]
    fn huge_literal_overflow_is_error() {
        let (_, diags) = lex("340282366920938463463374607431768211456"); // 2^128
        assert!(diags.has_errors());
    }
}
