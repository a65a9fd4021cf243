//! Manifest text is untrusted input: a driver reads a manifest someone
//! else wrote, so `ManifestV1::parse` must be total and must not accept
//! what it cannot give back.
//!
//! Two properties, over arbitrary text and over mutations of the
//! checked-in `manifests/*.json`:
//! - `ManifestV1::parse` never panics;
//! - whatever it accepts names no key twice and renders to text that
//!   parses back equal, `parse(render(m)) == m`, and that text is the
//!   JSON layer's own rendering of itself.
//!
//! Mutations truncate, flip bytes, delete spans, repeat lines and
//! splice in JSON syntax, `\u` escapes and lone surrogates, numbers past
//! 2^53 or past `f64`, `-0`, `NaN`, duplicate keys and decimal strings
//! at the edges of `u64` and `u128`, at random places and in place of a
//! member's value.
//!
//! `CHAOS_SEED` is mixed into every generated case, so each entry of
//! the CI chaos matrix explores a different region of the input space.
//! Replay a failure with `CHAOS_SEED=<n> cargo test --test
//! manifest_untrusted`.

use opendesc::compiler::codegen::manifest::ManifestV1;
use opendesc::telemetry::{parse_json, Json};
use proptest::prelude::*;
use std::ops::Range;

/// The generated manifests the repository keeps, one per catalog model
/// that has one.
const MANIFESTS: &[&str] = &[
    include_str!("../manifests/e1000e.json"),
    include_str!("../manifests/ixgbe.json"),
    include_str!("../manifests/mlx5.json"),
    include_str!("../manifests/qdma.json"),
];

/// Pieces of almost-valid manifest text, so mutation reaches deep
/// reader states instead of bouncing off the first byte.
const FRAGMENTS: &[&str] = &[
    "\\",
    "\"",
    ":",
    ",",
    "{",
    "}",
    "[",
    "]",
    "\n",
    "null",
    "true",
    "[]",
    "{}",
    r#""""#,
    r#"{"name": "s", "source": "m", "offset_bits": 0, "width_bits": 8}"#,
    r#"{"mode": "manual"}"#,
    r#"{"mode": "programmed", "writes": {}}"#,
    r#"{"mode": "programmed", "writes": {"ctx.a": "1", "ctx.a": "1"}}"#,
    r#"{"mode": "manual", "writes": {}}"#,
    r#"{"name": "a", "semantic": "s", "kind": "softnic", "width_bits": 8, "cost": "infinite"}"#,
    r#"8, "width_bits": 8"#,
    r#""x", "name": "x""#,
    r#"1, "version": 1"#,
    r#""hardware""#,
    r#""softnic""#,
    r#""infinite""#,
    r#""programmed""#,
    r#""manual""#,
    r#""opendesc.manifest""#,
    r#""A""#,
    r#""éé""#,
    r#""\u0000\u001f""#,
    r#""😀""#,
    r#""\uD800""#,
    r#""\uDC00""#,
    r#""\uD83Dx""#,
    r#""\uD83DA""#,
    r#""\u12""#,
    r#""\u+041""#,
    r#""\uzzzz""#,
    r"A",
    r"\u",
    r#""\n\"\\\/\b\f""#,
    r#""\q""#,
    "0",
    "-0",
    "-1",
    "01",
    "1.5",
    "0.0625",
    "1e2",
    "65535",
    "65536",
    "4294967295",
    "4294967296",
    "9007199254740992",
    "9007199254740993",
    "1e308",
    "1e309",
    "-1e309",
    "1.5e-320",
    "NaN",
    "Infinity",
    "-Infinity",
    r#""0""#,
    r#""-0""#,
    r#""00""#,
    r#""01""#,
    r#""+1""#,
    r#"" 1""#,
    r#""1e3""#,
    r#""9007199254740993""#,
    r#""18446744073709551615""#,
    r#""18446744073709551616""#,
    r#""340282366920938463463374607431768211455""#,
    r#""340282366920938463463374607431768211456""#,
    r#""0x0000000000000000""#,
    r#""0xffffffffffffffff""#,
    r#""0xFFFFFFFFFFFFFFFF""#,
    r#""0x+fffffffffffffff""#,
    r#""unlowerable""#,
    "é",
    "\u{2028}",
    "\u{85}",
    "\r",
    "\t",
    " ",
];

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// A xorshift stream seeded from a proptest draw and `CHAOS_SEED`.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen((seed ^ chaos_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn fragment(&mut self) -> &'static str {
        FRAGMENTS[self.below(FRAGMENTS.len())]
    }

    fn manifest(&mut self) -> &'static str {
        MANIFESTS[self.below(MANIFESTS.len())]
    }

    /// A char boundary of `s` at most `cap` bytes in.
    fn boundary(&mut self, s: &str, cap: usize) -> usize {
        let mut at = self.below(s.len().min(cap) + 1);
        while !s.is_char_boundary(at) {
            at -= 1;
        }
        at
    }

    /// One mutation of `text`.
    fn mutate(&mut self, text: &str) -> String {
        match self.below(6) {
            // Truncation.
            0 => text[..self.boundary(text, usize::MAX)].to_string(),
            // Byte flip; a flip that breaks UTF-8 reads as U+FFFD.
            1 => {
                let mut bytes = text.as_bytes().to_vec();
                if !bytes.is_empty() {
                    let at = self.below(bytes.len());
                    bytes[at] ^= 1 << self.below(8);
                }
                String::from_utf8_lossy(&bytes).into_owned()
            }
            // A span of up to 64 bytes deleted.
            2 => {
                let from = self.boundary(text, usize::MAX);
                let rest = &text[from..];
                let to = self.boundary(rest, 64);
                format!("{}{}", &text[..from], &rest[to..])
            }
            // A line repeated: a duplicate member or array element.
            3 => {
                let mut lines: Vec<&str> = text.lines().collect();
                if !lines.is_empty() {
                    let line = lines[self.below(lines.len())];
                    lines.insert(self.below(lines.len() + 1), line);
                }
                lines.join("\n")
            }
            // A member's value replaced by one to three fragments.
            4 => {
                let spans = value_spans(text);
                let at = self.below(spans.len());
                let value: String = (0..=self.below(3)).map(|_| self.fragment()).collect();
                match spans.get(at) {
                    Some(span) => with_value(text, span, &value),
                    None => text.to_string(),
                }
            }
            // A fragment spliced in anywhere.
            _ => {
                let at = self.boundary(text, usize::MAX);
                format!("{}{}{}", &text[..at], self.fragment(), &text[at..])
            }
        }
    }

    /// Any Unicode, weighted toward the manifest's own syntax.
    fn text(&mut self) -> String {
        let n = self.below(48);
        let mut out = String::new();
        for _ in 0..n {
            match self.below(4) {
                0 => out.push(char::from_u32(self.below(0x11_0000) as u32).unwrap_or('\u{fffd}')),
                1 => out.push((b' ' + self.below(95) as u8) as char),
                _ => out.push_str(self.fragment()),
            }
        }
        out
    }
}

/// The byte span of every member's value in `text`, in order, nested
/// ones included: what follows each `": ` outside a string, up to the
/// `,`, `}` or `]` that ends it at its own depth.
fn value_spans(text: &str) -> Vec<Range<usize>> {
    let b = text.as_bytes();
    let mut spans = Vec::new();
    let (mut i, mut in_str) = (0, false);
    while i < b.len() {
        match b[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b':' if !in_str => {
                let start = i + 1 + (b.get(i + 1) == Some(&b' ')) as usize;
                let (mut end, mut depth, mut quoted) = (start, 0usize, false);
                while end < b.len() {
                    match b[end] {
                        b'\\' if quoted => end += 1,
                        b'"' => quoted = !quoted,
                        b'{' | b'[' if !quoted => depth += 1,
                        b'}' | b']' if !quoted && depth == 0 => break,
                        b'}' | b']' if !quoted => depth -= 1,
                        b',' if !quoted && depth == 0 => break,
                        _ => {}
                    }
                    end += 1;
                }
                let end = end.min(b.len());
                spans.push(start..start + text[start..end].trim_end().len());
            }
            _ => {}
        }
        i += 1;
    }
    spans
}

/// `text` with the value at `span` replaced by `value`.
fn with_value(text: &str, span: &Range<usize>, value: &str) -> String {
    format!("{}{value}{}", &text[..span.start], &text[span.end..])
}

/// No object in `doc` names a key twice.
fn keys_are_unique(doc: &Json) -> bool {
    match doc {
        Json::Obj(members) => members.iter().enumerate().all(|(i, (k, v))| {
            members[..i].iter().all(|(seen, _)| seen != k) && keys_are_unique(v)
        }),
        Json::Arr(items) => items.iter().all(keys_are_unique),
        _ => true,
    }
}

/// Parse `text`; a manifest it accepts names no key twice, and renders
/// to text that parses back equal and that the JSON layer renders
/// unchanged.
fn accepts(text: &str) -> bool {
    let Ok(m) = ManifestV1::parse(text) else {
        return false;
    };
    let doc = parse_json(text).expect("an accepted manifest is JSON");
    assert!(keys_are_unique(&doc), "accepted a duplicate key: {text:?}");
    let rendered = m.render();
    assert_eq!(
        ManifestV1::parse(&rendered).as_ref(),
        Ok(&m),
        "accepted {text:?}\nrendered {rendered:?}"
    );
    assert_eq!(
        parse_json(&rendered).map(|doc| doc.render()).as_ref(),
        Ok(&rendered),
        "accepted {text:?}"
    );
    true
}

/// Every prefix of a manifest is handled without a panic, and each one
/// cut short of its closing brace is refused; so is a manifest whose
/// last accessor is cut down to `{}` and the document closed.
#[test]
fn truncated_manifests_never_panic() {
    for text in MANIFESTS {
        for (at, _) in text.char_indices() {
            let accepted = accepts(&text[..at]);
            assert!(!accepted || at >= text.trim_end().len(), "{at}");
        }
        let last = text.rfind("\n    {").expect("an accessor");
        assert!(!accepts(&format!("{}\n    {{}}\n  ]\n}}\n", &text[..last])));
        assert!(accepts(text));
    }
}

/// Every member value of every manifest, nested ones included, replaced
/// by every fragment in turn: each edge value reaches each key once, so
/// a reader that accepted what it cannot render back (a non-finite
/// cost, a misread `\u` escape) fails here whatever `CHAOS_SEED` is.
#[test]
fn every_value_replaced_by_every_fragment() {
    let mut accepted = 0;
    for text in MANIFESTS {
        let spans = value_spans(text);
        assert!(spans.len() > 40, "{} values", spans.len());
        for span in &spans {
            for value in FRAGMENTS {
                accepted += accepts(&with_value(text, span, value)) as usize;
            }
        }
    }
    assert!(accepted > 0, "no replaced value was accepted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Arbitrary text, fragment soups included, never panics the reader.
    #[test]
    fn parse_is_total_on_arbitrary_text(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        accepts(&g.text());
    }

    /// One to four stacked mutations of a checked-in manifest never
    /// panic the reader, and whatever it accepts round-trips.
    #[test]
    fn parse_is_total_on_mutated_manifests(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let mut text = g.manifest().to_string();
        for _ in 0..=g.below(4) {
            text = g.mutate(&text);
        }
        accepts(&text);
    }
}
