//! Manifest text is untrusted input: a driver reads a manifest someone
//! else wrote, so `ManifestV1::parse` must be total and must not accept
//! what it cannot give back.
//!
//! Two properties, over arbitrary text and over mutations of the
//! checked-in `manifests/*.toml`:
//! - `ManifestV1::parse` never panics;
//! - whatever it accepts renders to text that parses back equal,
//!   `parse(render(m)) == m`.
//!
//! Mutations truncate, flip bytes, delete spans, repeat lines and
//! splice in escapes, quotes, `=`, section headers, `\u{…}` escapes,
//! integers at the edges of `u128` and non-finite floats, at random
//! places and in place of a line's value.
//!
//! `CHAOS_SEED` is mixed into every generated case, so each entry of
//! the CI chaos matrix explores a different region of the input space.
//! Replay a failure with `CHAOS_SEED=<n> cargo test --test
//! manifest_untrusted`.

use opendesc::compiler::codegen::manifest::ManifestV1;
use proptest::prelude::*;

/// The generated manifests the repository keeps, one per catalog model
/// that has one.
const MANIFESTS: &[&str] = &[
    include_str!("../manifests/e1000e.toml"),
    include_str!("../manifests/ixgbe.toml"),
    include_str!("../manifests/mlx5.toml"),
    include_str!("../manifests/qdma.toml"),
];

/// Pieces of almost-valid manifest text, so mutation reaches deep
/// parser states instead of bouncing off the first line.
const FRAGMENTS: &[&str] = &[
    "\\",
    "\"",
    "=",
    " = ",
    "\n",
    "#",
    "[[slot]]",
    "[[accessor]]",
    "[context]",
    "[interface]",
    "[digests]",
    "[manifest]",
    "[[slot]]\nname = \"s\"\nsource = \"m\"\noffset_bits = 0\nwidth_bits = 8\n",
    "mode = \"programmed\"",
    "mode = \"manual\"",
    "\"ctx.a\" = ",
    "kind = \"hardware\"",
    "kind = \"softnic\"",
    "cost = \"infinite\"",
    "\\u{",
    "}",
    "\\u{41}",
    "\\u{10FFFF}",
    "\\u{110000}",
    "\\u{D800}",
    "\\u{}",
    "\\u{+41}",
    "\\n",
    "\\\"",
    "\\q",
    "0",
    "-0",
    "-1",
    "340282366920938463463374607431768211455",
    "340282366920938463463374607431768211456",
    "18446744073709551616",
    "4294967296",
    "65536",
    "1e308",
    "1e309",
    "-1e309",
    "NaN",
    "nan",
    "inf",
    "-inf",
    "infinity",
    "0.0625",
    "1.5e-320",
    "\"0x0000000000000000\"",
    "\"0xffffffffffffffff\"",
    "\"unlowerable\"",
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
            // A line repeated.
            3 => {
                let mut lines: Vec<&str> = text.lines().collect();
                if !lines.is_empty() {
                    let line = lines[self.below(lines.len())];
                    lines.insert(self.below(lines.len() + 1), line);
                }
                lines.join("\n")
            }
            // A line's value replaced by one to three fragments.
            4 => {
                let at = self.below(text.lines().count());
                let value: String = (0..=self.below(3)).map(|_| self.fragment()).collect();
                with_value(text, at, &value)
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

/// `text` with the value of its line `at` replaced by `value`, when
/// that line is a `key = value` line.
fn with_value(text: &str, at: usize, value: &str) -> String {
    let mut out = String::with_capacity(text.len() + value.len());
    for (i, line) in text.lines().enumerate() {
        match line.split_once(" = ") {
            Some((key, _)) if i == at => {
                out.push_str(key);
                out.push_str(" = ");
                out.push_str(value);
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// Parse `text`; a manifest it accepts renders to text that parses
/// back equal.
fn accepts(text: &str) -> bool {
    let Ok(m) = ManifestV1::parse(text) else {
        return false;
    };
    let rendered = m.render();
    assert_eq!(
        ManifestV1::parse(&rendered).as_ref(),
        Ok(&m),
        "accepted {text:?}\nrendered {rendered:?}"
    );
    true
}

/// Every proper prefix of a manifest is handled without a panic, and
/// one cut short of its last `[[accessor]]` section is refused.
#[test]
fn truncated_manifests_never_panic() {
    for text in MANIFESTS {
        for (at, _) in text.char_indices() {
            accepts(&text[..at]);
        }
        let last = text.rfind("[[accessor]]").expect("an accessor section");
        assert!(!accepts(&text[..last + "[[accessor]]\n".len()]));
    }
}

/// Every `key = value` line of every manifest, its value replaced by
/// every fragment in turn: each edge value reaches each key once, so a
/// parser that accepted what it cannot render back (a NaN cost) fails
/// here whatever `CHAOS_SEED` is.
#[test]
fn every_value_replaced_by_every_fragment() {
    let mut accepted = 0;
    for text in MANIFESTS {
        for (at, line) in text.lines().enumerate() {
            if line.contains(" = ") {
                for value in FRAGMENTS {
                    accepted += accepts(&with_value(text, at, value)) as usize;
                }
            }
        }
    }
    assert!(accepted > 0, "no replaced value was accepted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Arbitrary text, fragment soups included, never panics the parser.
    #[test]
    fn parse_is_total_on_arbitrary_text(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        accepts(&g.text());
    }

    /// One to four stacked mutations of a checked-in manifest never
    /// panic the parser, and whatever it accepts round-trips.
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
