//! The JSON writer and reader against each other: whatever `render`
//! writes, `parse` reads back equal, and `parse` is total — any text
//! yields a value or an error, never a panic.
//!
//! `CHAOS_SEED` is mixed into every generated case, so each entry of
//! the CI chaos matrix explores a different region of the input space.
//! Replay a failure with `CHAOS_SEED=<n> cargo test -p
//! opendesc-telemetry --test json`.

use opendesc_telemetry::{parse_json, Json};
use proptest::prelude::*;

/// Pieces of almost-valid JSON, so mutation reaches deep parser states
/// instead of bouncing off the first byte.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "D83D",
    "DE00",
    "\\uD83D",
    "\\uDE00",
    "\\n",
    "\\\"",
    "\"k\": ",
    "0",
    "-",
    "1.5",
    "e",
    "E+",
    "1e400",
    "-0",
    "true",
    "false",
    "null",
    "nul",
    " ",
    "\n",
    "é",
    "\u{1F600}",
    "\u{1}",
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
        (self.next() % n as u64) as usize
    }

    /// Any Unicode, weighted toward what the writer must escape.
    fn text(&mut self) -> String {
        let n = self.below(10);
        (0..n)
            .map(|_| match self.below(4) {
                0 => ['"', '\\', '\n', '\t', '\r', '\u{0}', '\u{1f}', '/'][self.below(8)],
                1 => char::from_u32(self.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
                _ => (b' ' + self.below(95) as u8) as char,
            })
            .collect()
    }

    /// A finite number: an integer, a four-decimal measurement, or any
    /// finite bit pattern.
    fn num(&mut self) -> f64 {
        let bits = self.next();
        match self.below(3) {
            0 => (bits as i64 >> self.below(64)) as f64,
            1 => (bits % 1_000_000_000) as f64 / 1e4,
            _ => Some(f64::from_bits(bits))
                .filter(|x| x.is_finite())
                .unwrap_or(0.5),
        }
    }

    fn tree(&mut self, depth: usize) -> Json {
        let kinds = if depth == 0 { 4 } else { 7 };
        match self.below(kinds) {
            0 => Json::Null,
            1 => Json::Bool(self.below(2) == 1),
            2 => Json::Num(self.num()),
            3 => Json::Str(self.text()),
            4 => Json::Arr((0..self.below(5)).map(|_| self.tree(depth - 1)).collect()),
            // An array of objects: the layout's one-element-per-line case.
            5 => Json::Arr((0..self.below(5)).map(|_| self.obj(depth - 1)).collect()),
            _ => self.obj(depth - 1),
        }
    }

    fn obj(&mut self, depth: usize) -> Json {
        let n = self.below(5);
        Json::Obj((0..n).map(|_| (self.text(), self.tree(depth))).collect())
    }
}

/// A bench record's shape, escapes included.
fn record() -> String {
    let row = |model: &str, q: f64, mpps: f64| {
        Json::Obj(vec![
            ("model".into(), Json::Str(model.into())),
            ("queues".into(), Json::Num(q)),
            ("mpps".into(), Json::Num(mpps)),
            (
                "per_queue".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]),
            ),
        ])
    };
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str("opendesc.bench.record".into())),
        ("version".into(), Json::Num(1.0)),
        (
            "identity".into(),
            Json::Arr(vec![Json::Str("model".into())]),
        ),
        (
            "rows".into(),
            Json::Arr(vec![
                row("e1000e", 1.0, 12.381),
                row("a \"b\"\\\n", 4.0, 40.0),
            ]),
        ),
        ("ratio".into(), Json::Num(3.05)),
    ]);
    doc.render()
}

/// Parse `text`; a document it accepts renders and reads back equal.
fn total(text: &str) -> bool {
    let Ok(doc) = parse_json(text) else {
        return false;
    };
    assert_eq!(parse_json(&doc.render()).as_ref(), Ok(&doc), "{text:?}");
    true
}

/// Every proper prefix of a record is refused, except the one that
/// only drops trailing whitespace.
#[test]
fn truncated_records_are_refused() {
    let rec = record();
    for (at, _) in rec.char_indices() {
        let cut = &rec[..at];
        assert_eq!(total(cut), cut == rec.trim_end(), "{cut:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// render → parse → equal, and the rendered text is a fixed point.
    #[test]
    fn render_then_parse_is_identity(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let doc = g.tree(5);
        let text = doc.render();
        let back = parse_json(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        prop_assert_eq!(&back, &doc);
        prop_assert_eq!(back.render(), text);
    }

    /// Fragment soups never panic the parser.
    #[test]
    fn parse_is_total_on_fragment_soup(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let n = g.below(64);
        let soup: String = (0..n).map(|_| FRAGMENTS[g.below(FRAGMENTS.len())]).collect();
        total(&soup);
    }

    /// Mutations of a rendered record never panic the parser: fragments
    /// and random characters spliced in, spans deleted.
    #[test]
    fn parse_is_total_on_mutated_records(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let mut rec: Vec<char> = record().chars().collect();
        for _ in 0..1 + g.below(4) {
            let at = g.below(rec.len() + 1);
            let end = (at + g.below(4)).min(rec.len());
            let with: String = match g.below(3) {
                0 => FRAGMENTS[g.below(FRAGMENTS.len())].into(),
                1 => g.text(),
                _ => String::new(),
            };
            rec.splice(at..end, with.chars());
        }
        total(&rec.into_iter().collect::<String>());
    }
}
