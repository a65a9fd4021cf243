//! Byte-offset source spans and the source map used to render diagnostics.
//!
//! Every token and AST node produced by this crate carries a [`Span`] so
//! that later compilation stages (type checking, CFG extraction, layout
//! selection) can point at the exact piece of the P4 contract that caused
//! a problem.

use std::fmt;

/// A half-open byte range `[lo, hi)` into a single source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub lo: u32,
    /// Byte offset one past the last character.
    pub hi: u32,
}

impl Span {
    /// Create a span from byte offsets.
    pub fn new(lo: u32, hi: u32) -> Self {
        debug_assert!(lo <= hi, "span lo must not exceed hi");
        Span { lo, hi }
    }

    /// A zero-width span at a given offset (used for EOF diagnostics).
    pub fn point(at: u32) -> Self {
        Span { lo: at, hi: at }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Whether the span covers zero bytes.
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.lo, self.hi)
    }
}

/// 1-based line/column position, derived from a [`SourceMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineCol {
    pub line: u32,
    pub col: u32,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Maps byte offsets back to lines for diagnostic rendering.
///
/// Owns a copy of the source text plus a table of line-start offsets; both
/// are built once per compiled contract.
#[derive(Debug, Clone)]
pub struct SourceMap {
    name: String,
    src: String,
    line_starts: Vec<u32>,
}

impl SourceMap {
    /// Build a source map for `src`, labelled `name` in diagnostics.
    pub fn new(name: impl Into<String>, src: impl Into<String>) -> Self {
        let src = src.into();
        let mut line_starts = vec![0u32];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        SourceMap {
            name: name.into(),
            src,
            line_starts,
        }
    }

    /// The label given at construction (typically a file name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The full source text.
    pub fn src(&self) -> &str {
        &self.src
    }

    /// Line/column (1-based) of a byte offset. Total: an offset past the
    /// end reads as the end, one inside a multi-byte character as that
    /// character's start.
    pub fn line_col(&self, offset: u32) -> LineCol {
        let offset = self.src.floor_char_boundary(offset as usize);
        let line_idx = match self.line_starts.binary_search(&(offset as u32)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let line_start = self.line_starts[line_idx];
        let col = self.src[line_start as usize..offset].chars().count() as u32;
        LineCol {
            line: line_idx as u32 + 1,
            col: col + 1,
        }
    }

    /// The full text of the (1-based) line containing `offset`, without the
    /// trailing newline.
    pub fn line_text(&self, offset: u32) -> &str {
        let lc = self.line_col(offset);
        let start = self.line_starts[(lc.line - 1) as usize] as usize;
        let end = self
            .line_starts
            .get(lc.line as usize)
            .map(|&e| e as usize)
            .unwrap_or(self.src.len());
        self.src[start..end].trim_end_matches(['\n', '\r'])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_merge_covers_both() {
        let a = Span::new(2, 5);
        let b = Span::new(7, 9);
        assert_eq!(a.to(b), Span::new(2, 9));
        assert_eq!(b.to(a), Span::new(2, 9));
    }

    #[test]
    fn span_point_is_empty() {
        assert!(Span::point(4).is_empty());
        assert_eq!(Span::new(1, 3).len(), 2);
    }

    #[test]
    fn line_col_basics() {
        let sm = SourceMap::new("t.p4", "abc\ndef\n\nghi");
        assert_eq!(sm.line_col(0), LineCol { line: 1, col: 1 });
        assert_eq!(sm.line_col(2), LineCol { line: 1, col: 3 });
        assert_eq!(sm.line_col(4), LineCol { line: 2, col: 1 });
        assert_eq!(sm.line_col(8), LineCol { line: 3, col: 1 });
        assert_eq!(sm.line_col(9), LineCol { line: 4, col: 1 });
    }

    #[test]
    fn line_text_strips_newline() {
        let sm = SourceMap::new("t.p4", "abc\ndef\r\nghi");
        assert_eq!(sm.line_text(0), "abc");
        assert_eq!(sm.line_text(5), "def");
        assert_eq!(sm.line_text(10), "ghi");
    }

    #[test]
    fn line_col_is_total_over_offsets() {
        let sm = SourceMap::new("t.p4", "aé\nb");
        // Inside `é` (bytes 1..3) reads as its start; past the end as the end.
        assert_eq!(sm.line_col(2), LineCol { line: 1, col: 2 });
        assert_eq!(sm.line_col(3), LineCol { line: 1, col: 3 });
        assert_eq!(sm.line_col(99), LineCol { line: 2, col: 2 });
        assert_eq!(sm.line_text(2), "aé");
    }

    #[test]
    fn line_col_at_eof() {
        let sm = SourceMap::new("t.p4", "ab");
        assert_eq!(sm.line_col(2), LineCol { line: 1, col: 3 });
    }
}
