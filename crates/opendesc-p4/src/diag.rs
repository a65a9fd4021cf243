//! Diagnostics: structured compile errors with rendered source context.

use crate::span::{SourceMap, Span};
use std::fmt;

/// Severity of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// A single compiler diagnostic: message, primary span, optional notes.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub severity: Severity,
    pub message: String,
    pub span: Span,
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A new error diagnostic at `span`.
    pub fn error(message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Error,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// A new warning diagnostic at `span`.
    pub fn warning(message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// Attach an explanatory note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Render the diagnostic with a caret line under the offending source.
    ///
    /// ```text
    /// error: unknown type `foo_t`
    ///   --> nic.p4:12:9
    ///    |
    /// 12 |     in foo_t ctx,
    ///    |        ^^^^^
    /// ```
    pub fn render(&self, sm: &SourceMap) -> String {
        let lc = sm.line_col(self.span.lo);
        let line = sm.line_text(self.span.lo);
        let gutter_w = lc.line.to_string().len();
        let mut out = format!(
            "{}: {}\n{:w$}--> {}:{}\n",
            self.severity,
            self.message,
            "",
            sm.name(),
            lc,
            w = gutter_w
        );
        out.push_str(&format!("{:w$} |\n", "", w = gutter_w));
        out.push_str(&format!("{} | {}\n", lc.line, line));
        let caret_len = self
            .span
            .len()
            .clamp(1, line.len().saturating_sub(lc.col as usize - 1).max(1));
        out.push_str(&format!(
            "{:w$} | {:pad$}{}\n",
            "",
            "",
            "^".repeat(caret_len),
            w = gutter_w,
            pad = (lc.col - 1) as usize
        ));
        for note in &self.notes {
            out.push_str(&format!("{:w$} = note: {}\n", "", note, w = gutter_w));
        }
        out
    }
}

/// An ordered collection of diagnostics produced by one compilation stage.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    diags: Vec<Diagnostic>,
}

impl Diagnostics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    pub fn error(&mut self, message: impl Into<String>, span: Span) {
        self.push(Diagnostic::error(message, span));
    }

    pub fn warning(&mut self, message: impl Into<String>, span: Span) {
        self.push(Diagnostic::warning(message, span));
    }

    /// True when at least one `Error`-severity diagnostic is present.
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    pub fn len(&self) -> usize {
        self.diags.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter()
    }

    /// Every message on one line, `; `-separated — what an error enum
    /// carries when it has no source map to render against.
    pub fn summary(&self) -> String {
        let messages: Vec<&str> = self.diags.iter().map(|d| d.message.as_str()).collect();
        messages.join("; ")
    }

    /// Render every diagnostic against `sm`, separated by blank lines.
    pub fn render_all(&self, sm: &SourceMap) -> String {
        self.diags
            .iter()
            .map(|d| d.render(sm))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.diags.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SourceMap;

    #[test]
    fn render_points_at_source() {
        let sm = SourceMap::new("nic.p4", "header h_t {\n    bit<7> x;\n}\n");
        let d = Diagnostic::error("odd width", Span::new(17, 23))
            .with_note("widths are fine, actually");
        let r = d.render(&sm);
        assert!(r.contains("error: odd width"), "{r}");
        assert!(r.contains("nic.p4:2:5"), "{r}");
        assert!(r.contains("bit<7> x;"), "{r}");
        assert!(r.contains("^^^^^^"), "{r}");
        assert!(r.contains("note: widths are fine"), "{r}");
    }

    #[test]
    fn has_errors_distinguishes_warnings() {
        let mut ds = Diagnostics::new();
        ds.warning("meh", Span::point(0));
        assert!(!ds.has_errors());
        ds.error("bad", Span::point(0));
        assert!(ds.has_errors());
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn render_caret_clamped_at_line_end() {
        let sm = SourceMap::new("x.p4", "ab\n");
        // Span longer than the line must not panic or overflow.
        let d = Diagnostic::error("eof-ish", Span::new(1, 40));
        let r = d.render(&sm);
        assert!(r.contains('^'), "{r}");
    }
}
