//! # opendesc-p4 — P4-16 subset frontend for OpenDesc descriptor contracts
//!
//! This crate parses and type-checks the P4 dialect OpenDesc uses as a
//! *declarative interface contract* between a NIC and the host (paper §3):
//! header/struct/enum declarations, `DescParser` parsers, `CmptDeparser`
//! controls, and the `@semantic`/`@cost` annotations that tie header fields
//! to offload semantics.
//!
//! Typical use:
//!
//! ```
//! use opendesc_p4::typecheck::parse_and_check;
//!
//! let (checked, diags) = parse_and_check(r#"
//!     header cmpt_t { @semantic("rss_hash") bit<32> rss; }
//! "#);
//! assert!(!diags.has_errors());
//! let id = checked.header_id("cmpt_t").unwrap();
//! let header = checked.types.header(id);
//! assert_eq!(header.width_bytes(), 4);
//! // Names are interned symbols, resolved through the program.
//! let sem = header.fields[0].semantic.unwrap();
//! assert_eq!(checked.name(sem), "rss_hash");
//! ```
pub mod ast;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod token;
pub mod typecheck;
pub mod types;

pub use diag::{Diagnostic, Diagnostics, Severity};
pub use span::{SourceMap, Span};
pub use typecheck::{parse_and_check, CheckedProgram};

#[cfg(test)]
mod fuzz_tests;
