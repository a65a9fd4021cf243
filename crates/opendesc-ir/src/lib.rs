//! # opendesc-ir — intermediate representation and analyses
//!
//! Lowers checked OpenDesc contracts into the structures the compiler
//! optimizes over and the device executes: the semantic alphabet Σ, the
//! completion-deparser CFG (emit vertices + labeled branch edges),
//! enumerated completion paths with `Prov`/`Size`, enumerated TX
//! descriptor layouts, and symbolic context predicates with a tiny
//! solver. The enumerations are the contract's one executable form in
//! the product: the host selects from them and the device reads them as
//! tables. Interpreting the P4 text itself is an oracle's job
//! (`opendesc-reference`).
pub mod bits;
pub mod cfg;
pub mod path;
pub mod pred;
pub mod semantics;
pub mod txpath;

pub use cfg::{extract, Cfg, CfgNode, EmitField, EmitVertex};
pub use path::{enumerate_paths, CompletionPath, FieldSlot, PathError, DEFAULT_MAX_PATHS};
pub use pred::{solve, Assignment, CmpOp, Cond, FieldRef, Unsolved};
pub use semantics::{names, Cost, SemanticId, SemanticInfo, SemanticRegistry};
pub use txpath::{enumerate_tx_layouts, DescriptorLayout};
