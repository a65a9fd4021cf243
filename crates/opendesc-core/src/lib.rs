//! # opendesc-core — the OpenDesc compiler
//!
//! The paper's primary contribution: given a NIC's P4 interface contract
//! and an application's intent, select the best completion layout the NIC
//! supports (Eq. 1), derive the context configuration that steers the NIC
//! onto it, and synthesize host stubs — constant-time accessors, Rust/C
//! source, and verified eBPF programs — plus SoftNIC shims for whatever
//! the layout cannot provide.
//!
//! ```
//! use opendesc_core::{Compiler, Intent};
//! use opendesc_ir::{names, SemanticRegistry};
//! use opendesc_nicsim::models;
//!
//! let mut reg = SemanticRegistry::with_builtins();
//! let intent = Intent::builder("app")
//!     .want(&mut reg, names::RSS_HASH)
//!     .want(&mut reg, names::IP_CHECKSUM)
//!     .build();
//! let compiled = Compiler::default()
//!     .compile_model(&models::e1000e(), &intent, &mut reg)
//!     .unwrap();
//! // Fig. 6: hardware checksum wins; RSS falls back to software.
//! assert_eq!(compiled.missing_features(), vec!["rss_hash"]);
//! ```
pub mod accessor;
pub mod cache;
pub mod codegen;
pub mod compiler;
pub mod datapath;
pub mod equiv;
pub mod evolve;
pub mod intent;
pub mod lower;
pub mod plan;
pub mod rebalance;
pub mod robust;
pub mod select;
pub mod shard;
pub mod tx;
pub mod vm;

pub use accessor::{Accessor, AccessorKind, AccessorSet};
pub use cache::{AttachError, CompiledRx, PlanCache};
pub use compiler::{check_contract, CompileError, CompiledInterface, Compiler};
pub use datapath::{OpenDescDriver, RxBatch, RxPacket};
pub use equiv::{capabilities, diff, intent_equivalent, ContractDiff, IntentEquivalence};
pub use evolve::{FlipProgress, FlipRecord, RelayoutCounters, RelayoutRequest, FLIP_POLL_BUDGET};
pub use intent::{Intent, IntentBuilder, IntentError, FIG1_INTENT_P4};
pub use lower::{lower, EbpfFieldProg, EbpfWindow, LowerError, LoweredPlan};
pub use plan::{PlanStep, RxPlan};
pub use rebalance::{imbalance_p99_p50, RebalanceConfig, RebalanceStats, Rebalancer, RetaMove};
pub use robust::{
    Evidence, FieldCheck, HealthConfig, HealthState, QueueHealth, SeqTracker, SeqVerdict,
    ValidationMode, ValidationStats, ValidatorSpec, Watchdog, WatchdogConfig,
};
pub use select::{Objective, PathScore, SelectError, Selection, Selector};
pub use shard::{
    retain_into, BatchSink, Collected, Control, DrainedPacket, EngineReport, EngineWorker,
    ForwardFn, RunOutcome, ShardError, ShardedEngine, TxVerdict, TxWorkerStats, WorkerStats,
};
pub use tx::{
    compile_tx, compile_tx_checked, lower_tx, txreg, CompiledTx, CompiledTxPlan, TxBatch, TxDriver,
    TxQueue, TxQueueStats, TxRequest,
};
pub use vm::{BcInsn, PlanProgram};

// The unified telemetry layer — re-exported so engine users can take a
// registry snapshot or read trace rings without naming the crate.
pub use opendesc_telemetry::{
    Hist, MetricRegistry, MetricValue, QueueTelemetry, Snapshot, TraceEvent, TraceKind, TraceRing,
};
