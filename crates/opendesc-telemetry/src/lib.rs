//! # opendesc-telemetry — workspace-wide observability primitives
//!
//! The substrate every experiment and CI gate stands on: production
//! operation of the RX stack means you can *see* the datapath, and
//! credible performance claims need continuous, comparable measurement
//! (the P4 per-stage-visibility and hXDP continuous-measurement
//! arguments). This crate provides four pieces, dependency-free so
//! every workspace crate can use them:
//!
//! * [`MetricRegistry`] / [`Snapshot`] — named, typed counters, gauges
//!   and histograms that components register into at snapshot time;
//!   the snapshot serializes to deterministic JSON so same-seed runs
//!   diff byte-for-byte and CI can gate on committed baselines.
//! * [`Hist`] — zero-alloc log-bucket histograms (`[u64; 64]`, one
//!   bucket per power of two) for poll-cycle cost, batch fill ratio and
//!   ring occupancy; recorded in per-worker cells on the hot path,
//!   merged only when a snapshot is taken.
//! * [`TraceRing`] / [`TraceEvent`] — a fixed-capacity per-queue ring
//!   of poll-cycle events (doorbells, writebacks, validation verdicts,
//!   health transitions, watchdog actions) dumped on test failure or
//!   fault-injection anomaly.
//! * [`QueueTelemetry`] — the per-queue bundle a driver embeds: the
//!   histograms, the hardware-vs-shim field-mix counters, and the trace
//!   ring, behind a single `enabled` switch (the E15 on/off arms).
//!
//! The [`json`] module is the workspace's one JSON reader and writer
//! (no serde in the tree): snapshots and bench records are built as
//! [`Json`] values and written by [`Json::render`], and the perf gate
//! reads records back with [`parse_json`].

pub mod hist;
pub mod json;
pub mod queue;
pub mod registry;
pub mod trace;

pub use hist::{bucket_hi, bucket_index, bucket_lo, Hist, HIST_BUCKETS};
pub use json::{parse as parse_json, Json};
pub use queue::{QueueTelemetry, DEFAULT_TRACE_CAP};
pub use registry::{MetricRegistry, MetricValue, Snapshot};
pub use trace::{TraceEvent, TraceKind, TraceRing};
