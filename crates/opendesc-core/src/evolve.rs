//! Live interface evolution: hot relayout of a running queue onto a new
//! compiled interface, with zero packet loss and no reordering within a
//! flow (paper §4 — the descriptor interface as an *evolvable* contract,
//! renegotiated at runtime rather than frozen at driver build time).
//!
//! The unit of evolution is the *drain-and-flip*: a queue stops taking
//! new frames, drains its in-flight work under the outgoing plan, then
//! atomically swaps — device context reprogram plus host plan swap —
//! onto the incoming generation. The protocol is deliberately built
//! from the robustness machinery that already polices a faulty device:
//!
//! * **Generation-tagged epochs.** Each committed flip bumps the
//!   driver's plan generation and the device's ring generation. Old
//!   plans stay pinned in the [`PlanCache`](crate::cache::PlanCache)
//!   (`Arc` refcount = in-flight pin) until the last queue drops them,
//!   then [`evict_superseded`](crate::cache::PlanCache::evict_superseded)
//!   reclaims them — N relayouts hold ≤2 live generations per key.
//! * **Transition-window shims.** During the drain, writebacks
//!   serialized under the *old* layout are parsed by the *old* plan —
//!   the host swap happens strictly after the device ring ticks, so no
//!   completion is ever read through the wrong accessor table. Anything
//!   the device strands across the tick is re-tagged into the
//!   stale-generation fault class and discarded by sequence admission
//!   instead of being misparsed.
//! * **Health-machine interplay.** A relayout requested while the queue
//!   is `Degraded` is *parked* ([`FlipProgress::Deferred`]): a queue
//!   that just caught the device lying should not also renegotiate the
//!   contract. The request is retried at later control boundaries and
//!   commits once health recovers. `Recovering` does not defer.
//! * **Roll-forward on watchdog reset.** If the watchdog declares a
//!   stall *mid-flip*, recovery reprograms the queue onto the **new**
//!   ring generation instead of re-arming the old one — the flip can be
//!   accelerated by a crash, never wedged or rolled back.

use crate::cache::CompiledRx;
use opendesc_telemetry::MetricRegistry;
use std::sync::Arc;

/// The drain budget: polls a queue may spend draining before the flip
/// is forced (stragglers forgiven and stranded device-side). E19 gates
/// observed flip latency at this many polls.
pub const FLIP_POLL_BUDGET: u32 = 16;

/// Where a queue's relayout stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipProgress {
    /// No relayout pending.
    Idle,
    /// Parked: requested while the queue was `Degraded`; retried once
    /// health recovers.
    Deferred,
    /// Draining in-flight work under the outgoing plan.
    Draining,
    /// Committed onto this plan generation.
    Committed(u64),
}

/// Per-queue relayout counters, registered under `{scope}.relayout`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelayoutCounters {
    /// Relayouts requested (including ones later deferred).
    pub requested: u64,
    /// Requests parked because the queue was `Degraded`.
    pub deferred: u64,
    /// Flips committed (device + host on the new generation).
    pub completed: u64,
    /// Watchdog resets mid-flip that rolled the device forward to the
    /// new ring generation.
    pub rolled_forward: u64,
    /// Requests refused because the incoming artifact has no verified
    /// bytecode form; the queue stayed on its plan.
    pub refused: u64,
}

impl RelayoutCounters {
    /// Register the counters under `scope` (callers pass
    /// `…​.relayout`). Registered per queue and again under the engine
    /// scope, where additive folding produces engine totals.
    pub fn register_into(&self, reg: &mut MetricRegistry, scope: &str) {
        reg.counter(&format!("{scope}.requested"), self.requested);
        reg.counter(&format!("{scope}.deferred"), self.deferred);
        reg.counter(&format!("{scope}.completed"), self.completed);
        reg.counter(&format!("{scope}.rolled_forward"), self.rolled_forward);
        reg.counter(&format!("{scope}.refused"), self.refused);
    }
}

/// One scheduled relayout: at the end of control interval
/// `at_interval`, every queue is asked to flip onto `rx`.
#[derive(Clone)]
pub struct RelayoutRequest {
    /// Control interval (0-based) whose boundary triggers the request.
    pub at_interval: u32,
    /// The incoming compiled interface (from the
    /// [`PlanCache`](crate::cache::PlanCache), under a fresh
    /// [`begin_generation`](crate::cache::PlanCache::begin_generation)).
    pub rx: Arc<CompiledRx>,
}

/// One committed flip, as [`run_intervals`](crate::shard::ShardedEngine::run_intervals)
/// saw it.
#[derive(Debug, Clone, Copy)]
pub struct FlipRecord {
    /// Control interval at whose boundary the flip resolved.
    pub interval: u32,
    /// Queue that flipped.
    pub queue: usize,
    /// Drain polls spent between request and commit.
    pub polls: u32,
    /// The plan generation the queue landed on.
    pub generation: u64,
    /// Whether the request spent time parked (`Degraded` deferral)
    /// before committing.
    pub was_deferred: bool,
}
