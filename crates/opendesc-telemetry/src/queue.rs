//! The per-queue instrument bundle a datapath driver embeds.
//!
//! One [`QueueTelemetry`] is owned by each queue's driver — never
//! shared, so the hot path updates it without synchronization, and the
//! sharded layer keeps each one inside the worker's `CachePadded` world.
//! It carries the poll-cycle histograms, the hardware-vs-shim field-mix
//! counters, and the queue's trace ring. Everything here is
//! allocation-free after construction; when `enabled` is false the
//! driver skips the clock reads and record calls entirely, which is the
//! telemetry-off arm of the E15 overhead experiment.

use crate::hist::Hist;
use crate::registry::MetricRegistry;
use crate::trace::{TraceKind, TraceRing};

/// Default trace-ring capacity per queue.
pub const DEFAULT_TRACE_CAP: usize = 256;

/// One poll cycle in `2^CLOCK_SAMPLE_SHIFT` is wall-clock timed; the
/// rest skip the two clock reads. Sampling keeps the `poll_ns`
/// histogram statistically honest while holding the hot-path tax to
/// the integer-only instruments (E15's ≤3% budget — on a ~1µs batch,
/// two clock reads per batch alone would eat most of it).
pub const CLOCK_SAMPLE_SHIFT: u32 = 3;

/// Per-queue hot-path instruments (see module docs).
#[derive(Debug, Clone)]
pub struct QueueTelemetry {
    enabled: bool,
    /// Poll-cycle counter driving [`QueueTelemetry::sample_clock`].
    tick: u32,
    /// Cost of one batched poll cycle, nanoseconds.
    pub poll_ns: Hist,
    /// Batch fill ratio per non-empty poll, per-mille of capacity.
    pub batch_fill_permille: Hist,
    /// Completion-ring occupancy observed at poll entry.
    pub ring_occupancy: Hist,
    /// Metadata fields served from hardware completion reads.
    pub fields_hw: u64,
    /// Metadata fields served by SoftNIC shims.
    pub fields_sw: u64,
    /// The queue's poll-cycle event ring.
    pub trace: TraceRing,
}

impl Default for QueueTelemetry {
    fn default() -> Self {
        QueueTelemetry::new(0, DEFAULT_TRACE_CAP)
    }
}

impl QueueTelemetry {
    /// A fresh, **disabled** instrument bundle: telemetry is opt-in so
    /// an unconfigured driver pays nothing on the hot path.
    pub fn new(queue: u16, trace_cap: usize) -> QueueTelemetry {
        QueueTelemetry {
            enabled: false,
            tick: 0,
            poll_ns: Hist::new(),
            batch_fill_permille: Hist::new(),
            ring_occupancy: Hist::new(),
            fields_hw: 0,
            fields_sw: 0,
            trace: TraceRing::new(queue, trace_cap),
        }
    }

    /// Whether the driver should pay for instrumentation at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn set_queue(&mut self, queue: u16) {
        self.trace.set_queue(queue);
    }

    pub fn queue(&self) -> u16 {
        self.trace.queue()
    }

    /// Advance the poll-cycle tick and say whether this cycle should be
    /// wall-clock timed (true for 1 in `2^`[`CLOCK_SAMPLE_SHIFT`]
    /// cycles). The integer-only instruments are recorded every cycle;
    /// only the `Instant` reads are sampled.
    #[inline]
    pub fn sample_clock(&mut self) -> bool {
        self.tick = self.tick.wrapping_add(1);
        self.tick & ((1 << CLOCK_SAMPLE_SHIFT) - 1) == 0
    }

    /// Record a trace event (no-op when disabled).
    #[inline]
    pub fn event(&mut self, kind: TraceKind, a: u64, b: u64) {
        if self.enabled {
            self.trace.record(kind, a, b);
        }
    }

    /// Register this queue's instruments under `scope` (e.g. `rx.q0`).
    /// Registering several queues under one scope merges them — that is
    /// the engine-wide view.
    pub fn register_into(&self, reg: &mut MetricRegistry, scope: &str) {
        reg.hist(&format!("{scope}.time.poll_ns"), &self.poll_ns);
        reg.hist(
            &format!("{scope}.batch_fill_permille"),
            &self.batch_fill_permille,
        );
        reg.hist(&format!("{scope}.ring_occupancy"), &self.ring_occupancy);
        reg.counter(&format!("{scope}.fields_hw"), self.fields_hw);
        reg.counter(&format!("{scope}.fields_sw"), self.fields_sw);
        reg.counter(&format!("{scope}.trace_recorded"), self.trace.recorded());
        reg.counter(&format!("{scope}.trace_dropped"), self.trace.dropped());
    }

    /// Reset instruments (trace ring included).
    pub fn reset(&mut self) {
        self.tick = 0;
        self.poll_ns.reset();
        self.batch_fill_permille.reset();
        self.ring_occupancy.reset();
        self.fields_hw = 0;
        self.fields_sw = 0;
        self.trace.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_queue_records_no_events() {
        let mut q = QueueTelemetry::new(2, 8);
        assert!(!q.enabled(), "telemetry must be opt-in");
        q.event(TraceKind::Doorbell, 1, 0);
        assert_eq!(q.trace.recorded(), 0);
        q.set_enabled(true);
        q.event(TraceKind::Doorbell, 1, 0);
        assert_eq!(q.trace.recorded(), 1);
        assert_eq!(q.trace.events()[0].queue, 2);
    }

    #[test]
    fn registers_under_scope_and_merges_across_queues() {
        let mut a = QueueTelemetry::new(0, 8);
        let mut b = QueueTelemetry::new(1, 8);
        a.poll_ns.record(100);
        b.poll_ns.record(200);
        a.fields_hw = 3;
        b.fields_hw = 4;
        a.fields_sw = 1;
        let mut reg = MetricRegistry::new();
        a.register_into(&mut reg, "rx.engine");
        b.register_into(&mut reg, "rx.engine");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("rx.engine.fields_hw"), 7);
        assert_eq!(snap.counter("rx.engine.fields_sw"), 1);
        match snap.get("rx.engine.time.poll_ns") {
            Some(crate::MetricValue::Hist(h)) => assert_eq!(h.count(), 2),
            other => panic!("wrong kind {other:?}"),
        }
        // Timing filtered out of the deterministic view.
        assert!(snap
            .without_timing()
            .get("rx.engine.time.poll_ns")
            .is_none());
    }
}
