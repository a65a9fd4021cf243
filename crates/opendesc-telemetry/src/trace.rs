//! Fixed-capacity per-queue trace rings for poll-cycle events.
//!
//! Counters say *how many* faults a queue saw; the trace ring says *in
//! what order* — which is what you need when a fault-injection test
//! fails and the question is "did the watchdog fire before or after the
//! third duplicate?". Each queue owns one [`TraceRing`]: a preallocated
//! circular buffer of fixed-size [`TraceEvent`] records. Recording is a
//! bump-and-store (no allocation, no branching beyond the wrap), old
//! events are overwritten, and the ring is only read out when someone
//! asks — on test failure, on a fault-injection anomaly, or from an
//! operator dump.

/// What happened in a poll cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A frame was delivered toward the queue (`a` = frame bytes).
    Doorbell,
    /// A fresh completion was admitted (`a` = sequence tag).
    Writeback,
    /// A replayed completion was discarded (`a` = sequence tag).
    DiscardDuplicate,
    /// A stale-generation completion was discarded (`a` = sequence tag).
    DiscardStale,
    /// A truncated completion was detected (`a` = record length,
    /// `b` = expected length).
    Truncated,
    /// A structural check failed; the packet was re-served degraded.
    StructuralFailure,
    /// The full cross-check repaired hardware fields (`a` = fields).
    Repaired,
    /// A packet was served through all-software degraded execution.
    DegradedServe,
    /// The queue's health machine moved (`a` = from, `b` = to, as
    /// severity ranks).
    HealthTransition,
    /// The watchdog requested a ring reset (`a` = total resets so far).
    WatchdogReset,
    /// A batched poll completed (`a` = packets, `b` = ring occupancy
    /// before the drain).
    BatchPolled,
    /// A relayout request found the queue Degraded and was parked
    /// (`a` = target plan generation, `b` = health severity rank).
    RelayoutDeferred,
    /// A drain-and-flip committed: the queue now runs the new plan
    /// generation (`a` = new generation, `b` = drain polls spent).
    RelayoutCompleted,
    /// A watchdog reset fired mid-flip and rolled the device forward to
    /// the new ring generation (`a` = new generation, `b` = old-layout
    /// completions stranded and stale-tagged by the reprogram).
    RelayoutRolledForward,
    /// A relayout request was refused because the incoming artifact has
    /// no verified bytecode form (`a` = the generation it would have
    /// become); the queue keeps its plan.
    RelayoutRefused,
    /// Why the queue was just demoted to `Degraded`, recorded at the
    /// fault that did it; the poll's `HealthTransition` follows
    /// (`a` = evidence kind: 0 truncated, 1 duplicate, 2 stale tag,
    /// 3 watchdog stall, 4 failed field check, 5 repaired field;
    /// `b` = fault-rate bucket level `<< 32 |` its threshold — kinds 4
    /// and 5 demote at any level).
    HealthCause,
}

/// One fixed-size trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global order of this event within its ring (monotonic from 0).
    pub seq: u64,
    /// Queue the ring belongs to.
    pub queue: u16,
    pub kind: TraceKind,
    /// Kind-specific operands (see [`TraceKind`]).
    pub a: u64,
    pub b: u64,
}

/// A preallocated circular event buffer for one queue (see module docs).
#[derive(Debug, Clone)]
pub struct TraceRing {
    queue: u16,
    buf: Vec<TraceEvent>,
    /// A power of two, so an event's slot is a mask of `next`, not a
    /// 64-bit division.
    cap: usize,
    /// Events recorded over the ring's lifetime; `buf[next & (cap - 1)]`
    /// is the slot the next event takes.
    next: u64,
}

impl TraceRing {
    /// A ring of at least `cap` slots for queue `queue` (capacity is
    /// rounded up to a power of two, 1 at least; storage is allocated
    /// once, here).
    pub fn new(queue: u16, cap: usize) -> TraceRing {
        let cap = cap.next_power_of_two();
        TraceRing {
            queue,
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
        }
    }

    pub fn queue(&self) -> u16 {
        self.queue
    }

    pub fn set_queue(&mut self, queue: u16) {
        self.queue = queue;
        for e in &mut self.buf {
            e.queue = queue;
        }
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events recorded over the ring's lifetime (recorded, not retained).
    pub fn recorded(&self) -> u64 {
        self.next
    }

    /// Events overwritten because the ring wrapped.
    pub fn dropped(&self) -> u64 {
        self.next.saturating_sub(self.cap as u64)
    }

    /// Record one event. Zero-alloc once the ring has wrapped its
    /// preallocated storage in.
    #[inline]
    pub fn record(&mut self, kind: TraceKind, a: u64, b: u64) {
        let ev = TraceEvent {
            seq: self.next,
            queue: self.queue,
            kind,
            a,
            b,
        };
        let slot = self.next as usize & (self.cap - 1);
        if slot < self.buf.len() {
            self.buf[slot] = ev;
        } else {
            self.buf.push(ev);
        }
        self.next += 1;
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        if self.buf.len() < self.cap {
            out.extend_from_slice(&self.buf);
        } else {
            let split = self.next as usize & (self.cap - 1);
            out.extend_from_slice(&self.buf[split..]);
            out.extend_from_slice(&self.buf[..split]);
        }
        out
    }

    /// Human-readable dump (test-failure / anomaly diagnostics).
    pub fn dump(&self) -> String {
        let mut s = format!(
            "trace q{}: {} recorded, {} dropped, {} retained\n",
            self.queue,
            self.recorded(),
            self.dropped(),
            self.buf.len()
        );
        for e in self.events() {
            s.push_str(&format!(
                "  [{:>6}] q{} {:?} a={} b={}\n",
                e.seq, e.queue, e.kind, e.a, e.b
            ));
        }
        s
    }

    pub fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_and_wraps() {
        let mut r = TraceRing::new(3, 4);
        for i in 0..6u64 {
            r.record(TraceKind::Doorbell, i, 0);
        }
        assert_eq!(r.recorded(), 6);
        assert_eq!(r.dropped(), 2);
        let evs = r.events();
        assert_eq!(evs.len(), 4);
        // Oldest retained is seq 2; strictly ordered; queue attributed.
        assert_eq!(evs[0].seq, 2);
        for w in evs.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
        assert!(evs.iter().all(|e| e.queue == 3 && e.a == e.seq));
        let dump = r.dump();
        assert!(dump.contains("trace q3"));
        assert!(dump.contains("Doorbell"));
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        assert_eq!(TraceRing::new(0, 0).capacity(), 1);
        assert_eq!(TraceRing::new(0, 5).capacity(), 8);
        let mut r = TraceRing::new(0, 3);
        for i in 0..11u64 {
            r.record(TraceKind::Doorbell, i, 0);
        }
        let seqs: Vec<u64> = r.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [7, 8, 9, 10]);
        assert_eq!(r.dropped(), 7);
    }

    #[test]
    fn partial_ring_returns_everything() {
        let mut r = TraceRing::new(0, 16);
        r.record(TraceKind::WatchdogReset, 1, 0);
        r.record(TraceKind::BatchPolled, 8, 100);
        let evs = r.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, TraceKind::WatchdogReset);
        assert_eq!(evs[1].kind, TraceKind::BatchPolled);
        assert_eq!(r.dropped(), 0);
    }
}
