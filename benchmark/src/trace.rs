//! Spans recorded from outside the product: one around every call the
//! benchmark makes into a layer.
//!
//! The timed loops are generic over [`Spans`]; [`Off`] compiles to
//! nothing, so end-to-end values always come from untraced laps.
//! [`Tracer`] keeps the spans of the lap in progress in a pre-allocated
//! buffer. When a probed region (a 256-frame chunk, one negotiation)
//! ends, [`Spans::fold`] turns its spans into core cycles with that
//! region's probe pair and adds them to per-name lap totals; the spans
//! of the first laps are kept verbatim for `trace.json`.

use crate::clock;
use crate::json::Obj;
use std::time::Instant;

/// Every span name the benchmark records, in `trace.json` spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    Chunk,
    Steer,
    Deliver,
    Poll,
    Verdict,
    TxPush,
    TxSubmit,
    TxDrain,
    Negotiation,
    NicBoot,
    Intent,
    ParseCheck,
    Extract,
    Enumerate,
    SelectSynth,
    LowerVerify,
    CompileTx,
    Manifest,
    Release,
}

pub const NAMES: [&str; 19] = [
    "chunk",
    "nicsim.steer",
    "nicsim.deliver",
    "core.poll",
    "app.verdict",
    "core.tx_push",
    "core.tx_submit",
    "nicsim.tx_drain",
    "negotiation",
    "nicsim.boot",
    "core.intent",
    "p4.parse_check",
    "ir.extract",
    "ir.enumerate",
    "core.select_synth",
    "core.lower_verify",
    "core.compile_tx",
    "core.manifest",
    "core.release",
];

const NO_PARENT: u32 = u32::MAX;
/// Laps whose spans are written out verbatim.
const KEPT_LAPS: u32 = 1;
/// Spans of one lap: two per frame and a handful per batch on the
/// largest pool, with room to spare.
const LAP_CAPACITY: usize = 1 << 16;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span within the same lap.
    pub parent: u32,
    pub lap: u32,
}

/// Per-name totals of one lap, in core cycles.
#[derive(Debug, Clone, Copy, Default)]
pub struct LapTotals {
    pub cyc: [f64; NAMES.len()],
    /// Cycles of each name not covered by its child spans.
    pub self_cyc: [f64; NAMES.len()],
}

impl LapTotals {
    pub fn get(&self, n: Name) -> f64 {
        self.cyc[n as usize]
    }

    /// Share of `n`'s cycles that its child spans account for.
    pub fn covered(&self, n: Name) -> f64 {
        1.0 - self.self_cyc[n as usize] / self.cyc[n as usize]
    }

    /// The same totals per operation.
    pub fn per(mut self, ops: f64) -> LapTotals {
        for v in self.cyc.iter_mut().chain(&mut self.self_cyc) {
            *v /= ops;
        }
        self
    }
}

pub trait Spans {
    fn open(&mut self, name: Name) -> u32;
    fn close(&mut self, id: u32);
    /// The region rooted at span `root` ended and took `probe_before` /
    /// `probe_after`: account its spans in cycles.
    fn fold(&mut self, root: u32, probe_before: u64, probe_after: u64);

    #[inline(always)]
    fn call<T>(&mut self, name: Name, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }
}

/// Tracing off: every hook is empty and inlines away.
pub struct Off;

impl Spans for Off {
    #[inline(always)]
    fn open(&mut self, _: Name) -> u32 {
        0
    }
    #[inline(always)]
    fn close(&mut self, _: u32) {}
    #[inline(always)]
    fn fold(&mut self, _: u32, _: u64, _: u64) {}
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    kept: Vec<Span>,
    lap: u32,
    totals: LapTotals,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(LAP_CAPACITY),
            stack: Vec::with_capacity(8),
            kept: Vec::new(),
            lap: 0,
            totals: LapTotals::default(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Close the lap: hand back its totals and recycle the buffer.
    pub fn end_lap(&mut self) -> LapTotals {
        assert!(self.stack.is_empty(), "lap ended with an open span");
        if self.lap < KEPT_LAPS {
            self.kept.extend_from_slice(&self.spans);
        }
        self.spans.clear();
        self.lap += 1;
        std::mem::take(&mut self.totals)
    }

    /// `trace.json`: the kept spans, one object each.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.kept.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            let mut o = Obj::new();
            o.str("name", NAMES[s.name as usize]);
            o.num("start_ns", s.start_ns as f64);
            o.num("end_ns", s.end_ns as f64);
            if s.parent == NO_PARENT {
                o.raw("parent", "null");
            } else {
                o.num("parent", s.parent as f64);
            }
            o.num("lap", s.lap as f64);
            out.push_str(&o.finish());
        }
        out.push_str("\n]");
        out
    }
}

impl Spans for Tracer {
    #[inline]
    fn open(&mut self, name: Name) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(id);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            lap: self.lap,
        });
        id
    }

    #[inline]
    fn close(&mut self, id: u32) {
        let end = self.now();
        self.spans[id as usize].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
    }

    fn fold(&mut self, root: u32, probe_before: u64, probe_after: u64) {
        let root = root as usize;
        for i in root..self.spans.len() {
            let s = self.spans[i];
            let cyc = clock::cycles(s.end_ns - s.start_ns, probe_before, probe_after);
            self.totals.cyc[s.name as usize] += cyc;
            self.totals.self_cyc[s.name as usize] += cyc;
            // Children follow their parent in the buffer, so a parent at
            // or after `root` belongs to this region.
            if s.parent != NO_PARENT && s.parent as usize >= root {
                let p = self.spans[s.parent as usize].name as usize;
                self.totals.self_cyc[p] -= cyc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        let chunk = t.open(Name::Chunk);
        t.call(Name::Steer, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.call(Name::Deliver, || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        t.close(chunk);
        // One cycle per nanosecond: probe of PROBE_CYCLES ns.
        let p = clock::PROBE_CYCLES as u64;
        t.fold(chunk, p, p);
        let tot = t.end_lap();
        let (c, s, d) = (
            tot.get(Name::Chunk),
            tot.get(Name::Steer),
            tot.get(Name::Deliver),
        );
        assert!(s >= 2e6 && d >= 3e6 && c >= s + d);
        let self_chunk = tot.self_cyc[Name::Chunk as usize];
        assert!((self_chunk - (c - s - d)).abs() < 1.0);
        assert_eq!(tot.self_cyc[Name::Steer as usize], s);
        assert!((tot.covered(Name::Chunk) - (s + d) / c).abs() < 1e-9);
        assert!((tot.per(2.0).get(Name::Steer) - s / 2.0).abs() < 1e-9);
    }

    #[test]
    fn kept_spans_carry_parent_and_lap_and_later_laps_are_dropped() {
        let mut t = Tracer::new();
        for _ in 0..3 {
            let chunk = t.open(Name::Chunk);
            t.call(Name::Poll, || ());
            t.close(chunk);
            t.end_lap();
        }
        let parsed = opendesc_telemetry::parse_json(&t.spans_json()).expect("valid JSON");
        let spans = parsed.as_arr().unwrap();
        assert_eq!(spans.len(), 2, "only the first lap is kept");
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("chunk"));
        assert_eq!(spans[1].get("name").unwrap().as_str(), Some("core.poll"));
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[1].get("lap").unwrap().as_f64(), Some(0.0));
        let (s, e) = (
            spans[1].get("start_ns").unwrap().as_f64().unwrap(),
            spans[1].get("end_ns").unwrap().as_f64().unwrap(),
        );
        assert!(e >= s);
    }
}
