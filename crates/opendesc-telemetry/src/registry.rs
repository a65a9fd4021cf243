//! The metric registry and its frozen, serializable snapshot.
//!
//! The registry is deliberately a *cold-side* object: hot paths update
//! plain per-worker counters and [`Hist`] cells they exclusively own
//! (the `CachePadded` discipline of the sharded engine), and components
//! register those values into a [`MetricRegistry`] only when a snapshot
//! is taken. Registration is additive — registering the same counter or
//! histogram name twice folds the values together, which is exactly the
//! per-queue → engine-wide merge — but a name registered under one type
//! stays that type: a kind mismatch is a bug in the instrumentation and
//! panics rather than silently mixing units.
//!
//! [`Snapshot`] freezes the registry into a name-sorted list with a
//! deterministic JSON form: same metrics, same values → byte-identical
//! output, which is what lets CI diff snapshots against committed
//! baselines and what the determinism tests pin down.

use crate::hist::Hist;
use crate::json::Json;
use std::collections::BTreeMap;

/// A registered metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic count (merges by addition).
    Counter(u64),
    /// Point-in-time level (merges by last-write-wins).
    Gauge(f64),
    /// Distribution (merges via [`Hist::merge`]). Boxed so the enum —
    /// which mostly holds 8-byte counters and gauges — stays small;
    /// this is a cold-side type, the indirection is never on a hot path.
    Hist(Box<Hist>),
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Hist(_) => "hist",
        }
    }
}

/// Named, typed metrics, keyed by dot-separated scope paths
/// (`rx.q0.validation.duplicates`). See module docs for the
/// registration discipline.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    entries: BTreeMap<String, MetricValue>,
}

impl MetricRegistry {
    pub fn new() -> MetricRegistry {
        MetricRegistry::default()
    }

    /// Register (or fold into) a counter.
    pub fn counter(&mut self, name: &str, v: u64) {
        match self.entries.get_mut(name) {
            None => {
                self.entries
                    .insert(name.to_string(), MetricValue::Counter(v));
            }
            Some(MetricValue::Counter(c)) => *c += v,
            Some(other) => panic!(
                "metric {name:?} already registered as {}, not counter",
                other.kind()
            ),
        }
    }

    /// Register a gauge (last write wins).
    pub fn gauge(&mut self, name: &str, v: f64) {
        match self.entries.get_mut(name) {
            None => {
                self.entries.insert(name.to_string(), MetricValue::Gauge(v));
            }
            Some(MetricValue::Gauge(g)) => *g = v,
            Some(other) => panic!(
                "metric {name:?} already registered as {}, not gauge",
                other.kind()
            ),
        }
    }

    /// Register (or merge into) a histogram.
    pub fn hist(&mut self, name: &str, h: &Hist) {
        match self.entries.get_mut(name) {
            None => {
                self.entries
                    .insert(name.to_string(), MetricValue::Hist(Box::new(h.clone())));
            }
            Some(MetricValue::Hist(mine)) => mine.merge(h),
            Some(other) => panic!(
                "metric {name:?} already registered as {}, not hist",
                other.kind()
            ),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a registered metric.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.get(name)
    }

    /// Freeze into a snapshot (name-sorted, serializable).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            entries: self
                .entries
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

/// A frozen, name-sorted view of a [`MetricRegistry`] with a
/// deterministic JSON serialization.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` sorted by name.
    entries: Vec<(String, MetricValue)>,
}

impl Snapshot {
    pub fn entries(&self) -> &[(String, MetricValue)] {
        &self.entries
    }

    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Counter value by name (0 when absent — convenient for asserts).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// The snapshot without time-derived metrics (names ending in `_ns`
    /// or containing `.time.`): the part that must be bit-identical
    /// across same-seed runs, since wall-clock measurements never are.
    pub fn without_timing(&self) -> Snapshot {
        Snapshot {
            entries: self
                .entries
                .iter()
                .filter(|(k, _)| !k.ends_with("_ns") && !k.contains(".time."))
                .cloned()
                .collect(),
        }
    }

    /// Deterministic JSON through [`Json::render`]: entries in name
    /// order, counters and gauges as numbers, histograms as summary
    /// stats plus non-empty `[bucket_lo, count]` pairs.
    pub fn to_json(&self) -> String {
        let num = |n: u64| Json::Num(n as f64);
        let value = |v: &MetricValue| match v {
            MetricValue::Counter(c) => num(*c),
            MetricValue::Gauge(g) => Json::Num(*g),
            MetricValue::Hist(h) => {
                let q = |p| num(h.quantile(p));
                let pairs = h.nonzero_buckets().into_iter();
                let buckets = pairs.map(|(lo, c)| Json::Arr(vec![num(lo), num(c)]));
                let stats = [
                    ("count", num(h.count())),
                    ("sum", num(h.sum())),
                    ("min", num(h.min())),
                    ("max", num(h.max())),
                    ("p50", q(0.50)),
                    ("p90", q(0.90)),
                    ("p99", q(0.99)),
                    ("buckets", Json::Arr(buckets.collect())),
                ];
                Json::Obj(stats.map(|(k, v)| (k.to_string(), v)).to_vec())
            }
        };
        let entries = self.entries.iter().map(|(k, v)| (k.clone(), value(v)));
        Json::Obj(entries.collect()).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_fold_and_snapshot_sorts() {
        let mut reg = MetricRegistry::new();
        reg.counter("b.two", 2);
        reg.counter("a.one", 1);
        reg.counter("b.two", 3);
        reg.gauge("c.level", 0.5);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["a.one", "b.two", "c.level"]);
        assert_eq!(snap.counter("b.two"), 5);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn hists_merge_on_reregistration() {
        let mut reg = MetricRegistry::new();
        let mut a = Hist::new();
        a.record(10);
        let mut b = Hist::new();
        b.record(1000);
        reg.hist("h", &a);
        reg.hist("h", &b);
        match reg.get("h") {
            Some(MetricValue::Hist(h)) => {
                assert_eq!(h.count(), 2);
                assert_eq!(h.max(), 1000);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "not counter")]
    fn kind_mismatch_panics() {
        let mut reg = MetricRegistry::new();
        reg.gauge("x", 1.0);
        reg.counter("x", 1);
    }

    #[test]
    fn json_is_deterministic_and_filters_timing() {
        let build = || {
            let mut reg = MetricRegistry::new();
            reg.counter("rx.packets", 7);
            reg.counter("rx.poll_ns", 12345);
            let mut h = Hist::new();
            h.record(3);
            h.record(300);
            reg.hist("rx.fill", &h);
            reg.snapshot()
        };
        let a = build();
        let b = build();
        assert_eq!(a.to_json(), b.to_json());
        let filtered = a.without_timing();
        assert!(filtered.get("rx.poll_ns").is_none());
        assert!(filtered.get("rx.packets").is_some());
        assert!(a.to_json().contains("\"rx.fill\": {\"count\": 2"));
    }
}
