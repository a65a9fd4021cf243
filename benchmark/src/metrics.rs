//! The metric names this benchmark prints — the same lists as
//! `BENCHMARK.json` (a unit test holds the two together) — and the
//! record one run produces.

use crate::clock::Summary;
use crate::json::Obj;
use std::collections::BTreeMap;

/// `(name, unit)`; lower is better for every one.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_cyc_per_op", "cycles/op"),
    ("host_cyc_per_op", "cycles/op"),
    ("setup_s", "s"),
    ("mem_mib", "MiB"),
];

/// `(name, unit, better)`. A metric that does not apply to a workload
/// reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 57] = [
    ("nicsim.steer_cyc", "cycles/op", "lower"),
    ("nicsim.deliver_cyc", "cycles/op", "lower"),
    ("nicsim.offload_cyc", "cycles/op", "lower"),
    ("nicsim.tx_drain_cyc", "cycles/op", "lower"),
    ("nicsim.boot_kcyc", "kcycles", "lower"),
    ("nicsim.allocs_per_pkt", "count", "lower"),
    ("nicsim.cmpt_bytes_per_pkt", "bytes", "lower"),
    ("nicsim.ring_consume_cyc", "cycles/op", "lower"),
    ("softnic.parse_cyc", "cycles/op", "lower"),
    ("softnic.shim_cyc.rss_hash", "cycles/op", "lower"),
    ("softnic.shim_cyc.vlan_tci", "cycles/op", "lower"),
    ("softnic.shim_cyc.pkt_len", "cycles/op", "lower"),
    ("softnic.shim_cyc.packet_type", "cycles/op", "lower"),
    ("softnic.shim_cyc.payload_offset", "cycles/op", "lower"),
    ("softnic.shim_cyc.kvs_key_hash", "cycles/op", "lower"),
    ("softnic.shim_cyc.ip_checksum", "cycles/op", "lower"),
    ("core.poll_cyc", "cycles/op", "lower"),
    ("core.poll_residual_cyc", "cycles/op", "lower"),
    ("core.fields_hw", "count", "higher"),
    ("core.fields_sw", "count", "lower"),
    ("core.batch_fill", "share", "higher"),
    ("core.empty_poll_share", "share", "lower"),
    ("core.allocs_per_pkt", "count", "lower"),
    ("robust.degraded_share", "share", "lower"),
    ("robust.discarded_share", "share", "lower"),
    ("robust.repaired_per_kpkt", "count", "lower"),
    ("robust.watchdog_resets", "count", "lower"),
    ("robust.health_transitions", "count", "lower"),
    ("core.tx_push_cyc", "cycles/op", "lower"),
    ("core.tx_submit_cyc", "cycles/op", "lower"),
    ("core.tx_doorbells_per_pkt", "count", "lower"),
    ("core.tx_stall_share", "share", "lower"),
    ("app.verdict_cyc", "cycles/op", "lower"),
    ("engine.busy_cyc", "cycles/op", "lower"),
    ("engine.imbalance", "ratio", "lower"),
    ("engine.speedup_vs_fwd", "ratio", "higher"),
    ("cache.hit_share", "share", "higher"),
    ("core.intent_kcyc", "kcycles", "lower"),
    ("p4.parse_check_kcyc", "kcycles", "lower"),
    ("ir.extract_kcyc", "kcycles", "lower"),
    ("ir.enumerate_kcyc", "kcycles", "lower"),
    ("ir.paths", "count", "lower"),
    ("core.select_synth_kcyc", "kcycles", "lower"),
    ("core.lower_verify_kcyc", "kcycles", "lower"),
    ("core.compile_tx_kcyc", "kcycles", "lower"),
    ("core.manifest_kcyc", "kcycles", "lower"),
    ("core.manifest_bytes", "bytes", "lower"),
    ("core.release_kcyc", "kcycles", "lower"),
    ("core.negotiate_kcyc", "kcycles", "lower"),
    ("telemetry.on_over_off", "ratio", "lower"),
    ("trace.sum_over_wall", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("bench.noise", "ratio", "lower"),
    ("bench.probe_ns_p50", "ns", "lower"),
    ("bench.host_ns_per_op_raw", "ns/op", "lower"),
    ("bench.wall_mops_raw", "Mops/s", "higher"),
    ("bench.samples", "count", "higher"),
];

pub const LINK: &str = "in-process simulated NIC";

/// Everything one run reports.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub secs: u64,
    pub trace: bool,
    pub threads: usize,
    /// `"run"` when the throughput was really run on parallel threads,
    /// `"single"` for the one-thread workloads. Nothing is modelled.
    pub parallel: &'static str,
    values: BTreeMap<&'static str, (f64, Option<Summary>)>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few oracle failures, or the error that ended the run.
    pub examples: Vec<String>,
    /// One probe per timed sample, nanoseconds.
    pub probes: Vec<f64>,
    /// Median over low decile of the untraced wall samples.
    pub noise: f64,
    pub spans_json: Option<String>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, secs: u64, trace: bool) -> Report {
        Report {
            workload,
            seed,
            secs,
            trace,
            threads: 1,
            parallel: "single",
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            examples: Vec::new(),
            probes: Vec::new(),
            noise: 0.0,
            spans_json: None,
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, None));
    }

    /// A timing: the value is the low decile of `samples`.
    pub fn set_p10(&mut self, name: &'static str, samples: &[f64]) -> Summary {
        let s = Summary::of(samples);
        self.values.insert(name, (s.p10, Some(s)));
        s
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.0)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The names this run must print: every end-to-end metric untraced,
    /// every per-layer metric traced.
    fn listed(&self) -> Vec<(&'static str, &'static str)> {
        if self.trace {
            PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
        } else {
            END_TO_END.to_vec()
        }
    }

    fn metrics_json(&self, rich: bool) -> String {
        let mut m = Obj::new();
        for (name, unit) in self.listed() {
            let (value, summary) = self.values.get(name).copied().unwrap_or((0.0, None));
            let mut o = Obj::new();
            o.num("value", value).str("unit", unit);
            if let (true, Some(s)) = (rich, summary) {
                o.num("p50", s.p50)
                    .num("hi_pct", s.hi_pct)
                    .num("hi", s.hi)
                    .num("n", s.n as f64);
            }
            m.raw(name, &o.finish());
        }
        m.finish()
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut o = Obj::new();
        o.bool("correct", self.correct())
            .num("attempted", self.attempted as f64)
            .num("failed", self.failed as f64)
            .raw("metrics", &self.metrics_json(false));
        o.finish()
    }

    /// The results-file record: the result line's content plus what a
    /// reader needs to judge it.
    pub fn record(&self, revision: &str, cores: usize) -> String {
        let probes = Summary::of(&self.probes);
        let mut o = Obj::new();
        o.str("workload", self.workload)
            .num("seed", self.seed as f64)
            .num("secs", self.secs as f64)
            .num("trace", self.trace as u8 as f64)
            .num("cores", cores as f64)
            .num("threads", self.threads as f64)
            .str("parallel", self.parallel)
            .str("link", LINK)
            .str("loop", "closed, one generator thread")
            .str("revision", revision)
            .num("probe_ns_p10", probes.p10)
            .num("probe_ns_p50", probes.p50)
            .num("noise", self.noise)
            .bool("correct", self.correct())
            .num("attempted", self.attempted as f64)
            .num("failed", self.failed as f64)
            .raw("metrics", &self.metrics_json(true));
        o.finish()
    }

    /// Every listed metric by name with its unit, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, unit) in self.listed() {
            let (value, summary) = self.values.get(name).copied().unwrap_or((0.0, None));
            out.push_str(&format!("{name:<34} {value:>16.4} {unit:<10}"));
            if let Some(s) = summary {
                out.push_str(&format!(
                    "  p50 {:.4}  p{:.1} {:.4}  n {}",
                    s.p50, s.hi_pct, s.hi, s.n
                ));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opendesc_telemetry::{parse_json, Json};

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_this_binary_prints() {
        let doc = parse_json(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let own: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&doc, "end_to_end"), own);
        let own: Vec<_> = PER_LAYER
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&doc, "per_layer"), own);
        for (m, (_, _, better)) in doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(m.get("better").and_then(Json::as_str), Some(better));
        }
        let workloads: Vec<_> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let gated: Vec<_> = crate::run::WORKLOADS
            .into_iter()
            .filter(|w| *w != crate::run::UNGATED)
            .collect();
        assert_eq!(workloads, gated);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_listed_metric() {
        for trace in [false, true] {
            let mut r = Report::new("rx_hw", 11, 5, trace);
            r.attempted = 16384;
            r.set_p10("wall_cyc_per_op", &[3100.5, 3000.25, 3200.0]);
            r.set("nicsim.allocs_per_pkt", 0.0);
            let line = parse_json(&r.result_line()).unwrap();
            let keys: Vec<_> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            let metrics = line.get("metrics").unwrap().as_obj().unwrap();
            let want = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(metrics.len(), want);
            for (_, m) in metrics {
                let keys: Vec<_> = m
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["value", "unit"]);
            }
        }
    }

    #[test]
    fn record_stamps_the_run_and_keeps_the_spread() {
        let mut r = Report::new("fwd_2q", 12, 5, false);
        r.threads = 2;
        r.parallel = "run";
        r.attempted = 1;
        r.failed = 1;
        r.probes = vec![1400.0, 1500.0, 1450.0];
        r.set_p10("wall_cyc_per_op", &[10.0, 11.0, 12.0]);
        let rec = parse_json(&r.record("abc1234", 2)).unwrap();
        for (key, want) in [
            ("workload", "fwd_2q"),
            ("parallel", "run"),
            ("link", LINK),
            ("revision", "abc1234"),
        ] {
            assert_eq!(rec.get(key).and_then(Json::as_str), Some(want), "{key}");
        }
        for (key, want) in [
            ("seed", 12.0),
            ("secs", 5.0),
            ("cores", 2.0),
            ("threads", 2.0),
        ] {
            assert_eq!(rec.get(key).and_then(Json::as_f64), Some(want), "{key}");
        }
        assert_eq!(rec.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(rec.get("probe_ns_p50").and_then(Json::as_f64), Some(1450.0));
        let wall = rec.get("metrics").unwrap().get("wall_cyc_per_op").unwrap();
        assert_eq!(wall.get("p50").and_then(Json::as_f64), Some(11.0));
        assert_eq!(wall.get("n").and_then(Json::as_f64), Some(3.0));
    }
}
