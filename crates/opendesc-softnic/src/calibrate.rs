//! Cost-model calibration: measure what the SoftNIC shims *actually*
//! cost on this machine and re-price the semantic registry accordingly.
//!
//! The paper's §5 discussion ("Performance and programmable constraint",
//! citing performance-interface work) argues offload decisions need real
//! cost models, not guesses. Eq. 1's software term `w(s)` defaults to a
//! table calibrated on a nominal core; this module replaces it with
//! measurements: each computable semantic is timed over small and large
//! frames and fit to `base_ns + per_byte_ns · len`.

use crate::testpkt;
use crate::SoftNic;
use opendesc_ir::semantics::{Cost, SemanticRegistry};
use opendesc_ir::SemanticId;
use std::time::Instant;

/// One semantic's calibration result.
#[derive(Debug, Clone)]
pub struct CalibrationEntry {
    pub semantic: SemanticId,
    pub name: String,
    pub old: Cost,
    pub new: Cost,
}

/// The full calibration report.
#[derive(Debug, Clone, Default)]
pub struct CalibrationReport {
    pub entries: Vec<CalibrationEntry>,
    pub iters: u32,
}

impl CalibrationReport {
    /// Render as a table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "SoftNIC cost calibration ({} iterations/point)\n{:<18} {:>22} {:>22}\n",
            self.iters, "semantic", "table", "measured"
        );
        for e in &self.entries {
            out.push_str(&format!(
                "{:<18} {:>22} {:>22}\n",
                e.name,
                format!("{}", e.old),
                format!("{}", e.new)
            ));
        }
        out
    }
}

/// Measure the cost of computing `sem` over `frame`: the lowest of three
/// rounds' mean over `iters` calls (min-of-means).
fn measure_ns(soft: &mut SoftNic, name: &str, frame: &[u8], iters: u32) -> f64 {
    // Warm up (page in code, fill the flow table entry once).
    for _ in 0..16 {
        std::hint::black_box(soft.compute_by_name(name, frame));
    }
    let mut best = f64::INFINITY;
    for _round in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(soft.compute_by_name(name, frame));
        }
        let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(ns);
    }
    best
}

/// Calibrate every finite-cost semantic in `reg` against the reference
/// implementations, updating the registry in place.
pub fn calibrate(reg: &mut SemanticRegistry, iters: u32) -> CalibrationReport {
    let small = testpkt::udp4(
        [10, 0, 0, 1],
        [10, 0, 0, 2],
        1111,
        11211,
        &testpkt::kvs_get_payload("calibration:key"),
        Some(0x0064),
    );
    // Large frame: same shape, padded payload (keep the KVS prefix so
    // payload-dependent semantics stay computable).
    let mut payload = testpkt::kvs_get_payload("calibration:key");
    payload.resize(1200, 0x61);
    let large = testpkt::udp4(
        [10, 0, 0, 1],
        [10, 0, 0, 2],
        1111,
        11211,
        &payload,
        Some(0x0064),
    );

    let mut soft = SoftNic::new();
    let mut report = CalibrationReport {
        entries: Vec::new(),
        iters,
    };
    let sems: Vec<(SemanticId, String, Cost)> = reg
        .iter()
        .map(|(id, info)| (id, info.name.to_string(), info.cost))
        .collect();
    for (id, name, old) in sems {
        if old.is_infinite() {
            continue; // not software-computable; nothing to measure
        }
        // Skip semantics the probe frames cannot exercise.
        if soft.compute_by_name(&name, &small).is_none() {
            continue;
        }
        let t_small = measure_ns(&mut soft, &name, &small, iters);
        let t_large = measure_ns(&mut soft, &name, &large, iters);
        let dlen = (large.len() - small.len()) as f64;
        let per_byte_ns = ((t_large - t_small) / dlen).max(0.0);
        let base_ns = (t_small - per_byte_ns * small.len() as f64).max(0.1);
        let new = Cost::Finite {
            base_ns,
            per_byte_ns,
        };
        reg.set_cost(id, new);
        report.entries.push(CalibrationEntry {
            semantic: id,
            name,
            old,
            new,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use opendesc_ir::names;

    #[test]
    fn calibration_updates_finite_costs() {
        let mut reg = SemanticRegistry::with_builtins();
        let report = calibrate(&mut reg, 200);
        assert!(
            report.entries.len() >= 8,
            "most semantics calibrated: {}",
            report.entries.len()
        );
        for e in &report.entries {
            assert!(!e.new.is_infinite());
            assert!(e.new.eval(64) > 0.0, "{}: non-positive cost", e.name);
        }
        // Infinite-cost semantics stay infinite.
        assert!(reg.cost(reg.id(names::TIMESTAMP).unwrap()).is_infinite());
    }

    #[test]
    fn payload_priced_semantics_get_per_byte_component() {
        let mut reg = SemanticRegistry::with_builtins();
        calibrate(&mut reg, 300);
        let l4 = reg.id(names::L4_CHECKSUM).unwrap();
        let Cost::Finite { per_byte_ns, .. } = reg.cost(l4) else {
            panic!()
        };
        assert!(
            per_byte_ns > 0.0,
            "L4 checksum must scale with payload, got {per_byte_ns}"
        );
        // Flat semantics stay (nearly) flat.
        let vlan = reg.id(names::VLAN_TCI).unwrap();
        let Cost::Finite { per_byte_ns: v, .. } = reg.cost(vlan) else {
            panic!()
        };
        assert!(
            v < per_byte_ns,
            "vlan ({v}) flatter than l4 csum ({per_byte_ns})"
        );
    }

    #[test]
    fn report_renders() {
        let mut reg = SemanticRegistry::with_builtins();
        let r = calibrate(&mut reg, 50);
        let txt = r.render();
        assert!(txt.contains("rss_hash"), "{txt}");
        assert!(txt.contains("measured"), "{txt}");
    }
}
