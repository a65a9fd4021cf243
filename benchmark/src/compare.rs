//! `benchmark compare A B`: do two results files agree?
//!
//! A results file holds one record per line, as `benchmark` appends
//! them. For every workload and end-to-end metric the medians of the
//! two files' untraced records are compared against the metric's bound
//! in `BENCHMARK.json`. A workload whose own runs say they cannot be
//! trusted — too much noise, or a trace that does not add up — is
//! reported as *unresolved*; the tolerance is never widened.

use crate::clock::Summary;
use opendesc_telemetry::{parse_json, Json};
use std::collections::BTreeMap;

/// A run whose wall median exceeds its low decile by more than this
/// was disturbed too much for the decile to stand. Calibrated in the
/// README: quiet single-thread runs read 1.01–1.10, and the runs found
/// 5–8 % off read 1.4 and more.
pub const NOISE_LIMIT: f64 = 1.25;
/// Leaf spans must add up to the chunks they sit in.
pub const SUM_OVER_WALL: (f64, f64) = (0.9, 1.1);

#[derive(Debug, PartialEq)]
pub enum Outcome {
    Agree,
    Differ,
    Unresolved,
}

impl Outcome {
    pub fn exit_code(&self) -> i32 {
        match self {
            Outcome::Agree => 0,
            Outcome::Differ => 1,
            Outcome::Unresolved => 2,
        }
    }
}

/// What one results file says about one workload.
#[derive(Default)]
struct Runs {
    /// Metric → values of the untraced records.
    values: BTreeMap<String, Vec<f64>>,
    /// Why the workload's numbers cannot be trusted, if so.
    distrust: Option<String>,
}

fn read(text: &str) -> Result<BTreeMap<String, Runs>, String> {
    let mut out: BTreeMap<String, Runs> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = parse_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |k: &str| rec.get(k).ok_or(format!("line {}: no `{k}`", i + 1));
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let runs = out.entry(workload).or_default();
        let metric = |name: &str| {
            rec.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        if rec.get("correct") != Some(&Json::Bool(true)) {
            runs.distrust = Some("a run failed its correctness check".into());
        }
        let noise = field("noise")?.as_f64().unwrap_or(0.0);
        if noise > NOISE_LIMIT {
            runs.distrust = Some(format!("bench.noise {noise:.2} > {NOISE_LIMIT}"));
        }
        if field("trace")?.as_f64() == Some(1.0) {
            // The engine's run loop admits no spans: 0 means not taken.
            let sum = metric("trace.sum_over_wall").unwrap_or(0.0);
            if sum != 0.0 && !(SUM_OVER_WALL.0..=SUM_OVER_WALL.1).contains(&sum) {
                runs.distrust = Some(format!("trace.sum_over_wall {sum:.3} outside 0.9–1.1"));
            }
            continue;
        }
        for (name, m) in rec
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.values.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(out)
}

fn bounds(benchmark_json: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = parse_json(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no `end_to_end` list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or("BENCHMARK.json: metric without name or bound".to_string())
        })
        .collect()
}

/// Compare two results files; returns the table and the outcome.
pub fn compare(a: &str, b: &str, benchmark_json: &str) -> Result<(String, Outcome), String> {
    let bounds = bounds(benchmark_json)?;
    let (a, b) = (read(a)?, read(b)?);
    let mut table = format!(
        "{:<10} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "B/A-1", "bound"
    );
    let (mut differ, mut unresolved, mut rows) = (false, false, 0);
    for (workload, ra) in &a {
        let Some(rb) = b.get(workload) else { continue };
        let distrust = ra.distrust.as_ref().or(rb.distrust.as_ref());
        for (metric, bound) in &bounds {
            let (Some(va), Some(vb)) = (ra.values.get(metric), rb.values.get(metric)) else {
                continue;
            };
            let (ma, mb) = (Summary::of(va).p50, Summary::of(vb).p50);
            let rel = if ma != 0.0 { mb / ma - 1.0 } else { 0.0 };
            let verdict = match distrust {
                Some(why) => {
                    unresolved = true;
                    format!("unresolved ({why})")
                }
                None if rel.abs() <= *bound => "agree".to_string(),
                None => {
                    differ = true;
                    if rel > 0.0 { "B worse" } else { "B better" }.to_string()
                }
            };
            table.push_str(&format!(
                "{workload:<10} {metric:<18} {ma:>14.4} {mb:>14.4} {:>+7.2}% {:>5.0}%  {verdict}\n",
                rel * 100.0,
                bound * 100.0
            ));
            rows += 1;
        }
    }
    if rows == 0 {
        return Err("the two files share no workload with untraced records".into());
    }
    let outcome = if differ {
        Outcome::Differ
    } else if unresolved {
        Outcome::Unresolved
    } else {
        Outcome::Agree
    };
    Ok((table, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: &str = r#"{"end_to_end": [
        {"name": "wall_cyc_per_op", "unit": "cycles/op", "better": "lower", "bound": 0.05},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}]}"#;

    fn record(workload: &str, trace: u8, noise: f64, metrics: &[(&str, f64)]) -> String {
        let m: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"x\"}}"))
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"trace\": {trace}, \"noise\": {noise}, \
             \"correct\": true, \"metrics\": {{{}}}}}\n",
            m.join(", ")
        )
    }

    fn file(wall: &[f64], noise: f64) -> String {
        wall.iter()
            .map(|w| {
                record(
                    "rx_hw",
                    0,
                    noise,
                    &[("wall_cyc_per_op", *w), ("setup_s", 0.02)],
                )
            })
            .collect()
    }

    #[test]
    fn medians_within_the_bound_agree() {
        let a = file(&[3000.0, 3010.0, 2990.0], 1.1);
        let b = file(&[3080.0, 3090.0, 9000.0], 1.1);
        let (table, outcome) = compare(&a, &b, BOUNDS).unwrap();
        assert_eq!(outcome, Outcome::Agree, "{table}");
        assert_eq!(outcome.exit_code(), 0);
        assert!(table.contains("+3.00%"), "{table}");
    }

    #[test]
    fn a_median_beyond_the_bound_differs_in_either_direction() {
        let a = file(&[3000.0], 1.1);
        for (wall, word) in [(3200.0, "B worse"), (2800.0, "B better")] {
            let (table, outcome) = compare(&a, &file(&[wall], 1.1), BOUNDS).unwrap();
            assert_eq!(outcome, Outcome::Differ);
            assert_eq!(outcome.exit_code(), 1);
            assert!(table.contains(word), "{table}");
        }
    }

    #[test]
    fn a_noisy_run_is_unresolved_not_tolerated() {
        let a = file(&[3000.0], 1.1);
        let b = file(&[3010.0], 1.4);
        let (table, outcome) = compare(&a, &b, BOUNDS).unwrap();
        assert_eq!(outcome, Outcome::Unresolved);
        assert_eq!(outcome.exit_code(), 2);
        assert!(table.contains("bench.noise 1.40"), "{table}");
    }

    #[test]
    fn a_trace_that_does_not_add_up_is_unresolved() {
        let a = file(&[3000.0], 1.1);
        let b = file(&[3000.0], 1.1) + &record("rx_hw", 1, 1.1, &[("trace.sum_over_wall", 0.7)]);
        let (table, outcome) = compare(&a, &b, BOUNDS).unwrap();
        assert_eq!(outcome, Outcome::Unresolved, "{table}");
        // 0 means the workload has no spans to add up (fwd_2q).
        let b = file(&[3000.0], 1.1) + &record("rx_hw", 1, 1.1, &[("trace.sum_over_wall", 0.0)]);
        assert_eq!(compare(&a, &b, BOUNDS).unwrap().1, Outcome::Agree);
    }

    #[test]
    fn files_without_common_ground_are_an_error() {
        let a = file(&[3000.0], 1.1);
        let b = record("fwd", 0, 1.0, &[("wall_cyc_per_op", 1.0)]);
        assert!(compare(&a, &b, BOUNDS).is_err());
        assert!(compare(&a, "not json\n", BOUNDS).is_err());
    }
}
