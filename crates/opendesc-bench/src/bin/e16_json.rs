//! Quick-mode E16 runner: re-measures the E12 datapath matrix with
//! every path executing the lowered plan bytecode under steered
//! (hint-carrying) delivery, asserts the acceptance floors, and writes
//! the perf-trajectory record. Used by `scripts/bench.sh` and the CI
//! perf-gate job.
//!
//! Floors:
//!   * `batched_vs_per_packet_<model>` >= 1.0 on every model — always
//!     asserted (a same-run ratio; machine speed divides out).
//!     `plan_vs_per_packet_<model>` (`poll()`, a batch of one, at
//!     parity with the seed loop on the all-hardware models) is
//!     recorded and banded by `bench_gate`, not floored.
//!   * `batched_vs_e12_batched_<model>` >= 1.5 on every model — a
//!     constant-denominator ratio that tracks machine speed, so on
//!     shared runners (`OPENDESC_BENCH_RELATIVE_ONLY=1`, set by the CI
//!     perf-gate job alongside `bench_gate --relative-only`) a miss is
//!     reported but not fatal. On dedicated hardware it is asserted.
//!
//! A single attempt can be poisoned by scheduler luck, so each floor
//! check gets three attempts (the E15 precedent); a real regression
//! fails all three.
//!
//! Usage: `e16_json [OUTPUT.json]` (default `BENCH_e16.json`).

use opendesc_bench::e16;

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_e16.json".into());
    let relative_only = std::env::var("OPENDESC_BENCH_RELATIVE_ONLY").is_ok();
    let mut rows = e16::run_quick(10);
    for attempt in 1..3 {
        let same_run_ok = e16::worst_batched_vs_per_packet(&rows) >= e16::MIN_BATCHED_VS_PER_PACKET;
        let batched_ok = relative_only || e16::worst_batched_ratio(&rows) >= e16::MIN_BATCHED_RATIO;
        if same_run_ok && batched_ok {
            break;
        }
        eprintln!(
            "attempt {attempt}: worst batched/per-packet {:.4}, worst batched/E12 {:.4}; re-measuring",
            e16::worst_batched_vs_per_packet(&rows),
            e16::worst_batched_ratio(&rows)
        );
        rows = e16::run_quick(10);
    }
    println!(
        "E16: VM datapath, {} pkts/round, steered mixed UDP/VLAN traffic",
        e16::ROUND
    );
    println!(
        "{:<10} {:>12} {:>10} {:>12}",
        "model", "path", "Mpps", "ns/pkt"
    );
    for r in &rows {
        println!(
            "{:<10} {:>12} {:>10.3} {:>12.1}",
            r.model, r.path, r.mpps, r.ns_per_pkt
        );
    }
    for (m, _) in e16::E12_BATCHED_BASELINE {
        println!(
            "{m}: batched/per-packet {:.2}x (floor {:.1}), plan/per-packet {:.2}x (no floor), \
             batched/E12-batched {:.2}x (floor {:.1})",
            e16::batched_vs_per_packet(&rows, m),
            e16::MIN_BATCHED_VS_PER_PACKET,
            e16::plan_vs_per_packet(&rows, m),
            e16::batched_vs_e12(&rows, m),
            e16::MIN_BATCHED_RATIO,
        );
    }
    assert!(
        e16::worst_batched_vs_per_packet(&rows) >= e16::MIN_BATCHED_VS_PER_PACKET,
        "acceptance: the batched bytecode path must not lose to the seed per-packet \
         accessors on any model (worst ratio {:.4})",
        e16::worst_batched_vs_per_packet(&rows)
    );
    let worst_batched = e16::worst_batched_ratio(&rows);
    if worst_batched < e16::MIN_BATCHED_RATIO {
        let msg = format!(
            "batched path is {worst_batched:.2}x the committed pre-VM E12 batched \
             baseline (floor {:.1}x) — an absolute measurement; only advisory under \
             OPENDESC_BENCH_RELATIVE_ONLY",
            e16::MIN_BATCHED_RATIO
        );
        assert!(relative_only, "acceptance: {msg}");
        eprintln!("warning: {msg}");
    }
    std::fs::write(&path, e16::to_json(&rows)).expect("write bench record");
    println!("wrote {path}");
}
