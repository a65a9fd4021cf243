#!/usr/bin/env bash
# Run the RX datapath benches and record the perf trajectory.
#
#   scripts/bench.sh [--quick] [OUTDIR]
#
#   (default)   full criterion runs (E3, E8, E12–E14) + JSON records
#   --quick     wall-clock quick mode, emits the JSON records only
#   OUTDIR      where the BENCH_*.json records are written (default: the
#               repo root, i.e. over the committed baselines; CI's
#               perf-gate job points this at a scratch directory and
#               diffs against the committed copies)
#
# The JSON records are the machine-readable matrices:
#   BENCH_e12.json  Mpps + ns/pkt per (model, path) and the e1000e
#                   batched-vs-per-packet speedup (PR 1 acceptance).
#   BENCH_e13.json  aggregate Mpps per (model, queue count) and the
#                   e1000e 4-queue-vs-1 scaling ratio (PR 3 acceptance);
#                   the emitter asserts the >=2x floor itself.
#   BENCH_e14.json  goodput per (model, fault rate) with Full validation
#                   plus the e1000e watchdog recovery time (PR 4
#                   acceptance); the emitter asserts delivery at every
#                   rate and a <=16-poll recovery itself.
#   BENCH_e15.json  aggregate Mpps with poll-cycle telemetry on vs off
#                   on the e1000e 4-queue sharded config (PR 5
#                   acceptance); the emitter asserts the >=97% overhead
#                   budget itself.
#   BENCH_e16.json  the E12 matrix re-measured on the plan-bytecode VM
#                   under steered delivery, plus the per-model
#                   batched-vs-per-packet (floor 1.0),
#                   plan-vs-per-packet (`poll()`, a batch of one:
#                   banded, no floor) and batched-vs-E12-batched
#                   (floor 1.5) ratios (PR 6 acceptance); the emitter
#                   asserts both floors itself (the absolute one only
#                   when OPENDESC_BENCH_RELATIVE_ONLY is unset).
#   BENCH_e17.json  the full-duplex engine: aggregate forward Mpps per
#                   (model, queue count) on the sharded RX→TX path,
#                   plus the batched-vs-seed TX submission ratio (floor
#                   2.0) and the e1000e 4-queue forward scaling ratio
#                   (floor 2.0) (PR 7 acceptance); both are
#                   self-normalized, so the emitter asserts them
#                   unconditionally.
#   BENCH_e18.json  adaptive steering under skew: aggregate Mpps and
#                   per-queue occupancy for static vs adaptive RETA on
#                   e1000e at 16/64 queues under uniform and Zipf
#                   {0.9, 1.1, 1.3} traffic with elephants, plus the
#                   adaptive-vs-static Mpps ratios at alpha=1.3 (floor
#                   1.2), the p99/p50 occupancy improvement ratios
#                   (floor 1.3), and the uniform-cost guard (floor
#                   0.8) (PR 8 acceptance); all are self-normalized,
#                   so the emitter asserts them unconditionally.
#   BENCH_e19.json  live interface evolution: steady-state aggregate
#                   Mpps before and after four scheduled intent
#                   migrations under traffic on every E13 model at 4
#                   queues, plus the post/pre throughput ratios (floor
#                   0.95), worst drain-and-flip latency in polls
#                   (budget 16), and migration-phase retention (must
#                   be 1.0) (PR 9 acceptance); all are self-normalized
#                   or deterministic counts, so the emitter asserts
#                   them unconditionally.
#   BENCH_e20.json  differential conformance fuzzing: generated NICs x
#                   random intents, each cross-checked SoftNIC
#                   reference == tree oracle == bytecode VM == eBPF
#                   windows, TX deparse bytes == TxWriter, and
#                   manifest generate->parse->render byte-stability
#                   (PR 10 acceptance); layouts_negotiated (floor 200)
#                   and conformance_clean (must be 1.0) are
#                   deterministic counts, so the emitter asserts them
#                   unconditionally.
#
# Every failure propagates: set -e aborts on the first failing cargo
# invocation and the script's exit status is that failure's.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
if [ "${1:-}" = "--quick" ]; then
    quick=1
    shift
fi
outdir="${1:-.}"
mkdir -p "$outdir"

if [ "$quick" = 0 ]; then
    cargo bench -p opendesc-bench --bench e3_datapath_throughput
    cargo bench -p opendesc-bench --bench e8_batched_accessors
    cargo bench -p opendesc-bench --bench e12_rx_datapath
    cargo bench -p opendesc-bench --bench e13_sharded_rx
    cargo bench -p opendesc-bench --bench e14_fault_recovery
fi

cargo run --release -q -p opendesc-bench --bin e12_json -- "$outdir/BENCH_e12.json"
cargo run --release -q -p opendesc-bench --bin e13_json -- "$outdir/BENCH_e13.json"
cargo run --release -q -p opendesc-bench --bin e14_json -- "$outdir/BENCH_e14.json"
cargo run --release -q -p opendesc-bench --bin e15_json -- "$outdir/BENCH_e15.json"
cargo run --release -q -p opendesc-bench --bin e16_json -- "$outdir/BENCH_e16.json"
cargo run --release -q -p opendesc-bench --bin e17_json -- "$outdir/BENCH_e17.json"
cargo run --release -q -p opendesc-bench --bin e18_json -- "$outdir/BENCH_e18.json"
cargo run --release -q -p opendesc-bench --bin e19_json -- "$outdir/BENCH_e19.json"
cargo run --release -q -p opendesc-bench --bin e20_json -- "$outdir/BENCH_e20.json"
