#!/usr/bin/env bash
# Measure the E1–E20 records and write BENCH_e*.json.
#
#   scripts/bench.sh [eNN…] [OUTDIR]
#
# OUTDIR defaults to target/bench-current; the committed baselines live
# in the repo root, so regenerating them means naming `.` explicitly.
# What each record holds, and every band and floor `bench run` asserts
# before it writes one, is the EXPERIMENTS table in
# crates/opendesc-bench/src/lib.rs. Gate the result with
#
#   cargo run --release -q -p opendesc-bench --bin bench -- gate . OUTDIR
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release -q -p opendesc-bench --bin bench -- run "$@"
