#!/usr/bin/env bash
# A full run: every workload, untraced then traced, one record each
# appended to OUT. Usage: benchmark/run_all.sh OUT.jsonl [SEED] [SECONDS]
set -euo pipefail
out=${1:?usage: run_all.sh OUT.jsonl [SEED] [SECONDS]}
seed=${2:-11}
seconds=${3:-15}
here=$(cd "$(dirname "$0")" && pwd)
for workload in rx_hw rx_sw rx_faulty fwd negotiate fwd_2q; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out"
    done
done
