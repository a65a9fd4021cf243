#!/usr/bin/env bash
# Fails if the RX datapath or the run loops fork again (ISSUE 13): the
# driver executes the verified bytecode and nothing else, through one
# admission pipeline, and the engines run through one drain loop and
# one thread scope. Checks the non-test part of each file (up to the
# first `#[cfg(test)]`), comments excluded. Also fails if the bench
# runner forks again (ISSUE 16): one binary, no mode switch, no
# run-loop twin. And fails if TX forks again (ISSUE 17): `submit_from`
# is the one place a frame becomes a descriptor and a DMA buffer, and
# `TxDriver::send` is its one-slot case. And fails if a fault can cost
# its neighbours again (ISSUE 18): hardware columns are loaded by
# `load_column` and nothing else, and every fault names its evidence.
# And fails if an experiment can run outside the table again, or a
# consumer can skip admission again (ISSUE 19): no bench targets, no
# second timing harness, no validation mode that trusts a short record.
# And fails if a transmitted frame is copied or looked up twice again
# (ISSUE 20): the host copies it once, in `TxBatch::push`; `submit_from`
# exchanges that buffer into its DMA slot; `HostMem` resolves an address
# in its ordered table, not a tree.
# And fails if a negotiation runs the front end or the lowering twice
# again (ISSUE 21): opendesc-core reaches `parse_and_check` through one
# helper, the manifest writer digests the program the artifact already
# holds, and the parser hands tokens over instead of cloning them.
# The retired names are spelled in two halves below so this file does
# not match its own search.
set -euo pipefail
cd "$(dirname "$0")/.."
src=crates/opendesc-core/src

code() { sed '/#\[cfg(test)\]/,$d' "$1" | grep -v '^\s*//' || true; }
sites() { grep -cF -- "$1" || true; }
total() { # pattern: sites over the non-test part of opendesc-core
    local n=0 f
    for f in "$src"/*.rs "$src"/codegen/*.rs; do
        n=$((n + $(code "$f" | sites "$1")))
    done
    echo "$n"
}
fail=0
expect() { # what, found, allowed
    if [ "$2" -gt "$3" ]; then
        echo "one_path: $1: $2 (at most $3)" >&2
        fail=1
    fi
}

for f in datapath shard; do
    for pat in execute_into execute_verified execute_degraded '.lowered()'; do
        expect "$f.rs mentions the tree interpreter or an optional program ($pat)" \
            "$(code $src/$f.rs | sites "$pat")" 0
    done
done
expect "receive_into_hinted( call sites in opendesc-core" "$(total 'receive_into_hinted(')" 1
expect "poll_batch_into( call sites in shard.rs" "$(code $src/shard.rs | sites 'poll_batch_into(')" 1
expect "thread::scope sites in shard.rs" "$(code $src/shard.rs | sites 'thread::scope')" 1
for pat in 'run_''stealing' 'run_adaptive_''collect' 'run_evolving_''collect' '_''impl('; do
    expect "shard.rs has a run-loop twin again ($pat)" "$(code $src/shard.rs | sites "$pat")" 0
done
expect "files in crates/opendesc-bench/src/bin" "$(ls crates/opendesc-bench/src/bin | wc -l)" 1
for pat in 'OPENDESC_''BENCH' 'relative-''only'; do
    expect "a bench mode switch is back ($pat)" \
        "$(grep -rlF -- "$pat" crates scripts .github | wc -l)" 0
done
for pat in 'alloc_tx''_buf(' 'post''_tx(' 'build''_into(' 'hints''_scratch' 'frame''_scratch'; do
    expect "opendesc-core has a second TX serializer again ($pat)" "$(total "$pat")" 0
done
for pat in 'insert_vlan_in_slice(' 'run_deparse(' 'copy_from_slice' 'host_mem.swap('; do
    n=$(code $src/tx.rs | sites "$pat")
    if [ "$n" -ne 1 ]; then
        echo "one_path: $pat call sites in tx.rs: $n (exactly 1)" >&2
        fail=1
    fi
done
expect "datapath.rs loads a hardware field per packet again (exec_load()" \
    "$(code $src/datapath.rs | sites 'exec_load(')" 0
expect "on_fault() calls in opendesc-core that name no evidence" "$(total 'on_fault()')" 0
expect "the retired E17 key is back" \
    "$(grep -rlF -- 'tx_batched_vs_''seed' crates scripts .github BENCH_e17.json | wc -l)" 0
expect "crates/opendesc-bench has bench targets again" \
    "$(ls -d crates/opendesc-bench/benches 2>/dev/null | wc -l)" 0
expect "a manifest or the lock file names the retired timing shim" \
    "$(grep -rli --include=Cargo.toml --include=Cargo.lock --exclude-dir=target 'crit''erion' . | wc -l)" 0
expect "the retired timing shim's env knob is back" \
    "$(grep -rlF -- 'CRIT''ERION_' crates scripts .github vendor | wc -l)" 0
expect "opendesc-core can skip completion admission again (ValidationMode::""Off)" \
    "$(total 'ValidationMode::''Off')" 0
expect "opendesc-core copies a frame into DMA memory again (host_mem.wr""ite()" \
    "$(total 'host_mem.wr''ite(')" 0
expect "host_mem.swap( sites in opendesc-core" "$(total 'host_mem.swap(')" 1
expect "HostMem walks a tree again (BTree""Map in hostmem.rs)" \
    "$(code crates/opendesc-nicsim/src/hostmem.rs | sites 'BTree''Map')" 0
n=$(total 'parse_and_check(')
if [ "$n" -ne 1 ]; then
    echo "one_path: parse_and_check( call sites in opendesc-core: $n (exactly 1, in check_contract)" >&2
    fail=1
fi
for f in compiler tx intent equiv cache; do
    if [ "$(code $src/$f.rs | sites 'check_contract(')" -lt 1 ]; then
        echo "one_path: $f.rs no longer goes through check_contract(" >&2
        fail=1
    fi
done
expect "codegen/manifest.rs lowers the plan a second time (lower()" \
    "$(code $src/codegen/manifest.rs | grep -v 'lowered()' | sites 'lower(')" 0
expect "the parser clones a token again" \
    "$(code crates/opendesc-p4/src/parser.rs | grep -cE '(peek(_at)?\([^)]*\)|tokens\[[^]]*\]|\bt|\btok)\.clone\(\)' || true)" 0
exit $fail
