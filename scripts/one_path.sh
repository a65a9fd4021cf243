#!/usr/bin/env bash
# Holds what neither the crate graph, visibility nor the compiler can:
# how many places in the product do one job. Each rule counts call
# sites of a name that compiles today, over the non-test part of a file
# (up to its first `#[cfg(test)]`), comments excluded.
#
#  * The oracles stay out of the product: `opendesc-reference` is in no
#    normal dependency tree of the root package (Cargo itself refuses
#    the cycle for core, nicsim and softnic).
#  * One RX path: every frame the device receives is written into its
#    completion-ring slot, consumed by `receive_slot` (the one non-test
#    `cq.consume_pos(` in opendesc-nicsim), admitted by
#    `poll_batch_into` and read by the verified program. No second host
#    driver (`HookDriver`), no second delivery mode (`rx_pool`,
#    `enable_rx_buffers`) and no per-packet accessor interpreter
#    (`read_packet(`, which lives in `opendesc-reference`) is named in
#    opendesc-core, opendesc-nicsim or `src/`.
#  * One engine: one admission pipeline, one poller, one pump (one
#    `feed` site), one thread scope that every round takes (no
#    `if !parallel` in-order variant), one coordinator (one `snapshot`)
#    with three loops (`run`, `run_collect`, and `run_intervals`, the one
#    in-order control loop every measured figure comes from — no
#    `run_sequential`, `run_adaptive`, `run_evolving` or
#    `drain_collect_parallel`, and one `Control` instead of
#    `AdaptiveConfig`/`EvolveConfig`, named anywhere);
#    one consume of the completion ring (`receive_slot`), which reads
#    each record where the device wrote it: the copying
#    `receive_into_hinted` has no caller in opendesc-core, and
#    opendesc-nicsim keeps no queue beside the ring (no `VecDeque`: a
#    slot's frame and hint sit in arrays indexed like the ring's slots);
#    the datapath and the engine take the program `attach` checked,
#    never an optional one. One software executor: every disposition
#    runs its stream a column at a time, so no per-packet RX runner
#    (`run_trusted`, `run_verified`, `run_degraded`, `exec_shim`) is
#    named anywhere, the suites included.
#  * Bench: one runner binary.
#  * TX: a frame is copied once, by `TxBatch::push`, fixed up, deparsed
#    and exchanged into its DMA slot in one place each, and never
#    written into DMA memory (`HostMem` has no `write`); `HostMem` resolves an address by
#    arithmetic (its index is in the address), never by a search.
#  * Negotiation: one call into the front end, reached through
#    `check_contract` everywhere; the manifest digests the program the
#    artifact already holds; the parser moves tokens.
#  * Device: one executor, the enumerated layout table. No execution
#    mode, the contract interpreter is called only inside
#    `opendesc-reference`, and the device turns a context into a layout
#    in one place (`select_layout`), once per direction.
#  * Front end: one interner. The AST names things by symbol and holds
#    its expressions in one arena (no `Box<Expr>`), the builtin
#    semantics are a static table (no `HashMap` in semantics.rs), and
#    no walker needs a bigger stack than a thread's default (no
#    `stack_size(`).
#  * Layout IR: names are shared. A context field, slot name, source or
#    state name is made once per contract and cloned as a reference
#    (no `Vec<String>` in pred.rs, path.rs, txpath.rs; no `String`
#    field in path.rs).
#  * Front end: the contract is read once. The lexer interns, so the
#    parser holds no map (no `HashMap` in parser.rs); a token borrows
#    nothing (no `Cow<` in token.rs); annotations live in the program's
#    two arenas, not in a vector per owner (no `Vec<Annotation>` or
#    `Vec<AnnArg>` in ast.rs).
#  * Back end: the proof walks in place. The verifier steps one state
#    along a path and stacks only the taken arms of its branches (no
#    `VecDeque` in verifier.rs).
#  * One text format for contracts: the manifest is JSON, read by
#    `parse_json` (one call in manifest.rs) and a schema walk over the
#    value; the TOML reader and its writer helpers are gone (none of
#    their names is left in crates/ src/ tests/ examples/).
#  * One JSON writer and reader: bench records and metric snapshots are
#    built as `Json` values and rendered by `Json::render`, so no
#    escaped quote (`\"`) appears in the non-test code of opendesc-bench,
#    nor of opendesc-telemetry outside json.rs. The manifest streams its
#    fixed schema in `Json::render`'s layout through json.rs's `quote`,
#    `json_key!` and number writers, so manifest.rs has no `\"`, no
#    `fn escape` and no `fn push_dec` of its own.
#  * A product that can only shrink: each product crate's non-test
#    lines (comments and blank lines excluded) are pinned. A change that
#    lands under a pin lowers it; one that raises a pin says why in
#    CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."
src=crates/opendesc-core/src
sim=crates/opendesc-nicsim/src

code() { sed '/#\[cfg(test)\]/,$d' "$1" | grep -v '^\s*//' || true; }
sites() { grep -cF -- "$1" || true; }
total() { # pattern: sites over the non-test part of opendesc-core
    local n=0 f
    for f in "$src"/*.rs "$src"/codegen/*.rs; do
        n=$((n + $(code "$f" | sites "$1")))
    done
    echo "$n"
}
sim_total() { # pattern: sites over the non-test part of opendesc-nicsim
    local n=0 f
    for f in "$sim"/*.rs; do
        n=$((n + $(code "$f" | sites "$1")))
    done
    echo "$n"
}
anywhere() { # pattern, grep options...: lines in crates/ src/ tests/ examples/
    local pat=$1
    shift
    { grep -rF "$@" -- "$pat" crates src tests examples || true; } | wc -l
}
fail=0
expect() { # what, found, wanted
    if [ "$2" -ne "$3" ]; then
        echo "one_path: $1: $2 (exactly $3)" >&2
        fail=1
    fi
}

tree=$(cargo tree --offline -e normal -p opendesc)
expect "opendesc-reference in the product's dependency tree" \
    "$(sites opendesc-reference <<<"$tree")" 0
for f in datapath shard; do
    expect "$f.rs takes an optional program (.lowered())" "$(code $src/$f.rs | sites '.lowered()')" 0
done
for pat in 'receive_slot(' 'host_mem.swap(' 'parse_and_check('; do
    expect "$pat call sites in opendesc-core" "$(total "$pat")" 1
done
expect "receive_into_hinted( call sites in opendesc-core" "$(total 'receive_into_hinted(')" 0
expect "VecDeque in opendesc-nicsim" "$(sim_total 'VecDeque')" 0
expect "cq.consume_pos( call sites in opendesc-nicsim" "$(sim_total 'cq.consume_pos(')" 1
for pat in 'HookDriver' 'rx_pool' 'enable_rx_buffers' 'read_packet('; do
    expect "$pat in opendesc-core, opendesc-nicsim and src/" \
        "$({ grep -rF -- "$pat" crates/opendesc-core crates/opendesc-nicsim src || true; } | wc -l)" 0
done
for pat in 'poll_batch_into(' 'thread::scope' '.feed(' 'fn snapshot('; do
    expect "$pat sites in shard.rs" "$(code $src/shard.rs | sites "$pat")" 1
done
expect "if !parallel in shard.rs" "$(code $src/shard.rs | sites 'if !parallel')" 0
expect "pub fn run loops in shard.rs" "$(code $src/shard.rs | sites 'pub fn run')" 3
for pat in 'run_sequential' 'run_adaptive' 'run_evolving' 'drain_collect_parallel' \
    'AdaptiveConfig' 'EvolveConfig'; do
    expect "$pat in crates/ src/ tests/ examples/" "$(anywhere "$pat")" 0
done
expect "files in crates/opendesc-bench/src/bin" "$(ls crates/opendesc-bench/src/bin | wc -l)" 1
for pat in 'insert_vlan_in_slice(' 'run_deparse(' 'copy_from_slice'; do
    expect "$pat call sites in tx.rs" "$(code $src/tx.rs | sites "$pat")" 1
done
expect "HostMem writes into DMA memory (fn write( in hostmem.rs)" "$(code $sim/hostmem.rs | sites 'fn write(')" 0
for pat in 'partition_point(' 'binary_search' 'BTreeMap'; do
    expect "HostMem searches for an address ($pat in hostmem.rs)" \
        "$(code $sim/hostmem.rs | sites "$pat")" 0
done
for f in compiler tx intent equiv cache; do
    if [ "$(code $src/$f.rs | sites 'check_contract(')" -lt 1 ]; then
        echo "one_path: $f.rs no longer goes through check_contract(" >&2
        fail=1
    fi
done
expect "codegen/manifest.rs lowers the plan a second time (lower()" \
    "$(code $src/codegen/manifest.rs | grep -v 'lowered()' | sites 'lower(')" 0
expect "the parser clones a token" \
    "$(code crates/opendesc-p4/src/parser.rs | grep -cE '(peek(_at)?\([^)]*\)|tokens\[[^]]*\]|\bt|\btok)\.clone\(\)' || true)" 0
for pat in 'run_trusted' 'run_verified' 'run_degraded' 'exec_shim'; do
    expect "per-packet RX runner $pat in crates/ src/ tests/ examples/" "$(anywhere "$pat")" 0
done
for pat in 'WritebackMode' 'set_mode('; do
    expect "$pat in crates/ src/ tests/ examples/" "$(anywhere "$pat")" 0
done
for pat in 'run_deparser(' 'run_desc_parser('; do
    expect "$pat outside crates/opendesc-reference" \
        "$(anywhere "$pat" --exclude-dir=opendesc-reference)" 0
done
expect "Box<Expr> in opendesc-p4's ast.rs" \
    "$(code crates/opendesc-p4/src/ast.rs | sites 'Box<Expr>')" 0
expect "HashMap in opendesc-ir's semantics.rs" \
    "$(code crates/opendesc-ir/src/semantics.rs | sites 'HashMap')" 0
expect "stack_size( in crates/ src/ tests/ examples/" "$(anywhere 'stack_size(')" 0
expect ".eval( guard-resolution sites in opendesc-nicsim" "$(sim_total '.eval(')" 1
expect "select_layout( call sites in opendesc-nicsim (RX, TX)" "$(sim_total 'select_layout(')" 2
# Layout IR: names are shared
ir=crates/opendesc-ir/src
expect "Vec<String> in opendesc-ir's pred.rs, path.rs, txpath.rs" \
    "$(cat <(code $ir/pred.rs) <(code $ir/path.rs) <(code $ir/txpath.rs) | sites 'Vec<String>')" 0
expect "String fields in opendesc-ir's path.rs (: String,)" "$(code $ir/path.rs | sites ': String,')" 0
# Front end: the contract is read once
p4=crates/opendesc-p4/src
expect "HashMap in opendesc-p4's parser.rs" "$(code $p4/parser.rs | sites 'HashMap')" 0
expect "Cow< in opendesc-p4's token.rs" "$(code $p4/token.rs | sites 'Cow<')" 0
expect "Vec<Annotation> + Vec<AnnArg> in opendesc-p4's ast.rs" \
    "$(code $p4/ast.rs | grep -cE 'Vec<(Annotation|AnnArg)>' || true)" 0
# Back end: the proof walks in place
expect "VecDeque in opendesc-ebpf's verifier.rs" \
    "$(code crates/opendesc-ebpf/src/verifier.rs | sites 'VecDeque')" 0
# One text format for contracts
for pat in 'split_eq' 'parse_quoted' 'is_bare_key' 'int_as' 'unescape' 'quoted_line' \
    'int_line' 'hex_line' 'fn escape'; do
    expect "deleted manifest reader name $pat in crates/ src/ tests/ examples/" \
        "$(anywhere "$pat" -w)" 0
done
for pat in 'Parser' 'Fields' 'Section' 'Value'; do # names other crates use too
    expect "deleted manifest reader name $pat in codegen/manifest.rs" \
        "$(grep -cw -- "$pat" $src/codegen/manifest.rs || true)" 0
done
expect "parse_json( in codegen/manifest.rs" "$(code $src/codegen/manifest.rs | sites 'parse_json(')" 1
for pat in '\"' 'fn escape' 'fn push_dec'; do
    expect "$pat in codegen/manifest.rs" "$(code $src/codegen/manifest.rs | sites "$pat")" 0
done
# One JSON writer
quotes=0
for f in $(find crates/opendesc-bench/src crates/opendesc-telemetry/src -name '*.rs' ! -name json.rs); do
    quotes=$((quotes + $(code "$f" | sites '\"')))
done
expect 'escaped quotes (\") in opendesc-bench, and opendesc-telemetry outside json.rs' "$quotes" 0
# A product that can only shrink
lines() { # crate: non-test, non-comment, non-blank lines under its src/
    local n=0 f
    while IFS= read -r f; do
        n=$((n + $(code "$f" | grep -cv '^\s*$' || true)))
    done < <(find "crates/$1/src" -name '*.rs')
    echo "$n"
}
pin() { # crate, pinned line count
    local n
    n=$(lines "$1")
    if [ "$n" -gt "$2" ]; then
        echo "one_path: $1 grew to $n non-test lines (pinned at $2): raise the pin here and say why in CHANGES.md" >&2
        fail=1
    elif [ "$n" -lt "$2" ]; then
        echo "one_path: $1 shrank to $n non-test lines (pinned at $2): lower the pin here" >&2
        fail=1
    fi
}
pin opendesc-core 5005
pin opendesc-ir 1983
pin opendesc-nicsim 2373
pin opendesc-softnic 954
pin opendesc-p4 4122
pin opendesc-ebpf 1219
pin opendesc-telemetry 806
exit $fail
