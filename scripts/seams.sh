#!/usr/bin/env bash
# Fails if the application-facing accessors of the RX host path stop
# inlining into the application's loop (ISSUE 15), and reports which
# product functions the poll path still reaches through a call.
#
# The host path only pays off when it compiles as one unit with the
# driver loop, and neither workspace builds with LTO (the benchmark has
# no profile at all), so that is a property of the source: a function
# called once per value or per packet from another crate carries
# `#[inline]`. This script looks at what that produced in the binary
# the benchmark measures.
#
#  * Gate: `RxBatch::value_at` and `RxBatch::frame` are small enough
#    that "inlined at every call site" is stable, so an out-of-line
#    copy of either in the benchmark binary (`nm -C`) is a failure.
#  * Report: `ParsedFrame::parse`, `SoftNic::exec_column`,
#    `SimNic::receive_slot` (the ring consume; the record is then read
#    in its slot by `DescRing::record`) and
#    `ValidatorSpec::check_values_all` are large; whether LLVM inlines
#    them moves with its size heuristics, so the calls
#    `poll_batch_into` (and `drain_batch` / `fill_batch`, when they
#    stand alone) still makes into product crates are printed and never
#    fail. A PR that re-opens a seam sees it here.
#
# How the seam list was found, and what the report repeats: `objdump
# -d` of `benchmark::packet::Packet::lap` and of
# `OpenDescDriver::poll_batch_into`, every `call` collected. Direct
# calls name their target. Calls into other crates go through the GOT
# (`call *0x…(%rip)  # <slot>`): the slot is resolved through its
# `R_X86_64_RELATIVE` relocation (`readelf -r`, addend = target
# address) and the address through `nm`.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin=benchmark/target/release/benchmark

syms=$(nm -C --defined-only "$bin")
fail=0
for leaf in 'RxBatch::value_at' 'RxBatch::frame'; do
    if grep -E " [Tt] opendesc_core::datapath::${leaf}\$" <<<"$syms"; then
        echo "seams: $leaf has an out-of-line copy in $bin" >&2
        fail=1
    fi
done

echo "product functions poll_batch_into still calls (count, target):"
{
    awk '{ a = $1; $1 = $2 = ""; sub(/^ +/, ""); print "S", a, $0 }' <<<"$syms"
    readelf -rW "$bin" | awk '$3 == "R_X86_64_RELATIVE" { print "G", $1, $4 }'
    objdump -d -C --no-show-raw-insn "$bin" | awk '
        /^[0-9a-f]+ <.*>:$/ {
            hot = ($0 ~ /OpenDescDriver::(poll_batch_into|drain_batch|fill_batch)>:$/)
            next
        }
        hot && /call/ {
            if (match($0, /# [0-9a-f]+/))
                print "I", substr($0, RSTART + 2, RLENGTH - 2)
            else if (match($0, /call[a-z]* +[0-9a-f]+ </)) {
                t = substr($0, RSTART, RLENGTH)
                sub(/call[a-z]* +/, "", t); sub(/ <$/, "", t)
                print "D", t
            }
        }'
} | awk '
    function norm(h) { sub(/^0+/, "", h); return h }
    $1 == "S" { a = norm($2); $1 = $2 = ""; sub(/^ +/, ""); sym[a] = $0; next }
    $1 == "G" { got[norm($2)] = norm($3); next }
    $1 == "D" { n[sym[norm($2)]]++ }
    $1 == "I" { n[sym[got[norm($2)]]]++ }
    END { for (s in n) if (s ~ /^opendesc_/ && s !~ /OpenDescDriver::(drain_batch|fill_batch)$/) print n[s], s }' |
    sort -k1,1nr -k2 | sed 's/^/  /'

exit $fail
