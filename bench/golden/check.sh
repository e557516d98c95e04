#!/bin/sh
# Golden outputs: rerun the drivers whose --quick stdout is committed
# here and diff it against <driver>.txt. With --record, overwrite the
# goldens instead (a change to simulated output re-records them and
# says why in CHANGES.md).
#
#   bench/golden/check.sh [--record] <build-dir>
#
# The drivers run in a temporary directory, so files they write there
# (fault_storm's BENCH_faults.json) do not touch the checkout. Their
# stderr is shown only when one fails.
set -eu

record=0
if [ "${1:-}" = "--record" ]; then
    record=1
    shift
fi
if [ $# -ne 1 ]; then
    echo "usage: $0 [--record] <build-dir>" >&2
    exit 2
fi

golden=$(cd "$(dirname "$0")" && pwd)
bench=$(cd "$1" && pwd)/bench
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

status=0
for b in fig07_burst_reduction fig08_throughput table5_fallbacks \
         fault_storm fig02_vanilla_latency fig10_slo_sweep \
         table4_slo_min_latency breakdown_gc_memory \
         table2_native_methods; do
    if ! (cd "$work" && "$bench/$b" --quick > "$b.txt" 2> "$b.err"); then
        cat "$work/$b.err" >&2
        echo "$b: failed" >&2
        status=1
        continue
    fi
    if [ "$record" = 1 ]; then
        cp "$work/$b.txt" "$golden/$b.txt"
        echo "recorded $b"
    elif diff -u "$golden/$b.txt" "$work/$b.txt"; then
        echo "$b: matches golden"
    else
        status=1
    fi
done
exit $status
