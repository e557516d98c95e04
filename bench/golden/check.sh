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
# stderr is shown only when one fails. fig08_throughput runs a second
# time with --serial and must match the same golden: its trials run on
# a thread pool, so this checks that the output does not depend on the
# thread count. hivelint's --json findings, plain and --strict, are
# diffed against hivelint.jsonl and hivelint-strict.jsonl the same
# way, and so is the stdout of the five examples/ programs (they take
# no flags).
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
examples=$(cd "$1" && pwd)/examples
hivelint=$(cd "$1" && pwd)/src/apps/hivelint
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

status=0
# run <driver> [flags...]: one --quick run of a bench driver.
run() {
    b=$1
    shift
    label=$b
    [ $# -eq 0 ] || label="$b $*"
    compare "$bench/$b" --quick "$@"
}

# example <program>: one run of an examples/ program (no flags).
example() {
    b=$1
    label=$b
    compare "$examples/$b"
}

# compare <exe> [flags...]: run it, then record its stdout as
# $b.txt or diff it against that golden.
compare() {
    if ! (cd "$work" && "$@" > "$b.txt" 2> "$b.err"); then
        cat "$work/$b.err" >&2
        echo "$label: failed" >&2
        status=1
        return
    fi
    if [ "$record" = 1 ]; then
        cp "$work/$b.txt" "$golden/$b.txt"
        echo "recorded $b"
    elif diff -u "$golden/$b.txt" "$work/$b.txt"; then
        echo "$label: matches golden"
    else
        status=1
    fi
}

# lint <golden> <exit-status> [flags...]: one hivelint --json run,
# which must exit with <exit-status> (--strict reports errors on
# purpose), recorded or diffed.
lint() {
    g=$1
    want=$2
    shift 2
    label="hivelint --json"
    [ $# -eq 0 ] || label="$label $*"
    got=0
    (cd "$work" && "$hivelint" --json "$@" > "$g" 2> "$g.err") || got=$?
    if [ "$got" != "$want" ]; then
        cat "$work/$g.err" >&2
        echo "$label: exit $got, expected $want" >&2
        status=1
        return
    fi
    if [ "$record" = 1 ]; then
        cp "$work/$g" "$golden/$g"
        echo "recorded $g"
    elif diff -u "$golden/$g" "$work/$g"; then
        echo "$label: matches golden"
    else
        status=1
    fi
}

lint hivelint.jsonl 0
lint hivelint-strict.jsonl 1 --strict

for b in fig07_burst_reduction fig08_throughput table5_fallbacks \
         fault_storm fig02_vanilla_latency fig10_slo_sweep \
         table4_slo_min_latency breakdown_gc_memory \
         table2_native_methods table1_scaling_solutions \
         cross_az_overhead ablation_optimizations; do
    run "$b"
done
for e in quickstart burst_scaling custom_webapp shadow_warmup \
         failure_recovery; do
    example "$e"
done
# Thread-count identity: never re-records, only compares.
if [ "$record" = 0 ]; then
    run fig08_throughput --serial
fi
exit $status
