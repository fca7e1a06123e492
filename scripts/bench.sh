#!/usr/bin/env bash
# Performance baseline: runs the mapper/simulator benchmarks from
# perf_bench_test.go and writes BENCH_core.json so mapper-speed
# regressions show up as a diffable artifact, not an anecdote.
#
#   scripts/bench.sh             # full run, writes BENCH_core.json
#   scripts/bench.sh -compare    # re-run and diff against BENCH_core.json
#                                # without overwriting it; exits 1 when any
#                                # benchmark regresses past tolerance
#   scripts/bench.sh -benchtime=100ms   # extra args forwarded to go test
#
# Compare mode checks all three recorded metrics, each with its own
# tolerance (time is noisy; allocation counts are nearly deterministic):
#   BENCH_TOLERANCE_PCT         ns/op      (default 30)
#   BENCH_BYTES_TOLERANCE_PCT   B/op       (default 50)
#   BENCH_ALLOCS_TOLERANCE_PCT  allocs/op  (default 25)
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="BENCH_core.json"
mode="write"
if [ "${1:-}" = "-compare" ]; then
    mode="compare"
    shift
    if [ ! -f "$baseline" ]; then
        echo "bench.sh: no $baseline baseline to compare against; run scripts/bench.sh first" >&2
        exit 1
    fi
fi

raw="$(mktemp)"
cur="$(mktemp)"
trap 'rm -f "$raw" "$cur"' EXIT

pattern='BenchmarkCoreMap|BenchmarkCoreMapPortfolio|BenchmarkPortfolioPruned|BenchmarkPortfolioUnpruned|BenchmarkMapCached|BenchmarkSimRun|BenchmarkVerifyRun|BenchmarkOracleCheck|BenchmarkStaticAnalyze|BenchmarkStrip'
echo "== go test -bench '$pattern' -run NONE . $*"
go test -bench "$pattern" -benchmem -run NONE . "$@" | tee "$raw"

# Parse the standard go-bench output lines:
#   BenchmarkCoreMap/FIR-8  123  9876543 ns/op  456 B/op  7 allocs/op
# The trailing -N GOMAXPROCS suffix is stripped so the artifact compares
# across machines with different core counts.
awk '
BEGIN { print "{"; print "  \"benchmarks\": [" ; n = 0 }
/^Benchmark/ && /ns\/op/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    iters = $2; ns = $3
    bytes = "null"; allocs = "null"
    for (i = 4; i <= NF; i++) {
        if ($i == "B/op")      bytes  = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
        name, iters, ns, bytes, allocs
}
END {
    if (n) printf "\n"
    print "  ],"
    print "  \"count\": " n
    print "}"
}' "$raw" > "$cur"

count=$(grep -c '"name"' "$cur" || true)
if [ "$count" -eq 0 ]; then
    echo "bench.sh: no benchmark lines parsed" >&2
    exit 1
fi

if [ "$mode" = "write" ]; then
    cp "$cur" "$baseline"
    echo "wrote $baseline ($count benchmarks)"
    exit 0
fi

# Compare mode: join current metrics against the baseline by name. Both
# files are our own one-object-per-line JSON, so awk can parse them.
# Baselines written before the suffix-stripping change may still carry
# -N on their names; strip it from both sides when matching. A metric
# missing on either side (older "null" baselines) is skipped, not failed.
tol_ns="${BENCH_TOLERANCE_PCT:-30}"
tol_bytes="${BENCH_BYTES_TOLERANCE_PCT:-50}"
tol_allocs="${BENCH_ALLOCS_TOLERANCE_PCT:-25}"
# The obs-off gate: BenchmarkCoreMapObsOff must allocate exactly what the
# same run's BenchmarkCoreMap did (a nil recorder is free). Both warm
# the mapper's arena, which lives on a free list no GC empties, until
# every call allocates the same count, so the default 0% is exact at any
# -benchtime.
tol_obsoff="${BENCH_OBSOFF_ALLOCS_TOLERANCE_PCT:-0}"
echo
echo "== compare vs $baseline (tolerance ns +${tol_ns}%, B/op +${tol_bytes}%, allocs/op +${tol_allocs}%, obs-off allocs +${tol_obsoff}%)"
awk -v tol_ns="$tol_ns" -v tol_bytes="$tol_bytes" -v tol_allocs="$tol_allocs" -v tol_obsoff="$tol_obsoff" '
function field(line, key,   v) {
    v = line
    if (!sub(".*\"" key "\": *", "", v)) return ""
    sub(/[,}].*/, "", v)
    return v
}
# check compares one metric; base/cur of "" or "null" skip the check. A
# zero baseline with a zero current value passes; any growth from zero is
# flagged (percentages are meaningless there).
function check(name, metric, b, c, tol,   delta, mark) {
    if (b == "" || b == "null" || c == "" || c == "null") return
    if (b + 0 == 0) {
        if (c + 0 == 0) return
        printf "%-42s %14s -> %14s %s  (from zero)  REGRESSION\n", name, b, c, metric
        bad++
        return
    }
    delta = 100.0 * (c - b) / b
    mark = ""
    if (delta > tol) { mark = "  REGRESSION"; bad++ }
    printf "%-42s %14s -> %14s %s  %+7.1f%%%s\n", name, b, c, metric, delta, mark
}
/"name"/ {
    name = field($0, "name")
    gsub(/^"|"$/, "", name)
    sub(/-[0-9]+$/, "", name)
    if (FNR == NR) {
        base_ns[name]     = field($0, "ns_per_op")
        base_bytes[name]  = field($0, "bytes_per_op")
        base_allocs[name] = field($0, "allocs_per_op")
        next
    }
    # Remember the numbers of this very run: the obs-off gate below
    # compares within the run, where allocation counts are exact, not
    # against a baseline written on a machine with different GC timing.
    cur_allocs[name] = field($0, "allocs_per_op")
    # The ObsOff benchmarks pin the disabled-instrumentation hot path: a
    # nil recorder must not add a single allocation over this same run
    # of the plain BenchmarkCoreMap.
    alt = name
    if (sub(/^BenchmarkCoreMapObsOff\//, "BenchmarkCoreMap/", alt) && (alt in cur_allocs)) {
        check(name " (obs-off)", "allocs/op", cur_allocs[alt], field($0, "allocs_per_op"), tol_obsoff)
    }
    # Same gate for the mapping-cache hit path: a cache built with a nil
    # recorder must not allocate more per warm hit than the plain run. One
    # warm MatM hit allocates 992 to 1001 objects (10000 hits: 97% at 992,
    # mean excess 0.16; also with the GC off and GOMAXPROCS=1, so not a
    # sync.Pool eviction). The pair may therefore differ by 9 objects per
    # run, floor(9/N) per op: the spread of one hit at -benchtime=1x, and
    # exact from N = 10 on, where the mean excess cannot move the
    # truncated allocs/op.
    alt = name
    if (sub(/^BenchmarkMapCachedObsOff\//, "BenchmarkMapCached/", alt) && (alt in cur_allocs) && cur_allocs[alt] + 0 > 0) {
        slack = int(9 / field($0, "iterations"))
        check(name " (obs-off)", "allocs/op", cur_allocs[alt], field($0, "allocs_per_op"), 100.0 * slack / cur_allocs[alt])
    }
    if (!(name in base_ns)) {
        printf "%-42s %14s ns/op  (no baseline)\n", name, field($0, "ns_per_op")
        next
    }
    check(name, "ns/op    ", base_ns[name],     field($0, "ns_per_op"),     tol_ns)
    check(name, "B/op     ", base_bytes[name],  field($0, "bytes_per_op"),  tol_bytes)
    check(name, "allocs/op", base_allocs[name], field($0, "allocs_per_op"), tol_allocs)
}
END {
    if (bad) { printf "%d metric(s) regressed past tolerance\n", bad; exit 1 }
    print "no regressions past tolerance"
}' "$baseline" "$cur"
