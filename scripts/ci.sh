#!/usr/bin/env bash
# CI pipeline: vet, lint, build, full tests, then the race-detector pass.
#
#   scripts/ci.sh          # everything (slow: the race pass re-runs the suite)
#   scripts/ci.sh -short   # short variant for quick iteration
set -euo pipefail
cd "$(dirname "$0")/.."

short="${1:-}"

echo "== go vet ./..."
go vet ./...

# Repo-specific analyzers (internal/lint): nondeterministic map
# iteration, wall-clock/unseeded randomness in the mapper and the
# simulator, dropped errors. Zero findings is the bar; fix violations,
# don't suppress them. The -json document is kept as cgralint.json so a
# failing build ships a machine-readable artifact next to the log.
echo "== cgralint -json ./... (artifact: cgralint.json)"
go run ./cmd/cgralint -json ./... | tee cgralint.json

echo "== go build ./..."
go build ./...

# The benchmark in bench/ is its own Go module (its go.mod points back at
# the repository root), so `go build ./...` above never compiles it. Vet
# and test it here, so that a change to core.Stats or any layer API it
# calls cannot break the benchmark silently.
echo "== bench module (make bench-check)"
(cd bench && go vet . && go test .)

# Dead-context strip gate: every kernel's CAB bitstream must survive
# static analysis + dead-context elimination with a verifier-clean
# result (cgramap -strip exits non-zero on a dirty re-verification),
# and the DCFilter — which carries a configuration-dead seed arm by
# construction — must actually reclaim context words. DCFilter is last
# in the loop on purpose: the (0 saved) check below reads the file the
# loop leaves behind, i.e. DCFilter's report.
echo "== dead-context strip gate (cgramap -strip, HOM64/cab)"
strip_out="$(mktemp)"
for k in FIR MatM Convolution SepFilter NonSepFilter FFT DCFilter; do
    go run ./cmd/cgramap -kernel "$k" -config HOM64 -flow cab -strip > "$strip_out"
    grep 'dead-context elimination:' "$strip_out" | sed "s/^/  $k: /"
done
if grep -q '(0 saved)' "$strip_out"; then
    rm -f "$strip_out"
    echo "strip gate: DCFilter's dead seed arm was not reclaimed" >&2
    exit 1
fi
rm -f "$strip_out"

# Mapping-cache round-trip smoke: compile the heaviest kernel twice
# through an on-disk cache directory. The first run must compute and
# store; the second run (a fresh process, so the memory tier is empty)
# must come back from the disk tier — which re-verifies the entry before
# serving it — with a byte-identical bitstream, proven by the printed
# image checksum.
echo "== mapping-cache round-trip smoke (cgramap -cachedir, MatM HOM64/cab)"
cache_dir="$(mktemp -d)"
cold_out="$(mktemp)"
warm_out="$(mktemp)"
trap 'rm -rf "$cache_dir" "$cold_out" "$warm_out"' EXIT
go run ./cmd/cgramap -kernel MatM -config HOM64 -flow cab -cachedir "$cache_dir" > "$cold_out"
go run ./cmd/cgramap -kernel MatM -config HOM64 -flow cab -cachedir "$cache_dir" > "$warm_out"
grep '^cache:' "$cold_out" "$warm_out" | sed 's/^/  /'
if ! grep -q '^cache: compute$' "$cold_out"; then
    echo "cache gate: first run did not report a cache miss (cache: compute)" >&2
    exit 1
fi
if ! grep -q '^cache: disk$' "$warm_out"; then
    echo "cache gate: second run did not hit the disk tier (cache: disk)" >&2
    exit 1
fi
cold_sha="$(grep '^image sha256 ' "$cold_out")"
warm_sha="$(grep '^image sha256 ' "$warm_out")"
if [ -z "$cold_sha" ] || [ "$cold_sha" != "$warm_sha" ]; then
    echo "cache gate: warm bitstream differs from cold compile" >&2
    echo "  cold: $cold_sha" >&2
    echo "  warm: $warm_sha" >&2
    exit 1
fi
echo "  $cold_sha (cold == warm)"
rm -rf "$cache_dir" "$cold_out" "$warm_out"

# Live telemetry smoke: run a real (small) evaluation with -serve and
# scrape it over HTTP while it lingers. The scrape must be well-formed
# Prometheus text with at least one sample (cgrametrics -scrape
# validates line by line) and /healthz must answer ok. The run's
# -events artifact then goes through the span-structure gate
# (cgrametrics -events) and the cgratrace analyzer, so the whole
# observability pipeline — recorder, ring, server, offline analysis —
# is exercised against one live process.
echo "== live telemetry smoke (cgrabench -serve, scrape + trace analysis)"
tele_dir="$(mktemp -d)"
tele_pid=""
trap 'if [ -n "$tele_pid" ]; then kill "$tele_pid" 2>/dev/null || true; fi; rm -rf "$tele_dir"' EXIT
go build -o "$tele_dir/cgrabench" ./cmd/cgrabench
"$tele_dir/cgrabench" -fig 2 -serve 127.0.0.1:0 -linger 120s \
    -metrics "$tele_dir/metrics.json" -events "$tele_dir/events.trace" \
    > "$tele_dir/stdout" 2> "$tele_dir/stderr" &
tele_pid=$!
tele_addr=""
for _ in $(seq 1 100); do
    tele_addr="$(sed -n 's#^telemetry: serving on http://##p' "$tele_dir/stderr" | head -n 1)"
    [ -n "$tele_addr" ] && break
    sleep 0.2
done
if [ -z "$tele_addr" ]; then
    echo "telemetry smoke: server address never announced on stderr" >&2
    cat "$tele_dir/stderr" >&2
    exit 1
fi
# Wait for the run itself to finish (the linger marker follows the
# artifact flush), so the scrape sees the final counters.
for _ in $(seq 1 600); do
    grep -q 'telemetry: lingering' "$tele_dir/stderr" && break
    sleep 0.2
done
if ! grep -q 'telemetry: lingering' "$tele_dir/stderr"; then
    echo "telemetry smoke: run did not reach the linger phase" >&2
    cat "$tele_dir/stderr" >&2
    exit 1
fi
go run ./cmd/cgrametrics -scrape "http://$tele_addr/metrics" > "$tele_dir/scrape.txt"
grep -c '^core_map' "$tele_dir/scrape.txt" | sed 's/^/  core_map samples: /'
go run ./cmd/cgrametrics -get "http://$tele_addr/healthz" | sed 's/^/  healthz: /'
kill "$tele_pid" 2>/dev/null || true
tele_pid=""
echo "== telemetry artifacts (cgrametrics -events + cgratrace)"
go run ./cmd/cgrametrics "$tele_dir/metrics.json" > /dev/null
go run ./cmd/cgrametrics -events "$tele_dir/events.trace" | sed 's/^/  /'
go run ./cmd/cgratrace "$tele_dir/events.trace" > "$tele_dir/report.txt"
grep -q 'phase attribution' "$tele_dir/report.txt" || {
    echo "telemetry smoke: cgratrace report misses the attribution table" >&2
    exit 1
}
rm -rf "$tele_dir"
trap - EXIT

# cgratrace golden gate: the analyzer's report and -diff output on the
# checked-in fixture traces are byte-pinned (the package tests pin the
# same bytes; this gate proves the installed CLI agrees from a cold
# start).
echo "== cgratrace golden gate (testdata fixtures)"
go run ./cmd/cgratrace cmd/cgratrace/testdata/trace_old.jsonl \
    | diff - cmd/cgratrace/testdata/golden_report.txt
go run ./cmd/cgratrace -diff cmd/cgratrace/testdata/trace_old.jsonl cmd/cgratrace/testdata/trace_new.jsonl \
    | diff - cmd/cgratrace/testdata/golden_diff.txt

# Portfolio-pruning golden gate: incumbent sharing must be invisible in
# the output. The invariance test pins the winning seed and bitstream
# bytes with pruning on vs off at several worker counts, and the golden
# checksum test pins the single-map path against the 140 checked-in
# cells in testdata/golden_mappings.txt (-short subset here; the full
# matrix runs with the suite below).
echo "== portfolio-pruning golden gate (winner invariance + golden checksums)"
go test -run TestPortfolioPruningWinnerInvariant ./internal/core
go test -short -run TestGoldenMappingChecksums .

# Bounded differential-oracle smoke: a small seeded sweep of generated
# CDFGs across every mode × CM config, run up front so a mapper or
# simulator divergence fails fast, before the full suite (which runs the
# unbounded 200-graph acceptance sweep) spends its time budget.
#
# The sweep doubles as the instrumentation smoke: ORACLE_METRICS makes
# TestSweepClean attach an obs recorder and flush its counters as a
# metrics JSONL artifact, which cgrametrics then validates line by line
# (a malformed counter file fails the build) and prints as the summary.
sweep_n=25
if [ -n "$short" ]; then sweep_n=10; fi
oracle_metrics="$(mktemp)"
trap 'rm -f "$oracle_metrics"' EXIT
echo "== oracle sweep (ORACLE_SWEEP_N=$sweep_n, ORACLE_METRICS on)"
ORACLE_SWEEP_N=$sweep_n ORACLE_METRICS="$oracle_metrics" \
    go test -run TestSweepClean ./internal/oracle
echo "== oracle sweep metrics (cgrametrics)"
go run ./cmd/cgrametrics "$oracle_metrics"

# Bounded cross-backend smoke: diff the exact branch-and-bound backend
# against the heuristic on a few generated graphs across every mode × CM
# config. Any disagreement (illegal mapping from either side, or a cost
# inversion) fails fast. The node budget keeps the exact search cheap;
# the full suite's TestBackendDiffSweepClean runs the wider sweep.
diff_n=6
if [ -n "$short" ]; then diff_n=3; fi
echo "== cross-backend diff smoke (ORACLE_BACKEND_DIFF_N=$diff_n)"
ORACLE_BACKEND_DIFF_N=$diff_n CGRA_EXACT_NODE_BUDGET=1500 \
    go test -run TestBackendDiffSweepClean ./internal/oracle

echo "== go test $short ./..."
go test $short ./...

# Race instrumentation slows the mapping matrix ~4-5x; raise the
# per-package timeout past the 10m default.
echo "== go test -race $short ./..."
go test -race -timeout 45m $short ./...

# Alloc-aware bench gate: one iteration per benchmark compared against
# the checked-in BENCH_core.json. A single -benchtime=1x pass is useless
# for timing (hence the huge ns tolerance — it only catches order-of-
# magnitude blowups); the allocation columns are the real gate. They are
# not exact at 1x either: a GC can evict the mapper's arena pool between
# iterations and the rebuild costs ~2-3x the steady-state allocs/op — and
# the portfolio benchmarks run 4 jobs per op, so a single iteration can
# rebuild up to 4 pools against a steady-state baseline that amortized
# them all (observed up to ~3x on the smallest kernel). The tolerance
# sits above that noise floor. The regression this guards against —
# losing arena reuse (per-candidate plan, overlay and partial
# allocations) — is 4-6 orders of magnitude, far past any tolerance here.
# The obs-off gate (BenchmarkCoreMapObsOff vs the same run's
# BenchmarkCoreMap) is exact on full bench runs, but at one iteration it
# rides the same arena-pool GC noise, so it gets the same widened
# tolerance here.
echo "== bench gate (scripts/bench.sh -compare, 1 iteration)"
BENCH_TOLERANCE_PCT=400 \
BENCH_BYTES_TOLERANCE_PCT=400 \
BENCH_ALLOCS_TOLERANCE_PCT=${BENCH_ALLOCS_TOLERANCE_PCT:-350} \
BENCH_OBSOFF_ALLOCS_TOLERANCE_PCT=${BENCH_OBSOFF_ALLOCS_TOLERANCE_PCT:-350} \
    scripts/bench.sh -compare -benchtime=1x

# Batch-engine throughput gate: the pre-decoded SoA engine only earns
# its complexity if batching amortizes. Checked against the recorded
# baseline (stable steady-state numbers, not the noisy 1x run above):
# at B=64 the per-input cost must be at most half the one-off sim.Run
# cost on at least one kernel.
echo "== batch throughput gate (BENCH_core.json)"
awk '
function field(line, key,   v) {
    v = line
    if (!sub(".*\"" key "\": *", "", v)) return ""
    sub(/[,}].*/, "", v)
    return v
}
/"name"/ {
    name = field($0, "name")
    gsub(/^"|"$/, "", name)
    sub(/-[0-9]+$/, "", name)
    ns[name] = field($0, "ns_per_op")
}
END {
    ok = 0; checked = 0
    for (n in ns) {
        if (n !~ /^BenchmarkSimRunBatch\/.*\/B64$/) continue
        kern = n
        sub(/^BenchmarkSimRunBatch\//, "", kern)
        sub(/\/B64$/, "", kern)
        scalar = ns["BenchmarkSimRun/" kern]
        if (scalar == "" || scalar + 0 == 0) continue
        checked++
        per = ns[n] / 64.0
        printf "  %-12s B64 %10.0f ns/input vs sim.Run %10.0f ns  (%.1fx)\n", \
            kern, per, scalar, scalar / per
        if (per <= 0.5 * scalar) ok++
    }
    if (checked == 0) { print "batch gate: no SimRunBatch/B64 entries in BENCH_core.json"; exit 1 }
    if (ok == 0) { print "batch gate: no kernel reaches 2x per-input amortization at B=64"; exit 1 }
    printf "batch gate OK: %d/%d kernels at or past 2x per-input amortization\n", ok, checked
}' BENCH_core.json

echo "CI OK"
