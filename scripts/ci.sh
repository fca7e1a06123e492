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

echo "== gofmt -l ."
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt gate: these files need gofmt -w:" >&2
    echo "$unformatted" | sed 's/^/  /' >&2
    exit 1
fi

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
# image checksum. Both runs verify (-verify): the warm run has no
# mapping, so its report must show every program pass ok.
echo "== mapping-cache round-trip smoke (cgramap -cachedir -verify, MatM HOM64/cab)"
cache_dir="$(mktemp -d)"
cold_out="$(mktemp)"
warm_out="$(mktemp)"
trap 'rm -rf "$cache_dir" "$cold_out" "$warm_out"' EXIT
go run ./cmd/cgramap -kernel MatM -config HOM64 -flow cab -verify -cachedir "$cache_dir" > "$cold_out"
go run ./cmd/cgramap -kernel MatM -config HOM64 -flow cab -verify -cachedir "$cache_dir" > "$warm_out"
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
for pass in regs lsu cm branch encode pnop; do
    if ! grep -Eq "^  $pass +ok\$" "$warm_out"; then
        echo "cache gate: warm run's verifier did not report $pass ok" >&2
        sed -n '/^static verification/,$p' "$warm_out" >&2
        exit 1
    fi
done
echo "  warm run verified: regs lsu cm branch encode pnop ok"
rm -rf "$cache_dir" "$cold_out" "$warm_out"

# Live telemetry smoke: run a real (small) evaluation with -serve and
# scrape it over HTTP while it lingers. The scrape must be well-formed
# Prometheus text with at least one sample (cgrametrics -scrape
# validates line by line) and /healthz must answer exactly ok. The
# run's -events artifact then goes through cgratrace, which rejects a
# malformed span structure on load before it analyzes, so the whole
# observability pipeline — recorder, server, file artifacts, offline
# analysis — is exercised against one live process.
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
healthz="$(go run ./cmd/cgrametrics -get "http://$tele_addr/healthz")"
echo "  healthz: $healthz"
if [ "$healthz" != "ok" ]; then
    echo "telemetry smoke: /healthz answered \"$healthz\", want ok" >&2
    exit 1
fi
kill "$tele_pid" 2>/dev/null || true
tele_pid=""
echo "== telemetry artifacts (cgrametrics + cgratrace)"
go run ./cmd/cgrametrics "$tele_dir/metrics.json" > /dev/null
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
# bytes with pruning on vs off at several worker counts; the retry test
# pins the same for a cornered block's side-by-side retry attempts
# (GOMAXPROCS 1 vs 4: images, search counters, error text); and the golden
# checksum test pins the single-map path against the 140 checked-in
# cells in testdata/golden_mappings.txt (-short subset here; the full
# matrix runs with the suite below).
echo "== portfolio-pruning golden gate (winner invariance + golden checksums)"
go test -run 'TestPortfolioPruningWinnerInvariant|TestRetryAttemptsMatchSequential' ./internal/core
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
backend_metrics="$(mktemp)"
trap 'rm -f "$oracle_metrics" "$backend_metrics"' EXIT
echo "== oracle sweep (ORACLE_SWEEP_N=$sweep_n, ORACLE_METRICS on)"
ORACLE_SWEEP_N=$sweep_n ORACLE_METRICS="$oracle_metrics" \
    go test -run TestSweepClean ./internal/oracle
echo "== oracle sweep metrics (cgrametrics)"
go run ./cmd/cgrametrics "$oracle_metrics"

# Bounded cross-backend smoke: diff the exact branch-and-bound backend
# against the heuristic on a few generated graphs across every mode × CM
# config. Any disagreement (illegal mapping from either side, or a cost
# inversion) fails fast. The node budget keeps the exact search cheap;
# the full suite's TestBackendDiffSweepClean runs the wider sweep. Its
# oracle.backend_diff.* counters are validated like the sweep's above.
diff_n=6
if [ -n "$short" ]; then diff_n=3; fi
echo "== cross-backend diff smoke (ORACLE_BACKEND_DIFF_N=$diff_n, ORACLE_METRICS on)"
ORACLE_BACKEND_DIFF_N=$diff_n ORACLE_BACKEND_DIFF_BUDGET=1500 ORACLE_METRICS="$backend_metrics" \
    go test -run TestBackendDiffSweepClean ./internal/oracle
echo "== cross-backend diff metrics (cgrametrics)"
go run ./cmd/cgrametrics "$backend_metrics"

# Bounded interpreter fuzz smoke: FuzzInterp mutates CDFG text plus
# memory words and checks the parser never panics, the verifier's error
# text matches the map-based reference verifier, and every graph that
# verifies interprets exactly like the map-based reference interpreter
# (final memory, error text, every trace field). Minimizing a new
# interesting input is capped at 1s (the default is 60s), so the 10s
# smoke keeps executing inputs instead of minimizing one.
echo "== interpreter fuzz smoke (FuzzInterp, 10s)"
go test -run '^$' -fuzz '^FuzzInterp$' -fuzztime 10s -fuzzminimizetime 1s ./internal/cdfg

# Bounded engine fuzz smoke: FuzzBatchVsScalar maps mutated graphs and
# runs each through the batched engine and, lane by lane, through the
# reference interpreter (results, counters, memories, errors).
echo "== batched-engine fuzz smoke (FuzzBatchVsScalar, 10s)"
go test -run '^$' -fuzz '^FuzzBatchVsScalar$' -fuzztime 10s -fuzzminimizetime 1s ./internal/sim

# Bounded input-boundary fuzz smokes: every decoder of outside bytes —
# bitstream images, mapping-cache disk entries, .repro files and event
# files — must return an error on malformed input, never panic or hang.
# FuzzDiskImage stays out until a corrupted disk image that still
# decodes is rejected; it fails today.
for target in 'FuzzLoadImage ./internal/asm' 'FuzzDiskEntry ./internal/mapcache' \
    'FuzzParseRepro ./internal/oracle' 'FuzzReadEvents ./internal/obs'; do
    set -- $target
    echo "== boundary fuzz smoke ($1, 10s)"
    go test -run '^$' -fuzz "^$1\$" -fuzztime 10s -fuzzminimizetime 1s "$2"
done

echo "== go test $short ./..."
go test $short ./...

# Race instrumentation slows the mapping matrix ~4-5x; raise the
# per-package timeout past the 10m default.
echo "== go test -race $short ./..."
go test -race -timeout 45m $short ./...

# Alloc-aware bench gate: one iteration per benchmark compared against
# the checked-in BENCH_core.json. A single -benchtime=1x pass is useless
# for timing (hence the huge ns tolerance — it only catches order-of-
# magnitude blowups); the allocation columns are the real gate. The
# mapper keeps its arenas on a free list that no GC empties, and every
# mapper, portfolio and oracle benchmark warms them before its first
# timed iteration (warmMap in perf_bench_test.go), so one iteration
# measures about what a full run does. The tolerance covers the rows
# whose count never settles exactly: a portfolio's jobs land on its
# worker arenas in a timing-dependent order and incumbent pruning aborts
# a timing-dependent set of them (after warm-up, 20 NonSepFilter
# portfolio calls read 8.4k-10.1k allocations and 1.06-2.02 MB), and
# the failing NonSepFilter map moves by a few objects from call to call
# once warm. The regression this guards against — losing arena
# reuse (per-candidate plan, overlay and partial allocations) — is 4-6
# orders of magnitude, far past any tolerance here.
# The obs-off gate (BenchmarkCoreMapObsOff vs the same run's
# BenchmarkCoreMap) is exact: both warm the mapper's arena until every
# call allocates the same count. A runtime allocation that lands inside
# the single timed call (timer-heap growth, a goroutine descriptor) can
# still add one object to either row; over 500 steady FFT maps that
# happened once with the free-list arena and 4 times with the explicit
# arena this benchmark used before. The mapping-cache obs-off pair gets
# scripts/bench.sh's fixed 9-object allowance at one iteration.
echo "== bench gate (scripts/bench.sh -compare, 1 iteration)"
BENCH_TOLERANCE_PCT=400 \
BENCH_BYTES_TOLERANCE_PCT=400 \
BENCH_ALLOCS_TOLERANCE_PCT=${BENCH_ALLOCS_TOLERANCE_PCT:-350} \
BENCH_OBSOFF_ALLOCS_TOLERANCE_PCT=${BENCH_OBSOFF_ALLOCS_TOLERANCE_PCT:-0} \
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
