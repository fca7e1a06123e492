# Developer entry points. `make ci` is what the scripts/ci.sh pipeline
# runs: vet + lint + build + tests + race-detector pass.

GO ?= go

.PHONY: build vet lint verify-kernels test test-short test-race bench bench-check bench-baseline bench-compare metrics serve ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis (internal/lint): determinism-sensitive
# map iteration, nondeterminism in the mapper, dropped errors.
lint:
	$(GO) run ./cmd/cgralint ./...

# Statically verify every kernel × config mapping the suite produces
# (the internal/verify pass matrix; ~1 min).
verify-kernels:
	$(GO) test -run TestKernelMatrixClean -count=1 ./internal/verify

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The portfolio mapper, the exp runner's prefetch pool, and their tests
# share real state across goroutines; run them under the race detector.
# Race instrumentation slows the mapping matrix ~4-5x, so the per-package
# timeout must be raised past the 10m default.
test-race:
	$(GO) vet ./...
	$(GO) test -race -timeout 45m ./...

bench:
	$(GO) test -bench . -run NONE ./...

# The end-to-end benchmark (bench/) is a separate Go module that
# `go build ./...` skips: vet and test it on its own (a few seconds).
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# Mapper/simulator performance baseline: runs the BenchmarkCoreMap /
# BenchmarkCoreMapPortfolio / BenchmarkSimRun suite and writes the
# BENCH_core.json artifact for regression diffing.
bench-baseline:
	./scripts/bench.sh

# Re-run the benchmarks and diff ns/op against the committed
# BENCH_core.json baseline without overwriting it.
bench-compare:
	./scripts/bench.sh -compare

# Instrumentation artifacts: map and simulate FIR with -metrics/-events,
# validate the counter JSONL and the span structure with cgrametrics,
# print the cgratrace phase-attribution report, and leave
# out/metrics.json (counters) + out/events.trace (Chrome trace_event
# timeline, load in Perfetto or chrome://tracing) behind.
metrics:
	mkdir -p out
	$(GO) run ./cmd/cgrasim -kernel FIR -config HET1 -flow cab \
		-metrics out/metrics.json -events out/events.trace
	$(GO) run ./cmd/cgrametrics out/metrics.json
	$(GO) run ./cmd/cgrametrics -events out/events.trace
	$(GO) run ./cmd/cgratrace out/events.trace

# Live telemetry demo: the full evaluation with /metrics, /healthz,
# /events and /debug/pprof served on :9090 while it runs (scrape with
# `go run ./cmd/cgrametrics -scrape http://127.0.0.1:9090/metrics`).
serve:
	$(GO) run ./cmd/cgrabench -serve 127.0.0.1:9090 -linger 30s

ci:
	./scripts/ci.sh
