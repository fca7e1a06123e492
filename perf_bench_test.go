package repro

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/mapcache"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/static"
	"repro/internal/verify"
)

// Performance-baseline microbenchmarks for the expensive pipeline layers:
// mapping, portfolio mapping, simulation, static verification, and the
// end-to-end differential oracle. scripts/bench.sh runs these and records
// the numbers in BENCH_core.json so a mapper change that regresses
// throughput or allocation volume shows up as a diff.

func perfGrid() *arch.Grid { return arch.MustGrid(arch.HOM64) }

// warm runs one untimed operation before the measured loop so arenas and
// decode caches are primed. This keeps -benchtime=1x — the CI
// bench gate — comparable to the steady-state numbers in BENCH_core.json
// instead of measuring one-time warm-up allocation.
func warm(b *testing.B, op func() error) {
	b.Helper()
	if err := op(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
}

// A fresh arena keeps growing its recycled partials for dozens of Map
// calls before every partial owns its largest slices (MatM, CAB on HOM64:
// 33694 allocations on the first call, 2989 on the second, 1238 on the
// 72nd and 1224 from the 73rd on). warmMap therefore runs op untimed until
// mapSteadyCalls calls in a row allocate the same number of objects, at
// most maxCalls calls. From then on every call allocates the same count,
// so allocs/op no longer depends on b.N and the obs-off gate can compare
// two benchmarks at different iteration counts exactly. The longest run of
// equal counts before the final level is 6 calls (Convolution).
//
// Rows that map on one goroutine settle within mapWarmCap calls. The
// count of a portfolio row never settles exactly: its jobs land on the
// worker arenas in a timing-dependent order and incumbent pruning aborts
// a timing-dependent set of them. Nor does the failing Map of
// BenchmarkCoreMapNoMapping, though it levels off: NonSepFilter, CAB on
// HET2, allocates 3399 objects on the 40th call and 3392 on the 60th,
// then moves between 3388 and 3393 from call to call through the 255th
// (its retry worker goroutine now and then costs the runtime a new
// goroutine descriptor). Those rows warm for noisyWarmCalls calls, past
// the steep part of the curve, so -benchtime=1x stays comparable to full
// runs.
const (
	mapSteadyCalls = 10
	mapWarmCap     = 300
	noisyWarmCalls = 40
)

func warmMap(b *testing.B, maxCalls int, op func() error) {
	b.Helper()
	var ms runtime.MemStats
	var last uint64
	for calls, same := 0, 0; same < mapSteadyCalls && calls < maxCalls; calls++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if err := op(); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if n := ms.Mallocs - before; n == last {
			same++
		} else {
			last, same = n, 1
		}
	}
	b.ResetTimer()
}

func BenchmarkCoreMap(b *testing.B) { benchCoreMap(b, nil) }

var warmKernelsOnce sync.Once

// benchCoreMap maps every kernel under CAB on HOM64, one sub-benchmark
// per kernel. Every Map takes its arena off the mapper's free list and
// puts it back, so sequential calls keep reusing the same arena, and no
// GC can empty the list. That arena is shared by every kernel, so how
// far one kernel's count falls depends on which kernels grew the arena
// before it (Convolution settled at 1503 in BenchmarkCoreMap and at 1502
// in BenchmarkCoreMapObsOff, which ran after every kernel). The first
// call in a process therefore warms the arena on every kernel, two
// passes over all of them; from then on each kernel settles on the same
// count in every benchmark. recorder, when set, makes each
// sub-benchmark's recorder.
func benchCoreMap(b *testing.B, recorder func() *obs.Recorder) {
	warmKernelsOnce.Do(func() {
		opt := core.DefaultOptions(core.FlowCAB)
		for range 2 {
			for _, k := range kernels.All() {
				g := k.Build()
				warmMap(b, mapWarmCap, func() error { _, err := core.Map(g, perfGrid(), opt); return err })
			}
		}
	})
	for _, k := range kernels.All() {
		g := k.Build()
		b.Run(k.Name, func(b *testing.B) {
			opt := core.DefaultOptions(core.FlowCAB)
			if recorder != nil {
				opt.Obs = recorder()
			}
			b.ReportAllocs()
			warmMap(b, mapWarmCap, func() error { _, err := core.Map(g, perfGrid(), opt); return err })
			for i := 0; i < b.N; i++ {
				if _, err := core.Map(g, perfGrid(), opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoreMapNoMapping measures the failing path: NonSepFilter
// under CAB on HET2 exhausts every block retry before reporting no
// mapping, which makes it a third of each paper-cold benchmark pass. It
// fails if the cell ever maps. Its retry attempts run side by side, on
// the Map's arena and a child arena. Every failing attempt returns its
// beam to the arena, and the failure texts are built without fmt, whose
// printer pool a GC empties; the count levels off but never settles
// exactly (see warmMap).
func BenchmarkCoreMapNoMapping(b *testing.B) {
	k, err := kernels.ByName("NonSepFilter")
	if err != nil {
		b.Fatal(err)
	}
	g := k.Build()
	grid := arch.MustGrid(arch.HET2)
	b.Run(k.Name+"/HET2", func(b *testing.B) {
		opt := core.DefaultOptions(core.FlowCAB)
		op := func() error {
			if _, err := core.Map(g, grid, opt); err == nil {
				return fmt.Errorf("%s maps under CAB on HET2; the benchmark measures the failing path", k.Name)
			}
			return nil
		}
		b.ReportAllocs()
		warmMap(b, noisyWarmCalls, op)
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCoreMapRetry measures a block that maps only on a retry:
// under CAB on HOM32, MatM's jloop block fails four attempts and maps on
// the fifth. A sixth attempt may start beside the fifth and be abandoned
// when the fifth succeeds; how far it gets depends on scheduling, so
// allocs/op is not exact here.
func BenchmarkCoreMapRetry(b *testing.B) {
	k, err := kernels.ByName("MatM")
	if err != nil {
		b.Fatal(err)
	}
	g := k.Build()
	grid := arch.MustGrid(arch.HOM32)
	b.Run(k.Name+"/HOM32", func(b *testing.B) {
		opt := core.DefaultOptions(core.FlowCAB)
		op := func() error { _, err := core.Map(g, grid, opt); return err }
		b.ReportAllocs()
		warm(b, op)
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCoreMapPortfolio measures the production portfolio path —
// incumbent-sharing pruning on, as every caller gets it. Workers is
// pinned so the recorded numbers compare across machines with different
// core counts, and so the Pruned/Unpruned pair below is an apples-to-
// apples read of what pruning buys at the same parallelism.
func BenchmarkCoreMapPortfolio(b *testing.B) {
	for _, k := range kernels.All() {
		k := k
		g := k.Build()
		b.Run(k.Name, func(b *testing.B) {
			opt := core.DefaultOptions(core.FlowCAB)
			popt := core.PortfolioOptions{NumSeeds: 4, Workers: 4}
			b.ReportAllocs()
			warmMap(b, noisyWarmCalls, func() error {
				_, err := core.MapPortfolio(context.Background(), g, perfGrid(), opt, popt)
				return err
			})
			for i := 0; i < b.N; i++ {
				if _, err := core.MapPortfolio(context.Background(), g, perfGrid(), opt, popt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSimRun(b *testing.B) {
	for _, k := range kernels.All() {
		k := k
		prog := benchProgram(b, k)
		b.Run(k.Name, func(b *testing.B) {
			b.ReportAllocs()
			warm(b, func() error {
				s, err := sim.New(prog)
				if err != nil {
					return err
				}
				_, err = s.Run(k.Init())
				return err
			})
			for i := 0; i < b.N; i++ {
				s, err := sim.New(prog)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(k.Init()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchProgram maps and assembles one kernel for the simulator
// benchmarks, failing the benchmark on any pipeline error.
func benchProgram(b *testing.B, k kernels.Kernel) *asm.Program {
	b.Helper()
	m, err := core.Map(k.Build(), perfGrid(), core.DefaultOptions(core.FlowCAB))
	if err != nil {
		b.Fatalf("%s: map: %v", k.Name, err)
	}
	prog, err := asm.Assemble(m)
	if err != nil {
		b.Fatalf("%s: assemble: %v", k.Name, err)
	}
	return prog
}

// BenchmarkSimRunBatch measures the batched engine's amortization: one
// op is one RunBatch over B independent input lanes of a bitstream
// pre-lowered once outside the loop, so ns/op ÷ B is the per-input
// cost. scripts/ci.sh gates the checked-in baseline: at B=64 the
// per-input cost must be ≤ 0.5× BenchmarkSimRun on at least one kernel.
func BenchmarkSimRunBatch(b *testing.B) {
	for _, k := range kernels.All() {
		k := k
		prog := benchProgram(b, k)
		s, err := sim.New(prog)
		if err != nil {
			b.Fatalf("%s: sim: %v", k.Name, err)
		}
		e := s.Engine()
		for _, lanes := range []int{1, 16, 64} {
			lanes := lanes
			b.Run(fmt.Sprintf("%s/B%d", k.Name, lanes), func(b *testing.B) {
				op := func() error {
					mems := make([]cdfg.Memory, lanes)
					for l := range mems {
						mems[l] = k.Init()
					}
					_, err := e.RunBatch(mems)
					return err
				}
				b.ReportAllocs()
				warm(b, op)
				for i := 0; i < b.N; i++ {
					if err := op(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkVerifyRun measures the static verifier over a pre-built
// mapping+program pair — the full pass matrix, as the oracle and cgramap
// -verify invoke it.
func BenchmarkVerifyRun(b *testing.B) {
	for _, k := range kernels.All() {
		k := k
		g := k.Build()
		m, err := core.Map(g, perfGrid(), core.DefaultOptions(core.FlowCAB))
		if err != nil {
			b.Fatalf("%s: map: %v", k.Name, err)
		}
		prog, err := asm.Assemble(m)
		if err != nil {
			b.Fatalf("%s: assemble: %v", k.Name, err)
		}
		cx := &verify.Context{Graph: g, Grid: perfGrid(), Mapping: m, Program: prog}
		b.Run(k.Name, func(b *testing.B) {
			b.ReportAllocs()
			warm(b, func() error { return verify.Run(cx).Err() })
			for i := 0; i < b.N; i++ {
				res := verify.Run(cx)
				if err := res.Err(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOracleCheck measures one end-to-end differential check — map,
// fit-check, verify, assemble, simulate, compare against the reference
// interpreter — the unit the sweep repeats thousands of times.
func BenchmarkOracleCheck(b *testing.B) {
	for _, k := range kernels.All() {
		k := k
		g := k.Build()
		cell := oracle.Cell{Mode: oracle.ModeCAB, Config: arch.HOM64}
		b.Run(k.Name, func(b *testing.B) {
			var p oracle.Pipeline
			b.ReportAllocs()
			warmMap(b, mapWarmCap, func() error {
				if r := p.Check(g, k.Init(), cell, 1); r.Outcome.Bug() {
					return r.Err
				}
				return nil
			})
			for i := 0; i < b.N; i++ {
				r := p.Check(g, k.Init(), cell, 1)
				if r.Outcome.Bug() {
					b.Fatalf("oracle found a bug in %s: %v", k.Name, r.Err)
				}
			}
		})
	}
}

// BenchmarkStaticAnalyze measures the full fixed-point analysis stack —
// CFG recovery, reachability, def-use/liveness, SCCP and cost bounds —
// over each kernel's assembled bitstream, as cgramap -analyze and the
// oracle's static leg invoke it.
func BenchmarkStaticAnalyze(b *testing.B) {
	for _, k := range kernels.All() {
		k := k
		prog := benchProgram(b, k)
		b.Run(k.Name, func(b *testing.B) {
			b.ReportAllocs()
			warm(b, func() error { _, err := static.Analyze(prog); return err })
			for i := 0; i < b.N; i++ {
				if _, err := static.Analyze(prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStrip measures dead-context elimination on a pre-analyzed
// bitstream — the rewrite alone, without the analysis it consumes.
func BenchmarkStrip(b *testing.B) {
	for _, k := range kernels.All() {
		k := k
		prog := benchProgram(b, k)
		a, err := static.Analyze(prog)
		if err != nil {
			b.Fatalf("%s: analyze: %v", k.Name, err)
		}
		b.Run(k.Name, func(b *testing.B) {
			b.ReportAllocs()
			warm(b, func() error { _, _, err := static.Strip(prog, a); return err })
			for i := 0; i < b.N; i++ {
				if _, _, err := static.Strip(prog, a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoreMapObsOff pins the disabled-instrumentation hot path: an
// explicitly nil recorder must cost BenchmarkCoreMap nothing — zero extra
// allocations per op. scripts/bench.sh -compare checks each ObsOff result
// against the same run's plain CoreMap result with a 0% alloc tolerance.
func BenchmarkCoreMapObsOff(b *testing.B) {
	benchCoreMap(b, func() *obs.Recorder { return nil })
}

// BenchmarkPortfolioPruned / BenchmarkPortfolioUnpruned isolate what
// incumbent-sharing pruning buys: the same 4-seed portfolio at the same
// pinned parallelism, with pruning on (the default) and forced off via
// NoIncumbent. Both produce byte-identical winners — pruning only aborts
// seeds whose admissible lower bound already cannot beat the incumbent —
// so the ns/op delta is pure wasted-search savings.
func BenchmarkPortfolioPruned(b *testing.B)   { benchPortfolioPruning(b, false) }
func BenchmarkPortfolioUnpruned(b *testing.B) { benchPortfolioPruning(b, true) }

func benchPortfolioPruning(b *testing.B, noIncumbent bool) {
	for _, k := range kernels.All() {
		k := k
		g := k.Build()
		b.Run(k.Name, func(b *testing.B) {
			opt := core.DefaultOptions(core.FlowCAB)
			popt := core.PortfolioOptions{NumSeeds: 4, Workers: 4, NoIncumbent: noIncumbent}
			b.ReportAllocs()
			warmMap(b, noisyWarmCalls, func() error {
				_, err := core.MapPortfolio(context.Background(), g, perfGrid(), opt, popt)
				return err
			})
			for i := 0; i < b.N; i++ {
				if _, err := core.MapPortfolio(context.Background(), g, perfGrid(), opt, popt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMapCached measures the content-addressed mapping cache on the
// heaviest kernel. cold is a full miss — key the graph text, map,
// assemble, store — on a fresh cache every iteration; warm is the steady-state
// memory-tier hit the cgrad repeat path is built around. The acceptance
// bar is warm ≥ 100× faster than BenchmarkCoreMap/MatM.
func BenchmarkMapCached(b *testing.B) {
	k, err := kernels.ByName("MatM")
	if err != nil {
		b.Fatal(err)
	}
	g := k.Build()
	opt := core.DefaultOptions(core.FlowCAB)
	req := mapcache.Request{Graph: g, Grid: perfGrid(), Opt: opt}
	compute := func() (mapcache.Computed, error) {
		m, err := core.Map(g, perfGrid(), opt)
		if err != nil {
			return mapcache.Computed{}, err
		}
		return mapcache.Computed{Mapping: m, Seed: opt.Seed, Backend: core.DefaultBackend().Name()}, nil
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		warm(b, func() error {
			_, err := mapcache.New(mapcache.Config{Capacity: 8}).GetOrStore(req, compute)
			return err
		})
		for i := 0; i < b.N; i++ {
			res, err := mapcache.New(mapcache.Config{Capacity: 8}).GetOrStore(req, compute)
			if err != nil {
				b.Fatal(err)
			}
			if res.Hit {
				b.Fatal("cold iteration hit the cache")
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		c := mapcache.New(mapcache.Config{Capacity: 8})
		b.ReportAllocs()
		warm(b, func() error { _, err := c.GetOrStore(req, compute); return err })
		for i := 0; i < b.N; i++ {
			res, err := c.GetOrStore(req, compute)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Hit {
				b.Fatal("warm iteration missed the cache")
			}
		}
	})
}

// BenchmarkMapCachedObsOff pins the cache hit path with instrumentation
// explicitly disabled: a nil recorder must not add a single allocation
// over the same run's BenchmarkMapCached/warm. scripts/bench.sh compares
// the pair within-run, like the CoreMapObsOff gate.
func BenchmarkMapCachedObsOff(b *testing.B) {
	k, err := kernels.ByName("MatM")
	if err != nil {
		b.Fatal(err)
	}
	g := k.Build()
	opt := core.DefaultOptions(core.FlowCAB)
	opt.Obs = nil
	req := mapcache.Request{Graph: g, Grid: perfGrid(), Opt: opt}
	compute := func() (mapcache.Computed, error) {
		m, err := core.Map(g, perfGrid(), opt)
		if err != nil {
			return mapcache.Computed{}, err
		}
		return mapcache.Computed{Mapping: m, Seed: opt.Seed, Backend: core.DefaultBackend().Name()}, nil
	}
	b.Run("warm", func(b *testing.B) {
		c := mapcache.New(mapcache.Config{Capacity: 8, Obs: nil})
		b.ReportAllocs()
		warm(b, func() error { _, err := c.GetOrStore(req, compute); return err })
		for i := 0; i < b.N; i++ {
			if _, err := c.GetOrStore(req, compute); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCoreMapObsOn measures the live-recorder cost: registry
// counters, phase timers and per-Map spans into a buffered sink. The
// delta against BenchmarkCoreMapObsOff is the price of -metrics/-events.
func BenchmarkCoreMapObsOn(b *testing.B) {
	benchCoreMap(b, func() *obs.Recorder {
		return obs.NewRecorder(obs.NewRegistry(), obs.NewBufferSink(0))
	})
}
