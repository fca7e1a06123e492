// Package exp regenerates every table and figure of the paper's
// evaluation section (Figs 2, 5–11 and Table II) from end-to-end runs:
// each cell maps a kernel with the selected flow, assembles it, simulates
// it cycle-accurately with functional verification against the golden
// reference, and derives energy from the activity counters.
package exp

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kernels"
	"repro/internal/mapcache"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/static"
	"repro/internal/trace"
)

// Cell is one (kernel, flow, configuration) evaluation point.
type Cell struct {
	Kernel string
	Flow   core.Flow
	Config arch.ConfigName

	// OK is false when the flow found no mapping (the zero bars of Figs
	// 6–8); Fail carries the reason.
	OK   bool
	Fail string

	Cycles      int64
	Stalls      int64
	CompileTime time.Duration
	TileWords   []int
	MaxWords    int
	TotalWords  int
	Ops         int
	Moves       int
	Pnops       int
	Energy      power.EnergyBreakdown
	MapStats    core.Stats
	// DeadWords is the context-word reduction dead-context elimination
	// (internal/static) achieves on the assembled bitstream;
	// StrippedWords is the word count after the rewrite, so
	// TotalWords = StrippedWords + DeadWords.
	DeadWords     int
	StrippedWords int
}

// CPUCell is a kernel's baseline execution.
type CPUCell struct {
	Kernel string
	Cycles int64
	Instrs int64
	Energy power.EnergyBreakdown
}

type cellKey struct {
	kernel string
	flow   core.Flow
	config arch.ConfigName
	trav   cdfg.TraversalKind
}

// Runner evaluates and caches cells. It is safe for concurrent use: a
// cell requested from several goroutines is evaluated exactly once, and
// the figure runners prefetch their cells on a pool of Workers goroutines
// before rendering serially, so the rendered output is byte-identical at
// any parallelism.
type Runner struct {
	Params power.Params
	// Workers bounds the prefetch pool; 0 means runtime.GOMAXPROCS(0)
	// and 1 restores fully serial evaluation.
	Workers int
	// Obs, when non-nil, is threaded into every mapper and simulator run
	// the evaluation performs, so one recorder aggregates the whole
	// experiment sweep. Cached cells do not re-record: the registry
	// reflects the work actually executed.
	Obs *obs.Recorder
	// Cache, when non-nil, keeps every cell's compiled mapping in the
	// content-addressed mapping cache: repeated evaluations (and, with a
	// disk tier, repeated processes) reuse the compiled bitstream instead
	// of re-running the search. Simulation, golden checks and dead-context
	// analysis still run per cell, so cached cells render identically.
	// A nil Cache maps every cell fresh through the same GetOrStore call.
	Cache *mapcache.Cache

	cells memo[cellKey, *Cell]
	cpus  memo[string, cpuResult]
}

// cpuResult is a memoized CPU evaluation.
type cpuResult struct {
	c   *CPUCell
	err error
}

// NewRunner returns a Runner with the default power parameters.
func NewRunner() *Runner { return &Runner{Params: power.Default()} }

// memo caches one value per key. A request for a key another goroutine
// is computing waits for that result instead of computing it again.
type memo[K comparable, V any] struct {
	mu       sync.Mutex
	done     map[K]V
	inflight map[K]chan struct{}
}

// get returns the value for key, computing it with eval on first request.
func (m *memo[K, V]) get(key K, eval func() V) V {
	m.mu.Lock()
	for {
		if v, ok := m.done[key]; ok {
			m.mu.Unlock()
			return v
		}
		ch, busy := m.inflight[key]
		if !busy {
			break
		}
		m.mu.Unlock()
		<-ch
		m.mu.Lock()
	}
	if m.done == nil {
		m.done, m.inflight = map[K]V{}, map[K]chan struct{}{}
	}
	ch := make(chan struct{})
	m.inflight[key] = ch
	m.mu.Unlock()
	v := eval()
	m.mu.Lock()
	m.done[key] = v
	delete(m.inflight, key)
	m.mu.Unlock()
	close(ch)
	return v
}

// prefetch runs the jobs on the runner's worker pool and waits for all of
// them. Jobs are cache-warming closures (r.Run / r.CPU calls); their
// results land in the cell cache, so the serial rendering that follows is
// independent of execution order. Each job gets its worker's index, which
// doubles as the trace track (obs tid) its spans land on, so concurrent
// cells reconstruct as parallel per-worker timelines instead of
// interleaving on one track.
func (r *Runner) prefetch(jobs []func(tid int)) {
	n := r.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	n = min(n, len(jobs))
	ch := make(chan func(int))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for j := range ch {
				j(tid)
			}
		}(i)
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
}

// Run evaluates one cell with the flow's default traversal.
func (r *Runner) Run(kernel string, flow core.Flow, config arch.ConfigName) *Cell {
	return r.run(0, kernel, flow, config)
}

// RunTraversal evaluates a cell forcing the CDFG traversal order (the
// Fig 5 experiment).
func (r *Runner) RunTraversal(kernel string, flow core.Flow, config arch.ConfigName, trav cdfg.TraversalKind) *Cell {
	return r.run(0, kernel, flow, config, trav)
}

// run evaluates one cell on trace track tid, forcing the traversal order
// when one is given (RunTraversal) and using the flow's default otherwise
// (Run). Prefetch workers pass their index as tid.
func (r *Runner) run(tid int, kernel string, flow core.Flow, config arch.ConfigName, trav ...cdfg.TraversalKind) *Cell {
	opt := core.DefaultOptions(flow)
	opt.ObsTID = tid
	if len(trav) > 0 {
		opt.Traversal = trav[0]
	}
	key := cellKey{kernel, flow, config, opt.Traversal}
	return r.cells.get(key, func() *Cell {
		// The exp.cell span carries the cell's identity, so offline analysis
		// (cgratrace) can group every mapper and simulator span nested under
		// it by kernel × flow × config.
		sp := r.Obs.StartSpan("exp.cell", "exp", tid)
		c := r.evaluate(kernel, flow, config, opt)
		sp.End(map[string]any{"kernel": kernel, "flow": flow.String(), "config": string(config), "ok": c.OK})
		return c
	})
}

// evaluate maps, assembles, analyzes and simulates one cell.
func (r *Runner) evaluate(kernel string, flow core.Flow, config arch.ConfigName, opt core.Options) *Cell {
	c := &Cell{Kernel: kernel, Flow: flow, Config: config}
	k, err := kernels.ByName(kernel)
	if err != nil {
		c.Fail = err.Error()
		return c
	}
	g := k.Build()
	grid := arch.MustGrid(config)
	opt.Obs = r.Obs
	cres, err := r.Cache.GetOrStore(
		mapcache.Request{Graph: g, Grid: grid, Opt: opt},
		func() (mapcache.Computed, error) {
			m, err := core.Map(g, grid, opt)
			if err != nil {
				return mapcache.Computed{}, err
			}
			return mapcache.Computed{Mapping: m, Seed: opt.Seed, Backend: core.DefaultBackend().Name()}, nil
		})
	if err != nil {
		c.Fail = err.Error()
		return c
	}
	prog, meta := cres.Program, cres.Meta
	c.CompileTime = meta.Stats.CompileTime
	c.MapStats = meta.Stats
	c.TileWords = meta.TileWords
	for _, w := range c.TileWords {
		c.TotalWords += w
		if w > c.MaxWords {
			c.MaxWords = w
		}
	}
	c.Ops, c.Moves, c.Pnops = meta.Ops, meta.Moves, meta.Pnops

	// The basic flow ignores memory constraints; a mapping that overflows
	// the configuration cannot run on it (this is why the paper runs
	// basic mappings on HOM64 only).
	if ok, t := prog.FitsMemory(); !ok {
		c.Fail = fmt.Sprintf("mapping overflows context memory of tile %d", t+1)
		return c
	}
	// Dead-context elimination statistics: how many of the mapping's
	// context words the static analyzer proves removable. The rewrite is
	// not loaded — the cell's timing and energy report the bitstream the
	// mapper produced — but the reduction is part of the evaluation.
	a, err := static.Analyze(prog, static.WithObs(r.Obs))
	if err != nil {
		c.Fail = fmt.Sprintf("static analysis: %v", err)
		return c
	}
	if _, rep, err := static.Strip(prog, a, static.WithObs(r.Obs)); err != nil {
		c.Fail = fmt.Sprintf("dead-context elimination: %v", err)
		return c
	} else {
		c.DeadWords = rep.WordsSaved()
		c.StrippedWords = rep.WordsAfter
	}
	s, err := sim.New(prog, sim.WithObs(r.Obs))
	if err != nil {
		c.Fail = err.Error()
		return c
	}
	res, _, mem, err := s.RunVerified(k.Init())
	if err != nil {
		c.Fail = err.Error()
		return c
	}
	if err := k.Check(mem); err != nil {
		c.Fail = err.Error()
		return c
	}
	c.OK = true
	c.Cycles = res.Cycles
	c.Stalls = res.StallCycles
	c.Energy = r.Params.CGRAEnergy(grid, res)
	return c
}

// CPU evaluates (and caches) a kernel's baseline execution, verifying the
// output against the golden reference.
func (r *Runner) CPU(kernel string) (*CPUCell, error) {
	res := r.cpus.get(kernel, func() cpuResult {
		c, err := r.cpu(kernel)
		return cpuResult{c, err}
	})
	return res.c, res.err
}

func (r *Runner) cpu(kernel string) (*CPUCell, error) {
	k, err := kernels.ByName(kernel)
	if err != nil {
		return nil, err
	}
	mem := k.Init()
	res, err := cpu.Run(k.Build(), mem, cpu.DefaultCosts())
	if err != nil {
		return nil, err
	}
	if err := k.Check(mem); err != nil {
		return nil, fmt.Errorf("exp: CPU run of %s failed verification: %w", kernel, err)
	}
	return &CPUCell{Kernel: kernel, Cycles: res.Cycles, Instrs: res.Instrs, Energy: r.Params.CPUEnergy(res)}, nil
}

// InstrumentationSummary renders a per-kernel roll-up of every cell the
// runner has evaluated so far: cells run, mappings found, simulated
// cycles, compile time, partials explored and pruned-partial total.
// Kernels appear in the canonical kernel order, so the table is
// deterministic for a given set of evaluated cells.
func (r *Runner) InstrumentationSummary() string {
	type agg struct {
		cells, mapped    int
		cycles           int64
		compile          time.Duration
		partials, pruned int
	}
	byKernel := map[string]*agg{}
	r.cells.mu.Lock()
	for key, c := range r.cells.done {
		a := byKernel[key.kernel]
		if a == nil {
			a = &agg{}
			byKernel[key.kernel] = a
		}
		a.cells++
		if c.OK {
			a.mapped++
			a.cycles += c.Cycles
		}
		a.compile += c.CompileTime
		a.partials += c.MapStats.Partials
		a.pruned += c.MapStats.PrunedACMAP + c.MapStats.PrunedECMAP + c.MapStats.PrunedStochastic
	}
	r.cells.mu.Unlock()
	t := trace.NewTable("per-kernel instrumentation summary",
		"kernel", "cells", "mapped", "cycles", "compile", "partials", "pruned")
	for _, name := range kernels.Names() {
		a := byKernel[name]
		if a == nil {
			continue
		}
		t.Add(name, a.cells, a.mapped, a.cycles, a.compile.Round(time.Millisecond),
			a.partials, a.pruned)
	}
	return t.String()
}

// Baseline returns the basic-flow HOM64 cell a figure normalizes against.
func (r *Runner) Baseline(kernel string) *Cell {
	return r.Run(kernel, core.FlowBasic, arch.HOM64)
}
