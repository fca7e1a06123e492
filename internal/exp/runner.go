// Package exp regenerates every table and figure of the paper's
// evaluation section (Figs 2, 5–11 and Table II) from end-to-end runs:
// each cell maps a kernel with the selected flow, assembles it, simulates
// it cycle-accurately with functional verification against the golden
// reference, and derives energy from the activity counters.
package exp

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/asm"
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
	forced bool
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
	// Batch, when > 1, simulates each cell through the batched engine
	// with that many identical input lanes instead of one scalar
	// verified run. Every lane must reproduce lane 0 exactly; lane 0
	// feeds the cell's metrics, so the rendered tables are identical at
	// any batch width.
	Batch int
	// Cache, when non-nil, routes every cell's mapping step through the
	// content-addressed mapping cache: repeated evaluations (and, with a
	// disk tier, repeated processes) reuse the compiled bitstream instead
	// of re-running the search. Simulation, golden checks and dead-context
	// analysis still run per cell, so cached cells render identically.
	Cache *mapcache.Cache

	mu          sync.Mutex
	cells       map[cellKey]*Cell
	cpus        map[string]*CPUCell
	inflight    map[cellKey]chan struct{}
	cpuInflight map[string]chan struct{}
}

// NewRunner returns a Runner with the default power parameters.
func NewRunner() *Runner {
	return &Runner{
		Params:      power.Default(),
		cells:       map[cellKey]*Cell{},
		cpus:        map[string]*CPUCell{},
		inflight:    map[cellKey]chan struct{}{},
		cpuInflight: map[string]chan struct{}{},
	}
}

// prefetch runs the jobs on the runner's worker pool and waits for all of
// them. Jobs are cache-warming closures (r.Run / r.CPU calls); their
// results land in the cell cache, so the serial rendering that follows is
// independent of execution order. Each worker owns one mapper arena for
// its whole lifetime — every cell it evaluates reuses the same search
// scratch memory instead of allocating per (kernel, config) — and arenas
// never influence mapping results, so the byte-identical-output guarantee
// is unaffected. The worker index doubles as the trace track (obs tid)
// each job's spans land on, so concurrent cells reconstruct as parallel
// per-worker timelines instead of interleaving on one track.
func (r *Runner) prefetch(jobs []func(*core.Arena, int)) {
	n := r.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > len(jobs) {
		n = len(jobs)
	}
	if n <= 1 {
		ar := core.NewArena()
		for _, j := range jobs {
			j(ar, 0)
		}
		return
	}
	ch := make(chan func(*core.Arena, int))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			ar := core.NewArena()
			for j := range ch {
				j(ar, tid)
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
	return r.runArena(nil, 0, kernel, flow, config)
}

// runArena is Run with an optional caller-owned mapper arena and trace
// track (prefetch workers thread theirs through so all their cells share
// scratch memory and trace on the worker's tid).
func (r *Runner) runArena(ar *core.Arena, tid int, kernel string, flow core.Flow, config arch.ConfigName) *Cell {
	opt := core.DefaultOptions(flow).WithArena(ar)
	opt.ObsTID = tid
	return r.run(kernel, flow, config, opt)
}

// RunTraversal evaluates a cell forcing the CDFG traversal order (the
// Fig 5 experiment).
func (r *Runner) RunTraversal(kernel string, flow core.Flow, config arch.ConfigName, trav cdfg.TraversalKind) *Cell {
	return r.runTraversalArena(nil, 0, kernel, flow, config, trav)
}

func (r *Runner) runTraversalArena(ar *core.Arena, tid int, kernel string, flow core.Flow, config arch.ConfigName, trav cdfg.TraversalKind) *Cell {
	opt := core.DefaultOptions(flow).WithArena(ar)
	opt.ObsTID = tid
	opt.Traversal = trav
	opt.ForceTraversal = true
	return r.run(kernel, flow, config, opt)
}

func (r *Runner) run(kernel string, flow core.Flow, config arch.ConfigName, opt core.Options) *Cell {
	key := cellKey{kernel, flow, config, opt.Traversal, opt.ForceTraversal}
	r.mu.Lock()
	for {
		if c, ok := r.cells[key]; ok {
			r.mu.Unlock()
			return c
		}
		ch, busy := r.inflight[key]
		if !busy {
			break
		}
		// Another goroutine is evaluating this cell; wait for it.
		r.mu.Unlock()
		<-ch
		r.mu.Lock()
	}
	ch := make(chan struct{})
	r.inflight[key] = ch
	r.mu.Unlock()
	c := r.evaluate(kernel, flow, config, opt)
	r.mu.Lock()
	r.cells[key] = c
	delete(r.inflight, key)
	r.mu.Unlock()
	close(ch)
	return c
}

// evaluate wraps one cell evaluation in an exp.cell span carrying the
// cell's identity, so offline analysis (cgratrace) can group every mapper
// and simulator span nested under it by kernel × flow × config.
func (r *Runner) evaluate(kernel string, flow core.Flow, config arch.ConfigName, opt core.Options) *Cell {
	sp := r.Obs.StartSpan("exp.cell", "exp", opt.ObsTID)
	c := r.evaluateCell(kernel, flow, config, opt)
	sp.End(map[string]any{
		"kernel": kernel, "flow": flow.String(), "config": string(config), "ok": c.OK,
	})
	return c
}

func (r *Runner) evaluateCell(kernel string, flow core.Flow, config arch.ConfigName, opt core.Options) *Cell {
	c := &Cell{Kernel: kernel, Flow: flow, Config: config}
	k, err := kernels.ByName(kernel)
	if err != nil {
		c.Fail = err.Error()
		return c
	}
	g := k.Build()
	grid := arch.MustGrid(config)
	opt.Obs = r.Obs
	var prog *asm.Program
	var meta mapcache.Meta
	var assemble func() (*asm.Program, error)
	if r.Cache != nil {
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
		prog, meta = cres.Program, cres.Meta
	} else {
		m, err := core.Map(g, grid, opt)
		if err != nil {
			c.Fail = err.Error()
			return c
		}
		meta = mapcache.Meta{
			Stats: m.Stats, TileWords: m.TileWords(),
			Ops: m.TotalOps(), Moves: m.TotalMoves(), Pnops: m.TotalPnops(),
		}
		assemble = func() (*asm.Program, error) { return asm.Assemble(m) }
	}
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
	// basic mappings on HOM64 only). The check works off the per-tile word
	// counts so cache hits — which carry no Mapping — are screened the
	// same way as fresh maps.
	for i, words := range c.TileWords {
		if words > grid.Tile(arch.TileID(i)).CMWords {
			c.Fail = fmt.Sprintf("mapping overflows context memory of tile %d", i+1)
			return c
		}
	}
	if prog == nil {
		var err error
		if prog, err = assemble(); err != nil {
			c.Fail = err.Error()
			return c
		}
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
	res, mem, err := r.simulate(s, k)
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

// simulate executes the assembled kernel: the interpreter-verified
// scalar run by default, or — when r.Batch > 1 — one batched engine
// pass over Batch identical input lanes, verified per lane and
// cross-checked so every lane reproduces lane 0 bit for bit.
func (r *Runner) simulate(s *sim.Sim, k kernels.Kernel) (*sim.Result, cdfg.Memory, error) {
	if r.Batch <= 1 {
		res, _, mem, err := s.RunVerified(k.Init())
		return res, mem, err
	}
	lanes := make([]cdfg.Memory, r.Batch)
	for l := range lanes {
		lanes[l] = k.Init()
	}
	results, _, mems, err := s.Engine().RunBatchVerified(lanes)
	if err != nil {
		return nil, nil, err
	}
	for l := 1; l < len(results); l++ {
		if !reflect.DeepEqual(results[l], results[0]) || !reflect.DeepEqual(mems[l], mems[0]) {
			return nil, nil, fmt.Errorf("batch lane %d diverges from lane 0 on identical input", l)
		}
	}
	return results[0], mems[0], nil
}

// CPU evaluates (and caches) a kernel's baseline execution, verifying the
// output against the golden reference.
func (r *Runner) CPU(kernel string) (*CPUCell, error) {
	r.mu.Lock()
	for {
		if c, ok := r.cpus[kernel]; ok {
			r.mu.Unlock()
			return c, nil
		}
		ch, busy := r.cpuInflight[kernel]
		if !busy {
			break
		}
		r.mu.Unlock()
		<-ch
		r.mu.Lock()
	}
	ch := make(chan struct{})
	r.cpuInflight[kernel] = ch
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.cpuInflight, kernel)
		r.mu.Unlock()
		close(ch)
	}()
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
	c := &CPUCell{Kernel: kernel, Cycles: res.Cycles, Instrs: res.Instrs, Energy: r.Params.CPUEnergy(res)}
	r.mu.Lock()
	r.cpus[kernel] = c
	r.mu.Unlock()
	return c, nil
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
	r.mu.Lock()
	for key, c := range r.cells {
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
	r.mu.Unlock()
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

func (r *Runner) baselineArena(ar *core.Arena, tid int, kernel string) *Cell {
	return r.runArena(ar, tid, kernel, core.FlowBasic, arch.HOM64)
}
