package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"time"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/mapcache"
	"repro/internal/oracle"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/static"
	"repro/internal/verify"
)

// workload is one fixed set of inputs the benchmark drives through the
// toolchain. setup builds the inputs and their references and returns one
// pass of the measured work; a run repeats whole passes, so every pass
// does identical work and its exact outputs must repeat.
type workload struct {
	name  string
	why   string
	setup func(r *run) (pass func() error, err error)
}

var workloads = []workload{
	{
		name:  "paper-cold",
		why:   "the paper's 28 Fig 8 / Table II cells compiled cold; the mapper does almost all the work, including one slow failing cell",
		setup: setupPaperCold,
	},
	{
		name:  "random-cold",
		why:   "seeded oracle graphs: small varied control flow the 7 kernels never produce, mapped through the cache's disk write path",
		setup: setupRandomCold,
	},
	{
		name:  "sim-batch",
		why:   "7 kernels mapped once in setup, then B=64 batches next to B=1 runs: the simulator engine does the work",
		setup: setupSimBatch,
	},
	{
		name:  "warm-replay",
		why:   "paper cells served from a disk-filled mapping cache, from disk then memory: the cache read path plus downstream layers",
		setup: setupWarmReplay,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// options sizes one run. The defaults are the benchmark's; tests shrink
// the inputs.
type options struct {
	seed    int64
	seconds float64
	// setups is how many times setup runs; setup_s is their median.
	setups int
	// minPasses is the least number of passes a run measures.
	minPasses int
	// dir holds the run's scratch cache directories.
	dir string
	// kernels restricts the kernel workloads (nil: all seven).
	kernels []string
	// graphs is random-cold's graph count per pass.
	graphs int
	// corrupt, when set, is applied to every reference memory after the
	// reference has passed its golden check, planting a wrong expectation.
	corrupt func(cdfg.Memory)
}

func defaultOptions() options {
	return options{seed: 1, seconds: 10, setups: 3, minPasses: 1, graphs: 480}
}

// tally is one pass's exact outputs. Every pass does identical work, so
// tallies of different passes must be equal.
type tally struct {
	cells, noMapping, overflow int
	lookups, hits              int
	words, deadWords           int64
	cycles, stalls             int64
	energy                     float64
}

// run is one benchmark run of one workload: a closed loop with one
// client, in one goroutine.
type run struct {
	opts   options
	lay    *layers
	params power.Params

	clock             *clock
	setups            []interval
	wall              time.Duration
	passes            int
	ops               []opRecord
	attempted, failed int
	errs              []string
	cur               tally
	first             *tally
	// opSim and opCycles accumulate the current op's simulator time and
	// simulated lane-cycles.
	opSim    time.Duration
	opCycles int64
}

// opRecord is one measured op.
type opRecord struct {
	interval
	sim    time.Duration
	cycles int64
}

func newRun(opts options, lay *layers) *run {
	return &run{opts: opts, lay: lay, params: power.Default(), clock: newClock()}
}

// execute sets the workload up opts.setups times, then measures whole
// passes until opts.seconds have elapsed (and at least opts.minPasses).
func (r *run) execute(w workload) error {
	var pass func() error
	for i := 0; i < r.opts.setups; i++ {
		r.clock.sample()
		cl := r.lay.start("bench.setup")
		p, err := w.setup(r)
		d := cl.stop(map[string]any{"workload": w.name})
		r.setups = append(r.setups, interval{end: time.Now(), d: d})
		if err != nil {
			return fmt.Errorf("%s: setup: %w", w.name, err)
		}
		r.clock.sample()
		pass = p
	}
	start := time.Now()
	for r.passes = 0; r.passes < r.opts.minPasses || time.Since(start).Seconds() < r.opts.seconds; r.passes++ {
		r.cur = tally{}
		if err := pass(); err != nil {
			return fmt.Errorf("%s: pass %d: %w", w.name, r.passes+1, err)
		}
		r.clock.sample()
		if r.first == nil {
			t := r.cur
			r.first = &t
		} else if r.cur != *r.first {
			r.fail(fmt.Errorf("pass %d outputs %+v differ from pass 1 %+v", r.passes+1, r.cur, *r.first))
		}
	}
	r.wall = time.Since(start)
	return nil
}

// op measures one operation of the closed loop.
func (r *run) op(args map[string]any, fn func() error) {
	r.clock.tick()
	r.opSim, r.opCycles = 0, 0
	cl := r.lay.start("bench.op")
	err := fn()
	d := cl.stop(args)
	r.ops = append(r.ops, opRecord{interval: interval{end: time.Now(), d: d}, sim: r.opSim, cycles: r.opCycles})
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

func (r *run) fail(err error) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, err.Error())
	}
}

// cell is one mapping problem with its expected output.
type cell struct {
	label        string
	kernel       string
	flow, config string
	graph        *cdfg.Graph
	grid         *arch.Grid
	opt          core.Options
	init, ref    cdfg.Memory
	golden       func(cdfg.Memory) error
	aware        bool     // the flow enforces the context-memory constraint
	coldSum      [32]byte // sha256 of the cold image (warm-replay)
}

func (c *cell) args() map[string]any {
	return map[string]any{"kernel": c.kernel, "flow": c.flow, "config": c.config}
}

// check compares a final memory with the interpreter's and, for a paper
// kernel, with the golden reference.
func (c *cell) check(mem cdfg.Memory) error {
	if len(mem) != len(c.ref) {
		return fmt.Errorf("%s: memory has %d words, reference %d", c.label, len(mem), len(c.ref))
	}
	for i := range mem {
		if mem[i] != c.ref[i] {
			return fmt.Errorf("%s: mem[%d] = %d, interpreter says %d", c.label, i, mem[i], c.ref[i])
		}
	}
	if c.golden != nil {
		if err := c.golden(mem); err != nil {
			return fmt.Errorf("%s: %w", c.label, err)
		}
	}
	return nil
}

var (
	errNoMapping = errors.New("no mapping")
	errOverflow  = errors.New("context overflow")
)

// compile requests the cell's bitstream from the cache; a miss calls back
// into the mapper, assembler and verifier. mapcache.lookup gets the
// request's time outside that callback.
func (r *run) compile(cache *mapcache.Cache, c *cell) (mapcache.Result, error) {
	var inner time.Duration
	cl := r.lay.start("mapcache.get_or_store")
	res, err := cache.GetOrStore(mapcache.Request{Graph: c.graph, Grid: c.grid, Opt: c.opt},
		func() (mapcache.Computed, error) {
			t0 := time.Now()
			comp, err := r.build(c)
			inner += time.Since(t0)
			return comp, err
		})
	r.lay.add("mapcache.lookup", 1, cl.stop(nil)-inner)
	r.cur.lookups++
	if res.Hit {
		r.cur.hits++
	}
	return res, err
}

// build maps, screens, assembles and verifies one cell (the cache's
// compute callback).
func (r *run) build(c *cell) (mapcache.Computed, error) {
	m, err := r.lay.mapGraph(c)
	if err != nil {
		return mapcache.Computed{}, fmt.Errorf("%s: %w: %v", c.label, errNoMapping, err)
	}
	if ok, tile := m.FitsMemory(); !ok {
		if c.aware {
			return mapcache.Computed{}, fmt.Errorf("%s: memory-aware flow overflows tile %d", c.label, tile+1)
		}
		return mapcache.Computed{}, fmt.Errorf("%s: %w on tile %d", c.label, errOverflow, tile+1)
	}
	cl := r.lay.start("asm.assemble")
	prog, err := asm.Assemble(m)
	cl.stop(nil)
	if err != nil {
		return mapcache.Computed{}, fmt.Errorf("%s: assemble: %w", c.label, err)
	}
	cl = r.lay.start("verify.run")
	vres := verify.Run(&verify.Context{Graph: c.graph, Mapping: m, Program: prog})
	cl.stop(nil)
	if !vres.OK() {
		return mapcache.Computed{}, fmt.Errorf("%s: verify: %w", c.label, vres.Err())
	}
	return mapcache.Computed{Mapping: m, Program: prog, Seed: c.opt.Seed, Backend: core.DefaultBackend().Name()}, nil
}

// coldCell compiles one cell cold and runs what it produced. No mapping,
// and an overflow from a flow that ignores context memory, are the
// cell's correct answers (the paper's zero bars), not failures.
func (r *run) coldCell(cache *mapcache.Cache, c *cell) error {
	r.cur.cells++
	res, err := r.compile(cache, c)
	switch {
	case errors.Is(err, errNoMapping):
		r.cur.noMapping++
		return nil
	case errors.Is(err, errOverflow):
		r.cur.overflow++
		return nil
	case err != nil:
		return err
	}
	return r.runProgram(c, res.Program)
}

// runProgram is the downstream half of a cell: dead-context analysis,
// one simulated run checked against the references, and its energy.
func (r *run) runProgram(c *cell, prog *asm.Program) error {
	dead, err := r.analyze(c, prog)
	if err != nil {
		return err
	}
	cl := r.lay.start("sim.new")
	s, err := sim.New(prog)
	cl.stop(nil)
	if err != nil {
		return fmt.Errorf("%s: sim: %w", c.label, err)
	}
	mem := c.init.Clone()
	res, err := r.simRun(s, mem)
	if err != nil {
		return fmt.Errorf("%s: sim: %w", c.label, err)
	}
	if err := c.check(mem); err != nil {
		return err
	}
	cl = r.lay.start("power.energy")
	e := r.params.ActivityEnergy(c.grid, res.Activity())
	cl.stop(nil)
	r.cur.words += int64(prog.TotalWords())
	r.cur.deadWords += int64(dead)
	r.cur.cycles += res.Cycles
	r.cur.stalls += res.StallCycles
	r.cur.energy += e.Total()
	return nil
}

// analyze runs the static analyzer and dead-context elimination and
// returns the context words the rewrite saves.
func (r *run) analyze(c *cell, prog *asm.Program) (int, error) {
	cl := r.lay.start("static.analyze")
	a, err := static.Analyze(prog)
	cl.stop(nil)
	if err != nil {
		return 0, fmt.Errorf("%s: static analysis: %w", c.label, err)
	}
	cl = r.lay.start("static.strip")
	_, rep, err := static.Strip(prog, a)
	cl.stop(nil)
	if err != nil {
		return 0, fmt.Errorf("%s: strip: %w", c.label, err)
	}
	return rep.WordsSaved(), nil
}

// simRun is one B=1 simulation.
func (r *run) simRun(s *sim.Sim, mem cdfg.Memory) (*sim.Result, error) {
	cl := r.lay.start("sim.run")
	res, err := s.Run(mem)
	d := cl.stop(nil)
	if err == nil {
		r.opCycles += res.Cycles
		r.opSim += d
	}
	return res, err
}

// kernelRefs builds the named kernels and their references: the final
// memory cdfg.Interp computes from the kernel's input, which must itself
// pass the kernel's golden check.
func (r *run) kernelRefs() ([]*cell, error) {
	names := r.opts.kernels
	if names == nil {
		names = kernels.Names()
	}
	var out []*cell
	for _, name := range names {
		r.clock.tick()
		k, err := kernels.ByName(name)
		if err != nil {
			return nil, err
		}
		c := &cell{kernel: name, graph: k.Build(), init: k.Init(), golden: k.Check}
		if c.ref, err = r.interp(c.graph, c.init); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if err := k.Check(c.ref); err != nil {
			return nil, fmt.Errorf("%s: interpreter disagrees with the golden reference: %w", name, err)
		}
		if r.opts.corrupt != nil {
			r.opts.corrupt(c.ref)
		}
		out = append(out, c)
	}
	return out, nil
}

// interp runs the reference interpreter on a copy of init.
func (r *run) interp(g *cdfg.Graph, init cdfg.Memory) (cdfg.Memory, error) {
	mem := init.Clone()
	cl := r.lay.start("cdfg.interp")
	_, err := cdfg.Interp(g, mem)
	cl.stop(nil)
	return mem, err
}

// flowConfig is one column of Fig 8 / Table II.
type flowConfig struct {
	flow   core.Flow
	name   string
	config arch.ConfigName
}

var paperColumns = []flowConfig{
	{core.FlowBasic, "basic", arch.HOM64},
	{core.FlowCAB, "cab", arch.HOM32},
	{core.FlowCAB, "cab", arch.HET1},
	{core.FlowCAB, "cab", arch.HET2},
}

// kernelCell is the kernel (a kernelRefs entry) mapped with one column.
func kernelCell(k *cell, fc flowConfig) *cell {
	c := *k
	c.flow, c.config = fc.name, string(fc.config)
	c.label = fmt.Sprintf("%s %s/%s", k.kernel, fc.name, fc.config)
	c.grid = arch.MustGrid(fc.config)
	c.opt = core.DefaultOptions(fc.flow)
	c.aware = fc.flow != core.FlowBasic
	return &c
}

// paperCells is every kernel × Fig 8 column, in Table II order.
func (r *run) paperCells(skip func(*cell) bool) ([]*cell, error) {
	refs, err := r.kernelRefs()
	if err != nil {
		return nil, err
	}
	var cells []*cell
	for _, k := range refs {
		for _, fc := range paperColumns {
			if c := kernelCell(k, fc); skip == nil || !skip(c) {
				cells = append(cells, c)
			}
		}
	}
	return cells, nil
}

// setupPaperCold: each pass compiles every cell through a fresh in-memory
// mapping cache (every request misses) and runs the result.
func setupPaperCold(r *run) (func() error, error) {
	cells, err := r.paperCells(nil)
	if err != nil {
		return nil, err
	}
	return func() error {
		cache := mapcache.New(mapcache.Config{})
		for _, c := range cells {
			r.op(c.args(), func() error { return r.coldCell(cache, c) })
		}
		return nil
	}, nil
}

// setupRandomCold draws opts.graphs oracle graphs from the seed, each
// assigned one cell of the oracle's 5 modes × 4 configs in turn, and
// interprets each for its reference. Each pass maps them all cold through
// a cache on a fresh disk directory.
func setupRandomCold(r *run) (func() error, error) {
	rng := rand.New(rand.NewSource(r.opts.seed))
	matrix := oracle.AllCells()
	cells := make([]*cell, r.opts.graphs)
	for i := range cells {
		r.clock.tick()
		gseed := rng.Int63()
		g, mem := cdfg.Generate(rand.New(rand.NewSource(gseed)), cdfg.DefaultGenConfig())
		oc := matrix[i%len(matrix)]
		opt := oc.Mode.Options()
		opt.Seed = gseed
		c := &cell{
			label: g.Name + " " + oc.String(), kernel: g.Name,
			flow: oc.Mode.String(), config: string(oc.Config),
			graph: g, grid: arch.MustGrid(oc.Config), opt: opt, init: mem,
			aware: oc.Mode >= oracle.ModeACMAP,
		}
		var err error
		if c.ref, err = r.interp(g, mem); err != nil {
			return nil, fmt.Errorf("%s: %w", g.Name, err)
		}
		if r.opts.corrupt != nil {
			r.opts.corrupt(c.ref)
		}
		cells[i] = c
	}
	return func() error {
		dir, err := os.MkdirTemp(r.opts.dir, "random-cold-")
		if err != nil {
			return err
		}
		cache := mapcache.New(mapcache.Config{Dir: dir})
		for _, c := range cells {
			r.op(c.args(), func() error { return r.coldCell(cache, c) })
		}
		return os.RemoveAll(dir)
	}, nil
}

// batchLanes is sim-batch's batch width, as in cgrabench -batch 64.
const batchLanes = 64

// batchKernel is one kernel ready to simulate.
type batchKernel struct {
	c    *cell
	prog *asm.Program
	sim  *sim.Sim
}

// setupSimBatch compiles each kernel with cab/HET1 through the same layers
// as a cold cell; each pass is one round simulating every kernel.
func setupSimBatch(r *run) (func() error, error) {
	refs, err := r.kernelRefs()
	if err != nil {
		return nil, err
	}
	cache := mapcache.New(mapcache.Config{})
	var ks []*batchKernel
	for _, k := range refs {
		r.clock.tick()
		c := kernelCell(k, paperColumns[2])
		res, err := r.compile(cache, c)
		if err != nil {
			return nil, err
		}
		if _, err := r.analyze(c, res.Program); err != nil {
			return nil, err
		}
		cl := r.lay.start("sim.new")
		s, err := sim.New(res.Program)
		cl.stop(nil)
		if err != nil {
			return nil, fmt.Errorf("%s: sim: %w", c.label, err)
		}
		ks = append(ks, &batchKernel{c: c, prog: res.Program, sim: s})
	}
	return func() error {
		r.op(map[string]any{"config": string(arch.HET1), "flow": "cab"}, func() error {
			for _, k := range ks {
				if err := r.simulateBatch(k); err != nil {
					return err
				}
			}
			return nil
		})
		return nil
	}, nil
}

// simulateBatch runs one B=64 batch of identical inputs and one B=1 run
// of the kernel. Every lane's memory must equal the interpreter's, and
// every lane's energy the B=1 run's.
func (r *run) simulateBatch(k *batchKernel) error {
	c := k.c
	lanes := make([]cdfg.Memory, batchLanes)
	for l := range lanes {
		lanes[l] = c.init.Clone()
	}
	cl := r.lay.start("sim.run_batch")
	results, err := k.sim.Engine().RunBatch(lanes)
	d := cl.stop(nil)
	if err != nil {
		return fmt.Errorf("%s: batch: %w", c.label, err)
	}
	for _, res := range results {
		r.opCycles += res.Cycles
	}
	r.opSim += d
	mem := c.init.Clone()
	one, err := r.simRun(k.sim, mem)
	if err != nil {
		return fmt.Errorf("%s: sim: %w", c.label, err)
	}
	if err := c.check(mem); err != nil {
		return err
	}
	for l, lane := range lanes {
		if !slices.Equal(lane, mem) {
			return fmt.Errorf("%s: batch lane %d memory differs from the B=1 run", c.label, l)
		}
	}
	cl = r.lay.start("power.energy")
	e := r.params.ActivityEnergy(c.grid, one.Activity()).Total()
	for l, res := range results {
		if le := r.params.ActivityEnergy(c.grid, res.Activity()).Total(); le != e {
			return fmt.Errorf("%s: batch lane %d energy %g µJ, B=1 run %g µJ", c.label, l, le, e)
		}
	}
	cl.stopN(1+len(results), nil)
	r.cur.words += int64(k.prog.TotalWords())
	r.cur.cycles += one.Cycles
	r.cur.stalls += one.StallCycles
	r.cur.energy += e
	return nil
}

// warmSkip names the two paper cells warm-replay leaves out: MatM
// cab/HOM32, whose cold compile alone is a quarter of paper-cold, and
// NonSepFilter cab/HET2, which finds no mapping and so is never stored
// (each request would re-run the failing search). paper-cold measures
// both.
func warmSkip(c *cell) bool {
	return (c.kernel == "MatM" && c.config == string(arch.HOM32)) ||
		(c.kernel == "NonSepFilter" && c.config == string(arch.HET2))
}

// setupWarmReplay fills a fresh disk cache with the paper cells and keeps
// each cold image's sha256. Each pass opens a new cache over the
// directory, as a new process would, and requests every cell twice: the
// first request must be served from disk, the second from memory, both
// with the cold image.
func setupWarmReplay(r *run) (func() error, error) {
	cells, err := r.paperCells(warmSkip)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.opts.dir, "warm-replay-")
	if err != nil {
		return nil, err
	}
	fill := mapcache.New(mapcache.Config{Dir: dir})
	for _, c := range cells {
		r.clock.tick()
		res, err := r.compile(fill, c)
		if err != nil {
			return nil, err
		}
		c.coldSum = sha256.Sum256(res.Image)
	}
	return func() error {
		cache := mapcache.New(mapcache.Config{Dir: dir})
		for _, source := range []string{"disk", "memory"} {
			for _, c := range cells {
				r.op(c.args(), func() error { return r.replay(cache, c, source) })
			}
		}
		return nil
	}, nil
}

// replay serves one cell from the cache and runs it.
func (r *run) replay(cache *mapcache.Cache, c *cell, source string) error {
	r.cur.cells++
	res, err := r.compile(cache, c)
	if err != nil {
		return err
	}
	if res.Source != source {
		return fmt.Errorf("%s: served by %s, want %s", c.label, res.Source, source)
	}
	if sha256.Sum256(res.Image) != c.coldSum {
		return fmt.Errorf("%s: %s image differs from the cold image", c.label, source)
	}
	return r.runProgram(c, res.Program)
}
