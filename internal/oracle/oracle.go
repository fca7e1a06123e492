// Package oracle is the property-based differential-testing layer of the
// repository: a seeded random CDFG generator (internal/cdfg.Generate), a
// differential pipeline that checks each graph under every mapping mode ×
// context-memory configuration, a sweep that fans seeded graphs over the
// matrix, a greedy shrinker that minimizes any failing graph, and the
// .repro format that keeps every minimized failure replaying in `go test`.
//
// Pipeline.Check has two modes. By default it maps, assembles and
// simulates the graph and compares the final data memory against the
// reference interpreter, then cross-checks the batched engine, the static
// analyzer and (with a cache directory) the mapping cache. With
// Pipeline.Backends set it instead diffs two mapper backends against each
// other: both must produce verifier-clean mappings, and the subject must
// never cost more context words than the reference. Sweep, the report,
// Shrink, the reproducer format and the recorder counters serve both modes.
//
// The paper's claim rests on every mapping variant producing semantically
// identical programs whose only difference is context-memory cost; the
// oracle checks exactly that on the long tail of graph shapes the seven
// fixed kernels never reach.
package oracle

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/mapcache"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/static"
	"repro/internal/verify"
)

// Mode is one mapping variant of the differential matrix. Unlike
// core.Flow it includes the weighted-traversal-only variant (the paper's
// Fig 5 column), so the matrix covers basic, weighted, ACMAP, ECMAP, CAB.
type Mode int

const (
	ModeBasic Mode = iota
	ModeWeighted
	ModeACMAP
	ModeECMAP
	ModeCAB
	numModes
)

// Modes lists the five mapping variants in evaluation order.
func Modes() []Mode {
	return []Mode{ModeBasic, ModeWeighted, ModeACMAP, ModeECMAP, ModeCAB}
}

func (m Mode) String() string {
	switch m {
	case ModeBasic:
		return "basic"
	case ModeWeighted:
		return "weighted"
	case ModeACMAP:
		return "acmap"
	case ModeECMAP:
		return "ecmap"
	case ModeCAB:
		return "cab"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ModeByName returns the mode with the given String() name.
func ModeByName(name string) (Mode, error) {
	for _, m := range Modes() {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("oracle: unknown mode %q", name)
}

// Options returns the mapper tuning for the mode.
func (m Mode) Options() core.Options {
	switch m {
	case ModeBasic:
		return core.DefaultOptions(core.FlowBasic)
	case ModeWeighted:
		opt := core.DefaultOptions(core.FlowBasic)
		opt.Traversal = cdfg.TraverseWeighted
		return opt
	case ModeACMAP:
		return core.DefaultOptions(core.FlowACMAP)
	case ModeECMAP:
		return core.DefaultOptions(core.FlowECMAP)
	default:
		return core.DefaultOptions(core.FlowCAB)
	}
}

// memoryAware reports whether the mode's flow enforces the context-memory
// constraint during mapping.
func (m Mode) memoryAware() bool { return m >= ModeACMAP }

// Cell is one point of the differential matrix.
type Cell struct {
	Mode   Mode
	Config arch.ConfigName
}

func (c Cell) String() string { return c.Mode.String() + "/" + string(c.Config) }

// AllCells returns the full 5-mode × 4-configuration matrix.
func AllCells() []Cell {
	var cells []Cell
	for _, m := range Modes() {
		for _, cfg := range arch.ConfigNames() {
			cells = append(cells, Cell{Mode: m, Config: cfg})
		}
	}
	return cells
}

// Outcome classifies one cell check.
type Outcome int

const (
	// Pass: the mapped program's final memory matched the interpreter.
	Pass Outcome = iota
	// NoMapping: the mapper failed cleanly ("no mapping solution"), an
	// acceptable outcome the paper's Figs 6–8 also report.
	NoMapping
	// Overflow: a memory-unaware mode produced a mapping that does not
	// fit the configuration's context memories; the program cannot be
	// loaded, so nothing further is checked.
	Overflow
	// Diverged: the simulated final memory differed from the interpreter
	// — a mapper, assembler or simulator bug.
	Diverged
	// Failed: a pipeline stage that must not fail did (assembling a
	// validated mapping, an aware flow overflowing, a simulator error).
	Failed
	// Illegal: the static verifier (internal/verify) rejected the mapping
	// or assembled program. A bitstream that simulates correctly but fails
	// static verification is still a bug — either in the mapper or in a
	// verifier pass — so Illegal counts as one.
	Illegal
	// Inverted: a cross-backend check found the exact backend returning a
	// costlier mapping than the heuristic. The exact search warm-starts
	// from the heuristic's mapping, so an inversion is unreachable short
	// of a backend bug and counts as one.
	Inverted
	// BatchDiverged: a multi-lane batch of the struct-of-arrays engine
	// (sim.Engine) disagreed with the verified single-lane run on
	// duplicated lanes of its input — results, counters, and final
	// memories must be bit-identical, so any difference is an engine bug.
	BatchDiverged
	// StaticUnsound: the static analyzer's claims about a verifier-clean
	// program contradicted its simulated behavior — an executed block
	// claimed unreachable, activity outside the static bounds, or a
	// stripped rewrite that fails re-verification or changes observable
	// behavior. Soundness is the analyzer's whole contract, so any
	// contradiction is a bug.
	StaticUnsound
	// CacheStale: the mapping cache served a warm bitstream that is not
	// byte-identical to the cold compile of the same request — the content
	// address, the stored graph text, or a cache tier returned the wrong
	// entry. The cache's contract is byte-exact reuse, so any difference
	// is a bug.
	CacheStale
)

func (o Outcome) String() string {
	switch o {
	case Pass:
		return "pass"
	case NoMapping:
		return "no-mapping"
	case Overflow:
		return "overflow"
	case Diverged:
		return "diverged"
	case Failed:
		return "failed"
	case Illegal:
		return "illegal"
	case Inverted:
		return "inverted"
	case BatchDiverged:
		return "batch-diverged"
	case StaticUnsound:
		return "static-unsound"
	case CacheStale:
		return "cache-stale"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Bug reports whether the outcome indicates a correctness bug.
func (o Outcome) Bug() bool {
	return o == Diverged || o == Failed || o == Illegal || o == Inverted ||
		o == BatchDiverged || o == StaticUnsound || o == CacheStale
}

// CellResult is the outcome of checking one graph in one cell.
type CellResult struct {
	Cell    Cell
	Outcome Outcome
	// Err carries the divergence (a *sim.DivergenceError for Diverged)
	// or failure detail; nil for Pass.
	Err error
	// Cycles is the simulated execution time of a run that completed.
	Cycles int64
	// RefWords/SubWords are each backend's total context words in a
	// cross-backend check, -1 when that backend found no mapping; zero in
	// an interpreter check.
	RefWords int
	SubWords int
}

// Pipeline runs the differential check. The zero value is the production
// mapper-vs-interpreter pipeline; Backends switches it to the
// cross-backend differential.
type Pipeline struct {
	// Obs, when non-nil, receives the oracle's instrumentation: per-check
	// outcome-class counters, sweep progress events and shrink-step events.
	// Instrumentation never influences which outcome a check produces.
	Obs *obs.Recorder
	// ObsTID is the trace track the pipeline's mapper spans land on
	// (core.Options.ObsTID). The sweeps run each worker on a pipeline
	// copy with ObsTID set to the worker index, so a trace of a parallel
	// sweep shows per-worker occupancy instead of one interleaved track.
	// Purely observational: it never affects outcomes.
	ObsTID int
	// ExactNodeBudget bounds the exact backend's search in cross-backend
	// checks (core.Options.ExactNodeBudget); zero means
	// core.DefaultExactNodeBudget. Sweeps
	// set it so wall time scales with the graph count, not the default
	// search budget.
	ExactNodeBudget int
	// CacheDir, when non-empty, adds the mapping-cache differential to
	// every interpreter check: the cell's compiled program is pushed
	// through a two-tier cache rooted there (cold), then requested again
	// through a fresh cache over the same directory — forcing the disk
	// tier, the tier an independent process would hit — and the two
	// bitstreams must be byte-identical. Any difference is CacheStale.
	CacheDir string
	// Backends, when non-nil, makes Check the cross-backend differential
	// (checkBackends): the pair's two backends map each graph and must
	// agree, and nothing is simulated. Its counters land under
	// oracle.backend_diff.* and its reproducers carry a backends line.
	Backends *BackendPair

	// fault holds the fault-injection hooks the package's tests plant to
	// prove each differential catches the bug class it exists for.
	fault faultHooks
}

// faultHooks corrupt one stage's output so a test can prove the outcome
// it must surface as. A nil hook is off.
type faultHooks struct {
	// mapping corrupts the mapping between the memory-fit check and
	// assembly (the subject's mapping in a cross-backend check) —
	// upstream of the static verifier, so structural faults surface as
	// Illegal.
	mapping func(*core.Mapping)
	// program corrupts the assembled program after static verification
	// and before simulation, so the fault surfaces dynamically as
	// Diverged.
	program func(*asm.Program)
	// batch corrupts the batched engine's lane inputs after the verified
	// run, so the difference surfaces as BatchDiverged.
	batch func(lanes []cdfg.Memory)
	// stripped corrupts the dead-context-stripped program before its
	// re-verification, so the difference surfaces as StaticUnsound.
	stripped func(*asm.Program)
	// cacheEntry corrupts the on-disk cache entries between the cold and
	// warm passes. A corruption the envelope checksum or the re-verify
	// gate catches forces a recompute and still passes; a legal-but-wrong
	// bitstream that slips through surfaces as CacheStale.
	cacheEntry func(dir string, g *cdfg.Graph, grid *arch.Grid) error
}

// batchLanes is the width of the batch differential every check runs:
// two duplicated lanes exercise the batch dimension without dominating
// the cell's cost.
const batchLanes = 2

// Check runs the pipeline's differential on one graph in one cell. By
// default it maps the graph, assembles and simulates it, and compares the
// final data memory against the reference interpreter; with Backends set
// it diffs the two backends' mappings instead (checkBackends).
func (p *Pipeline) Check(g *cdfg.Graph, mem cdfg.Memory, cell Cell, seed int64) CellResult {
	var r CellResult
	if p.Backends != nil {
		r = p.checkBackends(g, cell, seed)
	} else {
		r = p.check(g, mem, cell, seed)
	}
	p.recordCheck(r)
	return r
}

func (p *Pipeline) check(g *cdfg.Graph, mem cdfg.Memory, cell Cell, seed int64) CellResult {
	r := CellResult{Cell: cell}
	opt := cell.Mode.Options()
	opt.Seed = seed
	opt.Obs = p.Obs
	opt.ObsTID = p.ObsTID
	m, err := core.Map(g, arch.MustGrid(cell.Config), opt)
	if err != nil {
		r.Outcome, r.Err = NoMapping, err
		return r
	}
	if ok, tile := m.FitsMemory(); !ok {
		if cell.Mode.memoryAware() {
			r.Outcome = Failed
			r.Err = fmt.Errorf("oracle: %s returned a mapping overflowing tile %d", cell, tile+1)
		} else {
			r.Outcome = Overflow
			r.Err = fmt.Errorf("oracle: context overflow on tile %d", tile+1)
		}
		return r
	}
	if p.fault.mapping != nil {
		p.fault.mapping(m)
	}
	prog, err := asm.Assemble(m)
	if err != nil {
		r.Outcome, r.Err = Failed, fmt.Errorf("oracle: assemble: %w", err)
		return r
	}
	// Static legality is part of the differential property: a program that
	// would simulate correctly but fails verification is still a bug
	// (in the mapper or in a verifier pass) and gets shrunk like one.
	if vres := verify.Run(&verify.Context{Graph: g, Mapping: m, Program: prog}); !vres.OK() {
		r.Outcome, r.Err = Illegal, fmt.Errorf("oracle: static verification: %w", vres.Err())
		return r
	}
	if p.fault.program != nil {
		p.fault.program(prog)
	}
	s, err := sim.New(prog, sim.WithObs(p.Obs))
	if err != nil {
		r.Outcome, r.Err = Failed, fmt.Errorf("oracle: sim: %w", err)
		return r
	}
	res, _, got, err := s.RunVerified(mem)
	if res != nil {
		r.Cycles = res.Cycles
	}
	if err != nil {
		var div *sim.DivergenceError
		if errors.As(err, &div) {
			r.Outcome, r.Err = Diverged, err
		} else {
			r.Outcome, r.Err = Failed, err
		}
		return r
	}
	if outcome, err := p.checkBatch(s, mem, res, got); err != nil {
		r.Outcome, r.Err = outcome, err
		return r
	}
	if outcome, err := p.checkStatic(prog, mem, res, got); err != nil {
		r.Outcome, r.Err = outcome, err
		return r
	}
	if outcome, err := p.checkCache(g, cell, seed, m, prog); err != nil {
		r.Outcome, r.Err = outcome, err
		return r
	}
	r.Outcome = Pass
	return r
}

// checkCache is the mapping-cache differential a clean check is followed
// by when CacheDir is set: store the cell's program cold, read it back
// warm through a fresh cache instance (so the entry travels through the
// disk tier and its verify gate), and require the two bitstreams to be
// byte-identical. The compute callback hands back the already-compiled
// program, so a recompute after a rejected entry is free and
// by construction identical — only a wrong entry the tiers actually
// serve can differ.
func (p *Pipeline) checkCache(g *cdfg.Graph, cell Cell, seed int64, m *core.Mapping, prog *asm.Program) (Outcome, error) {
	if p.CacheDir == "" {
		return Pass, nil
	}
	opt := cell.Mode.Options()
	opt.Seed = seed
	grid := arch.MustGrid(cell.Config)
	req := mapcache.Request{Graph: g, Grid: grid, Opt: opt}
	compute := func() (mapcache.Computed, error) {
		return mapcache.Computed{Mapping: m, Program: prog, Seed: seed, Backend: core.DefaultBackend().Name()}, nil
	}
	cold, err := mapcache.New(mapcache.Config{Dir: p.CacheDir, Obs: p.Obs}).GetOrStore(req, compute)
	if err != nil {
		return Failed, fmt.Errorf("oracle: cache cold pass: %w", err)
	}
	if p.fault.cacheEntry != nil {
		if err := p.fault.cacheEntry(p.CacheDir, g, grid); err != nil {
			return Failed, fmt.Errorf("oracle: mutate cache entry: %w", err)
		}
	}
	warm, err := mapcache.New(mapcache.Config{Dir: p.CacheDir, Obs: p.Obs}).GetOrStore(req, compute)
	if err != nil {
		return Failed, fmt.Errorf("oracle: cache warm pass: %w", err)
	}
	if !bytes.Equal(cold.Image, warm.Image) {
		return CacheStale, fmt.Errorf("oracle: warm cache bitstream (source %s) is not byte-identical to the cold compile", warm.Source)
	}
	return Pass, nil
}

// checkBatch is the batched-engine differential a clean verification is
// followed by: the verified single-lane run's result and final memory
// on the cell's input must be reproduced bit-for-bit — Result, activity
// counters, final memory — by every lane of a RunBatch over duplicated
// inputs. Any difference is BatchDiverged.
func (p *Pipeline) checkBatch(s *sim.Sim, mem cdfg.Memory, ref *sim.Result, refMem cdfg.Memory) (Outcome, error) {
	bmems := make([]cdfg.Memory, batchLanes)
	for l := range bmems {
		bmems[l] = mem.Clone()
	}
	if p.fault.batch != nil {
		p.fault.batch(bmems)
	}
	bres, err := s.Engine().RunBatch(bmems)
	if err != nil {
		return BatchDiverged, fmt.Errorf("oracle: batch engine failed where the single-lane run passed: %w", err)
	}
	for l := range bmems {
		if !reflect.DeepEqual(bres[l], ref) {
			return BatchDiverged, fmt.Errorf("oracle: batch lane %d/%d result diverged from the verified run", l, batchLanes)
		}
		if !reflect.DeepEqual(bmems[l], refMem) {
			return BatchDiverged, fmt.Errorf("oracle: batch lane %d/%d final memory diverged from the verified run", l, batchLanes)
		}
	}
	return Pass, nil
}

// checkStatic is the static-analyzer cross-check a clean batch
// differential is followed by: the analyzer's claims about the
// verifier-clean program must hold on the verified run (reachability,
// exact activity tables, cycle/stall bounds), and the dead-context-
// stripped rewrite must re-verify clean and reproduce the run exactly
// — same stalls, block trace and final memory, cycles shifted by
// precisely the reported elision delta. Any contradiction is
// StaticUnsound: the analyzer (or the rewriter) lied about this
// program.
func (p *Pipeline) checkStatic(prog *asm.Program, mem cdfg.Memory, res *sim.Result, refMem cdfg.Memory) (Outcome, error) {
	a, err := static.Analyze(prog, static.WithObs(p.Obs))
	if err != nil {
		return StaticUnsound, fmt.Errorf("oracle: static analysis rejected a verifier-clean program: %w", err)
	}
	if err := a.CheckRun(res); err != nil {
		return StaticUnsound, err
	}
	stripped, rep, err := static.Strip(prog, a, static.WithObs(p.Obs))
	if err != nil {
		return StaticUnsound, fmt.Errorf("oracle: strip: %w", err)
	}
	if p.fault.stripped != nil {
		p.fault.stripped(stripped)
	}
	if vres := verify.CheckProgram(stripped); !vres.OK() {
		return StaticUnsound, fmt.Errorf("oracle: stripped program fails re-verification: %w", vres.Err())
	}
	s2, err := sim.New(stripped)
	if err != nil {
		return StaticUnsound, fmt.Errorf("oracle: sim of stripped program: %w", err)
	}
	gotMem := mem.Clone()
	res2, err := s2.Run(gotMem)
	if err != nil {
		return StaticUnsound, fmt.Errorf("oracle: stripped program trapped where the original ran: %w", err)
	}
	switch {
	case res2.Cycles != res.Cycles-rep.CycleDelta(res.BlockExecs):
		return StaticUnsound, fmt.Errorf("oracle: stripped run took %d cycles, original %d with reported delta %d",
			res2.Cycles, res.Cycles, rep.CycleDelta(res.BlockExecs))
	case res2.StallCycles != res.StallCycles:
		return StaticUnsound, fmt.Errorf("oracle: stripped run stalled %d cycles, original %d",
			res2.StallCycles, res.StallCycles)
	case !reflect.DeepEqual(res2.BlockExecs, res.BlockExecs):
		return StaticUnsound, fmt.Errorf("oracle: stripped run's block trace diverged from the original")
	case !reflect.DeepEqual(gotMem, refMem):
		return StaticUnsound, fmt.Errorf("oracle: stripped run's final memory diverged from the original")
	}
	return Pass, nil
}

// CheckAll runs Check over the given cells (AllCells when nil) and
// returns the per-cell results in order.
func (p *Pipeline) CheckAll(g *cdfg.Graph, mem cdfg.Memory, cells []Cell, seed int64) []CellResult {
	if cells == nil {
		cells = AllCells()
	}
	out := make([]CellResult, len(cells))
	for i, c := range cells {
		out[i] = p.Check(g, mem, c, seed)
	}
	return out
}
