// Package sim is the cycle-accurate functional simulator of the CGRA. It
// executes assembled per-tile contexts in lockstep, modeling the torus
// operand network (neighbor output-register reads), register files,
// constant files, the logarithmic interconnect's global stalls, pnop
// clock gating, and per-block control transfer with branch broadcast.
//
// The simulator both produces the latency numbers of the paper's
// evaluation and functionally validates mappings: the data memory after a
// run must equal the memory after interpreting the CDFG directly.
package sim

import (
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/isa"
	"repro/internal/obs"
)

// TileCounters aggregates per-tile activity for the energy model.
type TileCounters struct {
	// Fetches counts context words fetched (ops + moves + pnop words);
	// during a pnop's idle cycles the context memory is not re-read.
	Fetches int64
	// OpCycles and MoveCycles count cycles spent executing operations and
	// moves respectively.
	OpCycles   int64
	MoveCycles int64
	// IdleCycles counts clock-gated pnop cycles.
	IdleCycles int64
	// ALUOps/MemOps/BranchOps decompose OpCycles by operation class
	// (ALUOps + MemOps + BranchOps == OpCycles); PnopFetches is the pnop
	// share of Fetches (Fetches == OpCycles + MoveCycles + PnopFetches).
	ALUOps      int64
	MemOps      int64
	BranchOps   int64
	PnopFetches int64
	// RFReads/RFWrites count regular-register-file accesses.
	RFReads  int64
	RFWrites int64
	// CRFReads counts constant-register-file reads.
	CRFReads int64
	// MemReads/MemWrites count data-memory accesses through the LSU.
	MemReads  int64
	MemWrites int64
}

// Add accumulates o into c.
func (c *TileCounters) Add(o TileCounters) {
	c.Fetches += o.Fetches
	c.OpCycles += o.OpCycles
	c.MoveCycles += o.MoveCycles
	c.IdleCycles += o.IdleCycles
	c.ALUOps += o.ALUOps
	c.MemOps += o.MemOps
	c.BranchOps += o.BranchOps
	c.PnopFetches += o.PnopFetches
	c.RFReads += o.RFReads
	c.RFWrites += o.RFWrites
	c.CRFReads += o.CRFReads
	c.MemReads += o.MemReads
	c.MemWrites += o.MemWrites
}

// ActivityReport is the observed-activity view of one execution: the
// cycle-accurate per-tile counters plus the run totals, decoupled from the
// live Result so consumers (internal/power, serialization) can hold it
// without the block-execution map.
type ActivityReport struct {
	Cycles      int64
	StallCycles int64
	ConfigWords int
	Tiles       []TileCounters
}

// Activity extracts the result's activity report (tile counters copied).
func (r *Result) Activity() *ActivityReport {
	return &ActivityReport{
		Cycles:      r.Cycles,
		StallCycles: r.StallCycles,
		ConfigWords: r.ConfigWords,
		Tiles:       append([]TileCounters(nil), r.Tiles...),
	}
}

// Result is one simulated execution.
type Result struct {
	// Cycles is the total execution time including stalls (and excluding
	// configuration, reported separately).
	Cycles int64
	// StallCycles are global stalls from memory conflicts.
	StallCycles int64
	// ConfigWords is the total context-memory words loaded before
	// execution (the one-time configuration of the loosely coupled CGRA).
	ConfigWords int
	// BlockExecs counts executions per basic block.
	BlockExecs map[cdfg.BBID]int64
	// Tiles holds per-tile activity counters.
	Tiles []TileCounters
}

// MaxCycles bounds a simulation so broken control flow cannot spin
// forever.
const MaxCycles = 500_000_000

// Sim is a reusable simulator instance for one program.
type Sim struct {
	prog *asm.Program
	// expanded[bb][tile] is the per-cycle instruction grid (nil = idle),
	// decoded once from the segments: the input of lowering and of the
	// counters of a run that stops inside a block.
	expanded [][][]*isa.Instr
	// low is the pre-decoded struct-of-arrays form the engine executes
	// (see engine.go), built once per program next to expanded.
	low *lowered
	// obs, when non-nil, receives run counters and the cycle-domain block
	// timeline (see WithObs).
	obs *obs.Recorder
}

// Option configures a simulator instance.
type Option func(*Sim)

// WithObs attaches an instrumentation recorder: each Run publishes its
// aggregate activity counters and stamps one timeline event per
// basic-block execution in the cycle domain (PIDSim, one simulated cycle
// rendered as one microsecond), capped at blockEventCap events per run so
// long executions cannot flood the sink (the overflow is counted on
// sim.trace.truncated). A nil recorder is a no-op.
func WithObs(r *obs.Recorder) Option {
	return func(s *Sim) { s.obs = r }
}

// blockEventCap bounds the block-execution timeline events one Run emits.
const blockEventCap = 4096

// decodedContexts is the program's derived execution form, published on
// the program's memo slot so repeated simulator instances of the same
// program (oracle sweeps, verification reruns, experiment workers)
// decode the context words once: the per-cycle instruction grid and the
// lowered struct-of-arrays tables the engine executes (see engine.go).
// Neither is mutated after decode.
type decodedContexts struct {
	expanded [][][]*isa.Instr
	low      *lowered
}

// New prepares a simulator for the program.
func New(p *asm.Program, opts ...Option) (*Sim, error) {
	s := &Sim{prog: p}
	for _, o := range opts {
		o(s)
	}
	if d, ok := p.Memo().(*decodedContexts); ok {
		s.expanded = d.expanded
		s.low = d.low
		return s, nil
	}
	start := time.Now()
	nb, n := len(p.Graph.Blocks), p.Grid.NumTiles()
	s.expanded = make([][][]*isa.Instr, nb)
	for bb := 0; bb < nb; bb++ {
		s.expanded[bb] = make([][]*isa.Instr, n)
		L := p.BlockLens[bb]
		cells := make([]*isa.Instr, n*L) // the block's grids, tile by tile
		for t := range s.expanded[bb] {
			grid, err := p.Tiles[t].Segments[bb].Expand(cells[t*L : t*L : (t+1)*L])
			if err != nil {
				return nil, fmt.Errorf("sim: tile %d block %q: %w", t+1, p.Graph.Blocks[bb].Name, err)
			}
			s.expanded[bb][t] = grid
		}
	}
	s.low = lower(p, s.expanded)
	p.SetMemo(&decodedContexts{expanded: s.expanded, low: s.low})
	if s.obs.Enabled() {
		s.obs.Counter("sim.engine.predecode_ns").Add(time.Since(start).Nanoseconds())
	}
	return s, nil
}

// Run executes the program against the memory (modified in place). It
// is the batch-of-one form of Engine.RunBatch.
func (s *Sim) Run(mem cdfg.Memory) (*Result, error) {
	results, errs := s.Engine().run([]cdfg.Memory{mem})
	return results[0], errs[0]
}

// recordRun publishes a completed run's aggregate activity to the
// attached recorder.
func (s *Sim) recordRun(res *Result, dropped int64) {
	r := s.obs
	if !r.Enabled() {
		return
	}
	var agg TileCounters
	for i := range res.Tiles {
		agg.Add(res.Tiles[i])
	}
	r.Counter("sim.runs").Inc()
	r.Counter("sim.cycles").Add(res.Cycles)
	r.Counter("sim.stall_cycles").Add(res.StallCycles)
	r.Counter("sim.config_words").Add(int64(res.ConfigWords))
	r.Counter("sim.fetches").Add(agg.Fetches)
	r.Counter("sim.alu_ops").Add(agg.ALUOps)
	r.Counter("sim.mem_ops").Add(agg.MemOps)
	r.Counter("sim.branch_ops").Add(agg.BranchOps)
	r.Counter("sim.moves").Add(agg.MoveCycles)
	r.Counter("sim.pnop_fetches").Add(agg.PnopFetches)
	r.Counter("sim.idle_cycles").Add(agg.IdleCycles)
	r.Counter("sim.rf_reads").Add(agg.RFReads)
	r.Counter("sim.rf_writes").Add(agg.RFWrites)
	r.Counter("sim.crf_reads").Add(agg.CRFReads)
	r.Counter("sim.mem_reads").Add(agg.MemReads)
	r.Counter("sim.mem_writes").Add(agg.MemWrites)
	if dropped > 0 {
		r.Counter("sim.trace.truncated").Add(dropped)
	}
}
