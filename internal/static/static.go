// Package static is the semantic static analyzer for assembled
// bitstreams. Where internal/verify proves an asm.Program is *legal*
// (encodable, capacity-respecting, branch-table-consistent), this
// package proves what the program *does* without running it: which
// blocks can execute, which context words compute values anything
// observable depends on, which operands are compile-time constants, and
// how many cycles and picojoules an execution can cost.
//
// Everything is built on one fixed-point dataflow framework (solver.go):
// a join-lattice worklist solver over the bitstream's block CFG, run
// forward or backward, with optional per-edge transfer for branch
// pruning. Four concrete analyses instantiate it:
//
//  1. reachability — blocks executable from the entry block through
//     branch ops (reach.go);
//  2. liveness + def-use — faint-variable liveness over per-tile
//     output registers and RF entries (live.go), and the def-use chains
//     Report prints (defuse.go);
//  3. constant propagation — SCCP-style constant/route propagation
//     through move/hold chains, refining reachability where a branch
//     condition is provably constant (constprop.go);
//  4. cycle/energy bounds — exact per-block activity tables plus
//     stall-count bounds that bracket power.ActivityEnergy for any
//     execution (bounds.go).
//
// The payoff pass is Strip (strip.go): dead-context elimination that
// rewrites provably-dead ops and moves into pnop idles and drops
// unreachable blocks, preserving the simulator-observable behavior
// (cycles, stalls, block trace, final memory) bit for bit.
//
// The analyzer is differentially tested like every other subsystem: the
// oracle cross-checks its claims against simulated activity and fails
// a run with the static-unsound outcome when they disagree.
package static

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/obs"
)

// Analysis is the result of analyzing one assembled program. All slices
// indexed by block are indexed by cdfg.BBID.
type Analysis struct {
	Prog *asm.Program
	CFG  *CFG

	// StructReachable is branch-agnostic reachability: a block is marked
	// when some path of CFG edges leads to it from the entry block.
	StructReachable []bool
	// Reachable refines StructReachable through constant propagation: a
	// branch whose condition is a provable constant only passes control
	// to the arm it takes. Reachable[b] ⇒ StructReachable[b].
	Reachable []bool
	// BranchConst[b] is the provable constancy of block b's branch
	// condition: BranchUnknown, BranchTaken (condition != 0, control
	// goes to Succs[0]) or BranchNotTaken (condition == 0, Succs[1]).
	BranchConst []BranchFact
	// Live is the faint-variable liveness solution; Live.Dead reports
	// provably-dead context cells.
	Live *Liveness

	// consts is the constant-propagation fixed point ConstOperands
	// replays.
	consts *Solution[cpState]
	obs    *obs.Recorder
}

// BranchFact is the provable constancy of a block's branch condition.
type BranchFact int8

const (
	BranchUnknown  BranchFact = iota // condition not provably constant
	BranchTaken                      // condition provably != 0: Succs[0]
	BranchNotTaken                   // condition provably == 0: Succs[1]
)

// Option configures an analysis.
type Option func(*Analysis)

// WithObs attaches an instrumentation recorder: Analyze and Strip
// publish static.* counters on it. A nil recorder is a no-op.
func WithObs(r *obs.Recorder) Option {
	return func(a *Analysis) { a.obs = r }
}

// Analyze computes what Strip and DeadCells read: the CFG, structural
// and constant-refined reachability, branch facts and liveness. The
// def-use chains, the cost bounds and the constant-operand count are
// built on demand by the methods that read them (Report, CheckRun,
// ActivityBounds, ConstOperands), so an Analysis is read-only once
// Analyze returns. The program must be structurally sound (segments
// spanning their block lengths, as the pnop verifier pass demands);
// Analyze errors out otherwise rather than guessing.
func Analyze(p *asm.Program, opts ...Option) (*Analysis, error) {
	a := &Analysis{Prog: p}
	for _, o := range opts {
		o(a)
	}
	cfg, err := BuildCFG(p)
	if err != nil {
		return nil, fmt.Errorf("static: %w", err)
	}
	a.CFG = cfg
	a.StructReachable = Reachability(cfg)
	a.Reachable, a.BranchConst, a.consts = propagateConsts(cfg)
	// Constant-refined reachability must be a subset of the structural
	// one; a violation is an analyzer bug, not a program property.
	for bb, r := range a.Reachable {
		if r && !a.StructReachable[bb] {
			return nil, fmt.Errorf("static: block %d const-reachable but not CFG-reachable", bb)
		}
	}
	a.Live = solveLiveness(cfg, a.Reachable, a.BranchConst)
	if a.obs.Enabled() {
		a.record()
	}
	return a, nil
}

// DeadCells counts the provably-dead occupied context cells, split into
// operation and move words.
func (a *Analysis) DeadCells() (ops, moves int) {
	return a.Live.deadOps, a.Live.deadMoves
}

// ConstOperands counts the register/route operand reads (over reachable
// blocks) the constant propagation proved to carry one single value on
// every execution.
func (a *Analysis) ConstOperands() int { return countConstOperands(a.CFG, a.consts) }

// UnreachableBlocks counts blocks the refined reachability rules out.
func (a *Analysis) UnreachableBlocks() int {
	n := 0
	for _, r := range a.Reachable {
		if !r {
			n++
		}
	}
	return n
}

// record publishes the analysis outcome on the attached recorder.
func (a *Analysis) record() {
	r := a.obs
	ops, moves := a.DeadCells()
	r.Counter("static.analyses").Inc()
	r.Counter("static.blocks").Add(int64(len(a.CFG.Blocks)))
	r.Counter("static.blocks_unreachable").Add(int64(a.UnreachableBlocks()))
	r.Counter("static.dead_ops").Add(int64(ops))
	r.Counter("static.dead_moves").Add(int64(moves))
	r.Counter("static.const_operands").Add(int64(a.ConstOperands()))
}
