// Package core implements the CGRA mapping flows of the paper: the basic
// mapping of Das et al. (TCAD'18, the paper's reference [1]) and the
// context-memory aware mapping built on top of it, with its four dedicated
// steps — weighted CDFG traversal, approximate context-memory aware
// pruning (ACMAP), exact context-memory aware pruning (ECMAP) and
// constraint-aware binding (CAB).
package core

import (
	"context"

	"repro/internal/cdfg"
	"repro/internal/obs"
)

// Flow selects which of the paper's mapping-flow variants runs. The
// variants are cumulative, exactly like the paper's Figs 6–8 profile them.
type Flow int

const (
	// FlowBasic is the memory-unaware baseline of [1]: forward CDFG
	// traversal, no memory pruning.
	FlowBasic Flow = iota
	// FlowACMAP adds weighted traversal and approximate context-memory
	// aware pruning (paper §III-D1 + §III-D2, evaluated in Fig 6).
	FlowACMAP
	// FlowECMAP additionally applies exact context-memory aware pruning at
	// cycle boundaries (§III-D3, Fig 7).
	FlowECMAP
	// FlowCAB additionally blacklists full tiles during binding (§III-D4,
	// Fig 8). This is the complete context-memory aware mapping.
	FlowCAB
)

func (f Flow) String() string {
	switch f {
	case FlowBasic:
		return "basic"
	case FlowACMAP:
		return "basic+ACMAP"
	case FlowECMAP:
		return "basic+ACMAP+ECMAP"
	case FlowCAB:
		return "basic+ACMAP+ECMAP+CAB"
	}
	return "unknown"
}

// Flows lists the variants in the paper's evaluation order.
func Flows() []Flow { return []Flow{FlowBasic, FlowACMAP, FlowECMAP, FlowCAB} }

// memoryAware reports whether the flow honors context-memory constraints.
func (f Flow) memoryAware() bool { return f >= FlowACMAP }

// Options tunes the mapper. The zero value is not usable; start from
// DefaultOptions.
type Options struct {
	// Flow selects the mapping-flow variant.
	Flow Flow

	// Traversal is the CDFG traversal order. DefaultOptions picks the
	// paper's: forward for FlowBasic, weighted for the memory-aware flows;
	// tests and the Fig 5 experiment set it explicitly.
	Traversal cdfg.TraversalKind

	// BeamWidth bounds the number of partial mappings kept after the
	// stochastic pruning step.
	BeamWidth int
	// DetFraction is the fraction of the beam kept deterministically by
	// cost; the remainder is sampled by the stochastic threshold function.
	DetFraction float64
	// Seed seeds the stochastic pruning. Equal seeds reproduce mappings.
	Seed int64

	// CandidateCap bounds the children each bind step keeps: candidates
	// are realized best-first across the whole beam until this many
	// survive the memory filters (a window holds thousands of slots).
	CandidateCap int

	// SlackWindow is how many cycles beyond a node's earliest feasible
	// cycle the binder explores initially.
	SlackWindow int
	// MaxSlack bounds the adaptive widening of the window when no
	// candidate is found (the reroute graph transformation).
	MaxSlack int

	// MaxHold bounds how many cycles a value may be held live on a
	// producer's output register for a delayed neighbor read; longer waits
	// must buy a register writeback or moves instead.
	MaxHold int

	// Recompute enables the recompute graph transformation: duplicating a
	// producer whose operands are constants on the consumer's tile when
	// routing fails.
	Recompute bool

	// ExactNodeBudget bounds the exact backend's branch-and-bound search,
	// in realized partial mappings (the unit Stats.Partials counts). Zero
	// means DefaultExactNodeBudget. The heuristic backend ignores it.
	ExactNodeBudget int

	// Obs, when non-nil, receives the mapper's instrumentation: registry
	// counters, arena gauges and per-Map/per-block timeline spans. A nil
	// recorder keeps the hot path allocation-free (pinned by
	// BenchmarkCoreMapObsOff); instrumentation never influences the search,
	// so mappings are byte-identical with and without a recorder.
	Obs *obs.Recorder

	// ObsTID is the trace track (Chrome trace tid) the mapper's spans land
	// on. Concurrent Map calls sharing one recorder — portfolio seeds, the
	// experiment runner's prefetch workers, oracle sweep workers — must use
	// distinct tids so per-track timestamps stay monotone and span nesting
	// reconstructs per worker (cgratrace). Purely observational: excluded
	// from Fingerprint, never influences the search.
	ObsTID int

	// ctx, when set (by MapPortfolio), lets Map abort between basic
	// blocks and between retry attempts once the context is cancelled.
	ctx context.Context

	// arena, when set, is the search scratch state Map runs on: the
	// exact backend hands its own to the warm-start Map and each
	// MapPortfolio worker hands its own to every job it runs. Map
	// otherwise takes one from the process-wide free list and puts it back
	// on return (see arena.go). An arena is never shared concurrently.
	arena *mapperArena

	// incumbent, when set (by MapPortfolio on non-exhaustive backend jobs),
	// lets Map abandon the search between basic blocks once the committed
	// words plus the remaining blocks' floors provably cannot beat the best
	// mapping another portfolio job already completed (ErrPrunedByIncumbent).
	// Plain Map calls never set it, so single-seed mappings — including the
	// 140 golden checksums — are untouched. incJob is this job's index in
	// the portfolio job list, the final component of the deterministic
	// (words, seed, job) tie-break.
	incumbent *incumbent
	incJob    int
}

// ctxErr reports the pending cancellation, if any.
func (o *Options) ctxErr() error {
	if o.ctx == nil {
		return nil
	}
	select {
	case <-o.ctx.Done():
		return o.ctx.Err()
	default:
		return nil
	}
}

// DefaultOptions returns the tuning used throughout the evaluation.
func DefaultOptions(flow Flow) Options {
	tr := cdfg.TraverseForward
	if flow.memoryAware() {
		tr = cdfg.TraverseWeighted
	}
	return Options{
		Flow:         flow,
		Traversal:    tr,
		BeamWidth:    24,
		DetFraction:  0.5,
		Seed:         1,
		CandidateCap: 48,
		SlackWindow:  4,
		MaxSlack:     24,
		MaxHold:      3,
		Recompute:    true,
	}
}

func (o *Options) sanitize() {
	if o.BeamWidth <= 0 {
		o.BeamWidth = 1
	}
	if o.DetFraction < 0 || o.DetFraction > 1 {
		o.DetFraction = 0.5
	}
	if o.CandidateCap <= 0 {
		o.CandidateCap = 16
	}
	if o.SlackWindow <= 0 {
		o.SlackWindow = 2
	}
	if o.MaxSlack < o.SlackWindow {
		o.MaxSlack = o.SlackWindow
	}
	if o.MaxHold < 1 {
		o.MaxHold = 1
	}
}
