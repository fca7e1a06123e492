package oracle

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/verify"
)

// Cross-backend differential mode (Pipeline.Backends): instead of diffing
// one mapper against the reference interpreter, diff two independent
// mapper implementations against each other. Both must produce
// verifier-clean mappings, and the exact backend — warm-started from the
// heuristic's result — must never cost more context-memory words. The
// property is far stronger than self-consistency: the two backends share
// only the binder primitives, not the search, so a search bug in either
// surfaces as a disagreement.

// BackendPair names the two backends a differential check runs: Ref is
// the reference (whose result the subject must match or beat on cost) and
// Sub the subject under test.
type BackendPair struct {
	Ref core.Backend
	Sub core.Backend
}

// DefaultBackendPair diffs the exact branch-and-bound search against the
// heuristic — the pairing the acceptance sweep and CI smoke run.
func DefaultBackendPair() *BackendPair {
	return &BackendPair{Ref: core.HeuristicBackend{}, Sub: core.ExactBackend{}}
}

func (bp BackendPair) String() string {
	return bp.Ref.Name() + " vs " + bp.Sub.Name()
}

// BackendPairByNames resolves a pair from backend names (the .repro
// metadata form).
func BackendPairByNames(ref, sub string) (*BackendPair, error) {
	r, err := core.BackendByName(ref)
	if err != nil {
		return nil, err
	}
	s, err := core.BackendByName(sub)
	if err != nil {
		return nil, err
	}
	return &BackendPair{Ref: r, Sub: s}, nil
}

// checkBackends maps the graph with both backends of p.Backends in the
// given cell and classifies the disagreement, if any:
//
//   - both fail to map: NoMapping (agreement on infeasibility).
//   - the subject fails where the reference succeeded: Failed — the
//     exact backend warm-starts from the reference, so this is
//     unreachable short of a backend bug.
//   - either produced mapping overflows under a memory-aware mode,
//     fails to assemble, or fails static verification: Failed/Illegal,
//     naming the guilty backend.
//   - both map but the subject costs more words: Inverted.
//
// The mapping fault hook, when set, corrupts the subject's mapping before
// the legality checks — the fault-injection tests use it to prove the
// differential actually catches planted backend bugs.
func (p *Pipeline) checkBackends(g *cdfg.Graph, cell Cell, seed int64) CellResult {
	pair := p.Backends
	r := CellResult{Cell: cell, RefWords: -1, SubWords: -1}
	opt := cell.Mode.Options()
	opt.Seed = seed
	opt.Obs = p.Obs
	opt.ObsTID = p.ObsTID
	opt.ExactNodeBudget = p.ExactNodeBudget
	grid := arch.MustGrid(cell.Config)
	refM, refErr := pair.Ref.Map(context.Background(), g, grid, opt)
	subM, subErr := pair.Sub.Map(context.Background(), g, grid, opt)
	if refM != nil {
		r.RefWords = refM.TotalWords()
	}
	if subM != nil {
		r.SubWords = subM.TotalWords()
	}
	switch {
	case refErr != nil && subErr != nil:
		r.Outcome = NoMapping
		r.Err = fmt.Errorf("oracle: no mapping from either backend: %s: %v; %s: %v",
			pair.Ref.Name(), refErr, pair.Sub.Name(), subErr)
		return r
	case subErr != nil:
		r.Outcome = Failed
		r.Err = fmt.Errorf("oracle: %s mapped %s but %s failed: %w",
			pair.Ref.Name(), cell, pair.Sub.Name(), subErr)
		return r
	}
	if p.fault.mapping != nil && subM != nil {
		p.fault.mapping(subM)
	}
	// Per-mapping legality, mirroring the interpreter pipeline: memory
	// fit, assembly, static verification. A memory-unaware mode is
	// allowed to overflow (that exempts the mapping from assembly, since
	// it cannot be loaded); a memory-aware one is not.
	overflow := false
	sides := []struct {
		name string
		m    *core.Mapping
	}{{pair.Ref.Name(), refM}, {pair.Sub.Name(), subM}}
	for _, side := range sides {
		if side.m == nil {
			continue
		}
		if ok, tile := side.m.FitsMemory(); !ok {
			if cell.Mode.memoryAware() {
				r.Outcome = Failed
				r.Err = fmt.Errorf("oracle: %s returned a mapping overflowing tile %d in %s",
					side.name, tile+1, cell)
				return r
			}
			overflow = true
			continue
		}
		prog, err := asm.Assemble(side.m)
		if err != nil {
			r.Outcome = Failed
			r.Err = fmt.Errorf("oracle: assemble %s mapping: %w", side.name, err)
			return r
		}
		if vres := verify.Run(&verify.Context{Graph: g, Mapping: side.m, Program: prog}); !vres.OK() {
			r.Outcome = Illegal
			r.Err = fmt.Errorf("oracle: %s mapping fails static verification: %w",
				side.name, vres.Err())
			return r
		}
	}
	if refM != nil && subM != nil && r.SubWords > r.RefWords {
		r.Outcome = Inverted
		r.Err = fmt.Errorf("oracle: cost inversion in %s: %s %d words > %s %d words",
			cell, pair.Sub.Name(), r.SubWords, pair.Ref.Name(), r.RefWords)
		return r
	}
	if overflow {
		r.Outcome = Overflow
		return r
	}
	r.Outcome = Pass
	return r
}
