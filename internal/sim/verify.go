package sim

import (
	"fmt"
	"strings"

	"repro/internal/cdfg"
)

// DefaultMaxMismatches is the default cap on how many divergent words a
// DivergenceError records; override per simulator with WithMaxMismatches.
const DefaultMaxMismatches = 16

// Mismatch is one divergent data-memory word.
type Mismatch struct {
	Addr int
	Ref  int32 // reference interpreter value
	Got  int32 // simulated CGRA value
}

// DivergenceError reports that a simulated execution produced a final
// data memory different from the CDFG reference interpreter — a mapping,
// assembler or simulator bug. It records every mismatched word up to the
// simulator's cap so differential harnesses (internal/oracle) can classify
// and shrink failures with errors.As instead of string matching.
type DivergenceError struct {
	// Kernel is the graph name; Config names the grid configuration.
	Kernel string
	Config string
	// Mismatches holds the first divergent words in address order, capped
	// by the simulator's mismatch limit; Total counts all of them.
	Mismatches []Mismatch
	Total      int
	// Cycles is the simulated execution time of the divergent run.
	Cycles int64
}

// Error keeps the pre-typed string form for the first mismatch so callers
// that matched on the message keep working, and appends the remainder.
func (e *DivergenceError) Error() string {
	var sb strings.Builder
	m := e.Mismatches[0]
	fmt.Fprintf(&sb, "sim: memory mismatch for %q at word %d: interpreter %d, CGRA %d",
		e.Kernel, m.Addr, m.Ref, m.Got)
	if e.Total > 1 {
		fmt.Fprintf(&sb, " (+%d more divergent words)", e.Total-1)
	}
	return sb.String()
}

// RunVerified executes the program on a copy of the initial memory and
// cross-checks the final data memory against the CDFG reference
// interpreter run on another copy. It returns the simulation result, the
// interpreter trace (useful as an execution profile), and the verified
// final memory. Any divergence is a mapping or simulator bug and is
// returned as a *DivergenceError recording up to the simulator's mismatch
// cap (see WithMaxMismatches). It is the batch-of-one form of
// Engine.RunBatchVerified.
func (s *Sim) RunVerified(initial cdfg.Memory) (*Result, *cdfg.Trace, cdfg.Memory, error) {
	results, trs, mems, errs := s.Engine().runVerified([]cdfg.Memory{initial})
	return results[0], trs[0], mems[0], errs[0]
}

// RunBatchVerified is the batched form of RunVerified: every lane's
// final memory is cross-checked against the CDFG reference interpreter
// on its own copy of the initial memory. It returns per-lane results,
// interpreter traces, and verified final memories; a lane that diverges
// (or fails) has a nil memory and its *DivergenceError (or run error)
// in the returned *BatchError, which parallels the lanes.
func (e *Engine) RunBatchVerified(initials []cdfg.Memory) ([]*Result, []*cdfg.Trace, []cdfg.Memory, error) {
	results, trs, mems, errs := e.runVerified(initials)
	return results, trs, mems, batchError(errs)
}

// runVerified is RunBatchVerified with the per-lane errors unwrapped. A
// lane whose reference interpretation fails is not simulated.
func (e *Engine) runVerified(initials []cdfg.Memory) ([]*Result, []*cdfg.Trace, []cdfg.Memory, []error) {
	s := e.s
	B := len(initials)
	results := make([]*Result, B)
	trs := make([]*cdfg.Trace, B)
	mems := make([]cdfg.Memory, B)
	errs := make([]error, B)
	refs := make([]cdfg.Memory, B)
	var lanes []int
	var got []cdfg.Memory
	for l, initial := range initials {
		ref := initial.Clone()
		tr, err := cdfg.Interp(s.prog.Graph, ref)
		if err != nil {
			errs[l] = fmt.Errorf("sim: reference interpretation: %w", err)
			continue
		}
		trs[l], refs[l] = tr, ref
		lanes = append(lanes, l)
		got = append(got, initial.Clone())
	}
	res, runErrs := e.run(got)
	for i, l := range lanes {
		results[l] = res[i]
		if runErrs[i] != nil {
			errs[l] = runErrs[i]
			continue
		}
		if div := s.divergence(refs[l], got[i], res[i].Cycles); div != nil {
			errs[l] = div
			continue
		}
		mems[l] = got[i]
	}
	return results, trs, mems, errs
}

// divergence diffs a simulated final memory against the reference
// interpreter's; nil when they agree.
func (s *Sim) divergence(ref, got cdfg.Memory, cycles int64) *DivergenceError {
	var div *DivergenceError
	for i := range ref {
		if ref[i] != got[i] {
			if div == nil {
				div = &DivergenceError{
					Kernel: s.prog.Graph.Name,
					Config: s.prog.Grid.Name,
					Cycles: cycles,
				}
			}
			div.Total++
			if len(div.Mismatches) < s.maxMismatches {
				div.Mismatches = append(div.Mismatches, Mismatch{Addr: i, Ref: ref[i], Got: got[i]})
			}
		}
	}
	return div
}
