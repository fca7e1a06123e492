package sim

import (
	"fmt"
	"strings"

	"repro/internal/cdfg"
)

// MaxMismatches caps how many divergent words a DivergenceError records
// (Total always counts all of them).
const MaxMismatches = 16

// Mismatch is one divergent data-memory word.
type Mismatch struct {
	Addr int
	Ref  int32 // reference interpreter value
	Got  int32 // simulated CGRA value
}

// DivergenceError reports that a simulated execution produced a final
// data memory different from the CDFG reference interpreter — a mapping,
// assembler or simulator bug. It records every mismatched word up to
// MaxMismatches so differential harnesses (internal/oracle) can classify
// and shrink failures with errors.As instead of string matching.
type DivergenceError struct {
	// Kernel is the graph name; Config names the grid configuration.
	Kernel string
	Config string
	// Mismatches holds the first divergent words in address order, at
	// most MaxMismatches; Total counts all of them.
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
// returned as a *DivergenceError recording up to MaxMismatches words.
func (s *Sim) RunVerified(initial cdfg.Memory) (*Result, *cdfg.Trace, cdfg.Memory, error) {
	ref := initial.Clone()
	tr, err := cdfg.Interp(s.prog.Graph, ref)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("sim: reference interpretation: %w", err)
	}
	got := initial.Clone()
	res, err := s.Run(got)
	if err != nil {
		return res, tr, nil, err
	}
	if div := s.divergence(ref, got, res.Cycles); div != nil {
		return res, tr, nil, div
	}
	return res, tr, got, nil
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
			if len(div.Mismatches) < MaxMismatches {
				div.Mismatches = append(div.Mismatches, Mismatch{Addr: i, Ref: ref[i], Got: got[i]})
			}
		}
	}
	return div
}
