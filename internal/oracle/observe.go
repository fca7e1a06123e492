package oracle

import (
	"strings"

	"repro/internal/cdfg"
)

// recordCheck publishes one cell check to the pipeline's recorder: a total
// and one counter per outcome class (oracle.outcome.pass, .no_mapping,
// .overflow, .diverged, …), under oracle.backend_diff.* in cross-backend
// mode.
func (p *Pipeline) recordCheck(r CellResult) {
	if !p.Obs.Enabled() {
		return
	}
	prefix := p.counterPrefix()
	p.Obs.Counter(prefix + "checks").Inc()
	p.Obs.Counter(prefix + "outcome." + outcomeCounter(r.Outcome)).Inc()
	if r.Outcome.Bug() {
		p.Obs.Counter(prefix + "bugs").Inc()
	}
}

// counterPrefix is the namespace of the pipeline's check counters. The
// cross-backend differential counts in its own, so the interpreter
// differential's counters stay comparable across runs.
func (p *Pipeline) counterPrefix() string {
	if p.Backends != nil {
		return "oracle.backend_diff."
	}
	return "oracle."
}

// outcomeCounter turns an Outcome's display name into a counter suffix
// ("no-mapping" -> "no_mapping").
func outcomeCounter(o Outcome) string {
	return strings.ReplaceAll(o.String(), "-", "_")
}

// Shrink is the observed form of the package-level Shrink: identical
// minimization, but each accepted step is counted (oracle.shrink.steps)
// and emitted as a timeline event carrying the shrinking graph's size.
func (p *Pipeline) Shrink(g *cdfg.Graph, mem cdfg.Memory, fails FailFn, maxRounds int) *cdfg.Graph {
	if maxRounds <= 0 {
		maxRounds = 1000
	}
	cur := g.Clone()
	for round := 0; round < maxRounds; round++ {
		next := shrinkStep(cur, mem, fails)
		if next == nil {
			break
		}
		cur = next
		if p.Obs.Enabled() {
			p.Obs.Counter("oracle.shrink.steps").Inc()
			p.Obs.Emit("oracle.shrink.step", "oracle", 0, map[string]any{
				"round":  round + 1,
				"nodes":  cur.NumNodes(),
				"blocks": len(cur.Blocks),
			})
		}
	}
	return cur
}
