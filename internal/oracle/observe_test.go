package oracle

import (
	"math/rand"
	"testing"

	"repro/internal/cdfg"
	"repro/internal/obs"
)

// TestSweepObs checks the sweep's recorder wiring in both pipeline modes:
// outcome-class counters mirror the report exactly under the mode's
// counter prefix, and the timeline carries the sweep span, one graph span
// per generated graph and per-graph progress events.
func TestSweepObs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		backends *BackendPair
		prefix   string
	}{
		{"interpreter", nil, "oracle."},
		{"backends", DefaultBackendPair(), "oracle.backend_diff."},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := obs.NewBufferSink(0)
			p := Pipeline{
				Obs:             obs.NewRecorder(obs.NewRegistry(), sink),
				Backends:        tc.backends,
				ExactNodeBudget: testExactBudget,
			}
			const n = 4
			rep := p.Sweep(SweepOptions{N: n, Seed: 99})

			reg := p.Obs.Registry()
			if got := reg.Counter(tc.prefix + "checks").Value(); got != int64(rep.Checked) {
				t.Errorf("%schecks = %d, want %d", tc.prefix, got, rep.Checked)
			}
			if got := reg.Counter(tc.prefix + "graphs").Value(); got != n {
				t.Errorf("%sgraphs = %d, want %d", tc.prefix, got, n)
			}
			for o, want := range outcomeCounts(rep) {
				name := tc.prefix + "outcome." + outcomeCounter(o)
				if got := reg.Counter(name).Value(); got != int64(want) {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}

			// Spans emit a begin and an end event; the end carries the args
			// and the duration, so it is the one counted here.
			var sweeps, graphs, progress int
			for _, e := range sink.Events() {
				switch {
				case e.Name == "oracle.sweep" && e.Ph == obs.PhaseEnd:
					sweeps++
					if e.Args["checked"] != rep.Checked {
						t.Errorf("sweep span args %+v do not carry checked=%d", e.Args, rep.Checked)
					}
				case e.Name == "oracle.graph" && e.Ph == obs.PhaseEnd:
					graphs++
				case e.Name == "oracle.sweep.progress":
					progress++
				}
			}
			if sweeps != 1 || graphs != n || progress != n {
				t.Errorf("got %d sweep spans, %d graph spans, %d progress events; want 1, %d, %d",
					sweeps, graphs, progress, n, n)
			}
		})
	}
}

// TestShrinkObs checks that the observed shrinker minimizes identically to
// the plain one and that every accepted step is both counted and emitted.
func TestShrinkObs(t *testing.T) {
	g, mem := cdfg.Generate(rand.New(rand.NewSource(42)), cdfg.DefaultGenConfig())
	// A pure size predicate: deterministic, cheap, and guaranteed to admit
	// shrinking on any graph larger than the threshold.
	fails := func(c *cdfg.Graph, _ cdfg.Memory) bool { return c.NumNodes() >= 3 }

	plain := Shrink(g, mem, fails, 0)

	sink := obs.NewBufferSink(0)
	p := Pipeline{Obs: obs.NewRecorder(obs.NewRegistry(), sink)}
	observed := p.Shrink(g, mem, fails, 0)

	if plain.NumNodes() != observed.NumNodes() {
		t.Fatalf("observed shrink found %d nodes, plain found %d", observed.NumNodes(), plain.NumNodes())
	}
	steps := p.Obs.Counter("oracle.shrink.steps").Value()
	var events int64
	for _, e := range sink.Events() {
		if e.Name == "oracle.shrink.step" {
			events++
		}
	}
	if steps != events {
		t.Errorf("oracle.shrink.steps = %d but %d step events emitted", steps, events)
	}
	if g.NumNodes() >= 3 && steps == 0 {
		t.Errorf("shrinkable graph (%d nodes) recorded no shrink steps", g.NumNodes())
	}
}
