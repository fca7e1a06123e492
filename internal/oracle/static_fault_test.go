package oracle

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cdfg"
)

// findStaticFaultSeed scans for a generated graph that passes the clean
// pipeline but classifies StaticUnsound when the stripped program is
// corrupted between the rewrite and its re-verification.
func findStaticFaultSeed(t *testing.T, clean, faulty *Pipeline, cell Cell) (*cdfg.Graph, cdfg.Memory, int64) {
	t.Helper()
	gen := cdfg.DefaultGenConfig()
	gen.MaxBodyOps = 5
	for s := int64(8000); s < 8050; s++ {
		g, mem := cdfg.Generate(rand.New(rand.NewSource(s)), gen)
		if clean.Check(g, mem, cell, s).Outcome != Pass {
			continue
		}
		if faulty.Check(g, mem, cell, s).Outcome == StaticUnsound {
			return g, mem, s
		}
	}
	t.Fatal("no seed in [8000,8050) exposes the injected strip fault")
	return nil, nil, 0
}

// TestStaticFaultInjectionShrinks proves the sweep catches analyzer and
// rewriter unsoundness: a fault injected into the stripped program (the
// same store-binding corruption the Diverged fault tests use) classifies
// as StaticUnsound — a bug outcome — shrinks like any other failure,
// and the minimized reproducer survives the .repro round trip.
func TestStaticFaultInjectionShrinks(t *testing.T) {
	cell := Cell{Mode: ModeBasic, Config: AllCells()[0].Config}
	clean := &Pipeline{}
	faulty := &Pipeline{fault: faultHooks{stripped: corruptStores}}
	g, mem, seed := findStaticFaultSeed(t, clean, faulty, cell)

	res := faulty.Check(g, mem, cell, seed)
	if res.Outcome != StaticUnsound || !res.Outcome.Bug() {
		t.Fatalf("fault classified as %s (bug=%v), want static-unsound bug", res.Outcome, res.Outcome.Bug())
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "strip") {
		t.Fatalf("static unsoundness carries no strip detail: %v", res.Err)
	}

	fails := func(cg *cdfg.Graph, cmem cdfg.Memory) bool {
		return faulty.Check(cg, cmem, cell, seed).Outcome == StaticUnsound
	}
	small := Shrink(g, mem, fails, 0)
	t.Logf("shrunk %d nodes -> %d nodes", g.NumNodes(), small.NumNodes())
	if !fails(small, mem) {
		t.Fatal("shrunk graph no longer exhibits the strip fault")
	}

	final := faulty.Check(small, mem, cell, seed)
	data, err := FormatRepro(small, mem, seed, nil, final)
	if err != nil {
		t.Fatalf("FormatRepro: %v", err)
	}
	rg, rmem, err := ParseRepro(data)
	if err != nil {
		t.Fatalf("ParseRepro: %v\n%s", err, data)
	}
	if got := faulty.Check(rg, rmem, cell, seed).Outcome; got != StaticUnsound {
		t.Fatalf("parsed reproducer is %s under the fault, want static-unsound", got)
	}
	if got := clean.Check(rg, rmem, cell, seed).Outcome; got != Pass {
		t.Fatalf("parsed reproducer is %s under the clean pipeline, want pass", got)
	}
}
