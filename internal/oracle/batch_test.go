package oracle

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cdfg"
	"repro/internal/obs"
)

// corruptLaneInput is the batch-side fault injection: it perturbs lane
// 1's input memory after the verified run, so the engine lane
// legitimately computes a different run than the reference — the exact
// observable a real batch-engine bug (lane state crosstalk, wrong lane
// routing) would produce.
func corruptLaneInput(lanes []cdfg.Memory) {
	if len(lanes) > 1 && len(lanes[1]) > 0 {
		lanes[1][0] ^= 0x55aa
	}
}

// findBatchFaultSeed scans for a generated graph that passes the clean
// pipeline but classifies BatchDiverged under lane-input corruption.
func findBatchFaultSeed(t *testing.T, clean, faulty *Pipeline, cell Cell) (*cdfg.Graph, cdfg.Memory, int64) {
	t.Helper()
	gen := cdfg.DefaultGenConfig()
	gen.MaxBodyOps = 5
	for s := int64(7000); s < 7050; s++ {
		g, mem := cdfg.Generate(rand.New(rand.NewSource(s)), gen)
		if clean.Check(g, mem, cell, s).Outcome != Pass {
			continue
		}
		if faulty.Check(g, mem, cell, s).Outcome == BatchDiverged {
			return g, mem, s
		}
	}
	t.Fatal("no seed in [7000,7050) exposes the injected batch fault")
	return nil, nil, 0
}

// TestBatchFaultInjectionShrinks proves the sweep catches batch-engine
// divergence: an injected lane-input fault classifies as BatchDiverged
// (a bug outcome), shrinks like any other failure, and the minimized
// reproducer survives the .repro round trip — diverging under the fault
// and passing the clean pipeline.
func TestBatchFaultInjectionShrinks(t *testing.T) {
	cell := Cell{Mode: ModeBasic, Config: AllCells()[0].Config}
	clean := &Pipeline{}
	faulty := &Pipeline{fault: faultHooks{batch: corruptLaneInput}}
	g, mem, seed := findBatchFaultSeed(t, clean, faulty, cell)

	res := faulty.Check(g, mem, cell, seed)
	if res.Outcome != BatchDiverged || !res.Outcome.Bug() {
		t.Fatalf("fault classified as %s (bug=%v), want batch-diverged bug", res.Outcome, res.Outcome.Bug())
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "lane") {
		t.Fatalf("batch divergence carries no lane detail: %v", res.Err)
	}

	fails := func(cg *cdfg.Graph, cmem cdfg.Memory) bool {
		return faulty.Check(cg, cmem, cell, seed).Outcome == BatchDiverged
	}
	small := Shrink(g, mem, fails, 0)
	t.Logf("shrunk %d nodes -> %d nodes", g.NumNodes(), small.NumNodes())
	if !fails(small, mem) {
		t.Fatal("shrunk graph no longer exhibits the batch fault")
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
	if got := faulty.Check(rg, rmem, cell, seed).Outcome; got != BatchDiverged {
		t.Fatalf("parsed reproducer is %s under the fault, want batch-diverged", got)
	}
	if got := clean.Check(rg, rmem, cell, seed).Outcome; got != Pass {
		t.Fatalf("parsed reproducer is %s under the clean pipeline, want pass", got)
	}
}

// TestCheckEmitsSimCounters pins the obs plumbing through the oracle's
// simulator: a Check with a recorder attached must publish the
// simulator's run counters and the engine's batch counters, like the
// CLIs do.
func TestCheckEmitsSimCounters(t *testing.T) {
	gen := cdfg.DefaultGenConfig()
	gen.MaxBodyOps = 5
	cell := Cell{Mode: ModeBasic, Config: AllCells()[0].Config}
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	p := &Pipeline{Obs: rec}
	var passed bool
	for s := int64(1); s < 20 && !passed; s++ {
		g, mem := cdfg.Generate(rand.New(rand.NewSource(s)), gen)
		passed = p.Check(g, mem, cell, s).Outcome == Pass
	}
	if !passed {
		t.Fatal("no generated graph passed in 20 seeds")
	}
	for _, name := range []string{"sim.runs", "sim.cycles", "sim.engine.batches", "sim.engine.lanes"} {
		if v := rec.Counter(name).Value(); v <= 0 {
			t.Errorf("counter %s = %d after a passing check, want > 0", name, v)
		}
	}
}
