package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// TestWordLowerBoundAdmissible: the bound must never exceed the words of
// any mapping any flow actually produces — otherwise pruning could discard
// a potential winner.
func TestWordLowerBoundAdmissible(t *testing.T) {
	grids := []*arch.Grid{arch.MustGrid(arch.HOM32), arch.MustGrid(arch.HOM64)}
	for _, grid := range grids {
		for _, k := range kernels.All() {
			g := k.Build()
			lb := WordLowerBound(g, grid)
			for _, flow := range Flows() {
				// The slowest flow only on the smaller grid; one seed per
				// combination keeps this under test-budget (admissibility is
				// seed-independent: the bound is a function of graph × grid).
				if flow == FlowCAB && grid.NumTiles() > 16 {
					continue
				}
				opt := DefaultOptions(flow)
				m, err := Map(g, grid, opt)
				if err != nil {
					continue
				}
				if got := m.TotalWords(); got < lb {
					t.Errorf("%s on %s flow %v: mapping has %d words, bound claims ≥ %d",
						k.Name, grid.Name, flow, got, lb)
				}
			}
		}
	}
}

func TestIncumbentPublishKeepsBest(t *testing.T) {
	inc := &incumbent{tiePrune: true}
	if _, ok := inc.prune(100, 1, 0); ok {
		t.Fatal("empty incumbent pruned")
	}
	inc.publish(50, 7, 2)
	inc.publish(60, 1, 0) // worse words: ignored
	if r := inc.rec.Load(); r.words != 50 || r.seed != 7 {
		t.Fatalf("record = %+v, want 50 words seed 7", r)
	}
	inc.publish(50, 3, 5) // equal words, lower seed: wins the tie
	if r := inc.rec.Load(); r.seed != 3 {
		t.Fatalf("record = %+v, want seed 3 after tie", r)
	}
	inc.publish(50, 3, 1) // same seed, earlier job: wins
	if r := inc.rec.Load(); r.job != 1 {
		t.Fatalf("record = %+v, want job 1", r)
	}
	inc.publish(40, 9, 8) // strictly fewer words: wins regardless of seed
	if r := inc.rec.Load(); r.words != 40 || r.seed != 9 {
		t.Fatalf("record = %+v, want 40 words seed 9", r)
	}
}

func TestIncumbentPruneRules(t *testing.T) {
	inc := &incumbent{tiePrune: true}
	inc.publish(50, 3, 1)
	if _, ok := inc.prune(51, 1, 0); !ok {
		t.Fatal("bound above incumbent words not pruned")
	}
	if _, ok := inc.prune(49, 9, 9); ok {
		t.Fatal("bound below incumbent words pruned")
	}
	// Equal bound: prune iff the candidate loses the (seed, job) tie-break.
	if _, ok := inc.prune(50, 5, 0); !ok {
		t.Fatal("equal bound with higher seed not tie-pruned")
	}
	if _, ok := inc.prune(50, 2, 0); ok {
		t.Fatal("equal bound with lower seed pruned — that job could still win the tie")
	}
	if _, ok := inc.prune(50, 3, 0); ok {
		t.Fatal("equal bound, same seed, earlier job pruned")
	}
	if _, ok := inc.prune(50, 3, 2); !ok {
		t.Fatal("equal bound, same seed, later job not pruned")
	}

	// Without tiePrune (a TieBreak is set), equality must never prune: the
	// tie-break could still prefer the candidate.
	strict := &incumbent{}
	strict.publish(50, 3, 1)
	if _, ok := strict.prune(50, 9, 9); ok {
		t.Fatal("tie pruned under a tie-break")
	}
	if _, ok := strict.prune(51, 9, 9); !ok {
		t.Fatal("strictly worse bound not pruned under a tie-break")
	}
}

func TestIncumbentConcurrentPublish(t *testing.T) {
	inc := &incumbent{tiePrune: true}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				inc.publish(100+(i*7+w*13)%50, int64(w), i)
			}
		}(w)
	}
	wg.Wait()
	r := inc.rec.Load()
	if r == nil || r.words != 100 {
		t.Fatalf("record after concurrent publish = %+v, want 100 words", r)
	}
}

// TestMapIncumbentAbort: with an unbeatable incumbent pre-published at the
// graph's word floor, the mapper must abandon the search mid-flight with
// ErrPrunedByIncumbent instead of completing.
func TestMapIncumbentAbort(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	want := map[string]bool{"FIR": true, "FFT": true, "MatM": true}
	for _, k := range kernels.All() {
		if !want[k.Name] {
			continue
		}
		name := k.Name
		graph := k.Build()
		if len(graph.Blocks) < 2 {
			continue // the mid-map check only runs between blocks
		}
		inc := &incumbent{tiePrune: true}
		// Seed -1 < any real seed, so the tie-break always favors the
		// incumbent even when the candidate matches the floor exactly.
		inc.publish(WordLowerBound(graph, grid), -1, 0)
		opt := DefaultOptions(FlowCAB)
		opt.incumbent = inc
		rec := obs.NewRecorder(obs.NewRegistry(), nil)
		opt.Obs = rec
		_, err := Map(graph, grid, opt)
		if !errors.Is(err, ErrPrunedByIncumbent) {
			t.Errorf("%s: Map returned %v, want ErrPrunedByIncumbent", name, err)
		}
		if rec.Counter("core.map.incumbent_aborts").Value() == 0 {
			t.Errorf("%s: abort not counted", name)
		}
	}
}

// TestPortfolioPruneFires: with one sequential worker the first seed
// publishes before the rest run, so pruning must fire deterministically and
// the reports must say so.
func TestPortfolioPruneFires(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	for _, k := range kernels.All() {
		if k.Name != "FIR" && k.Name != "DCFilter" {
			continue
		}
		g := k.Build()
		rec := obs.NewRecorder(obs.NewRegistry(), nil)
		opt := DefaultOptions(FlowCAB)
		opt.Obs = rec
		res, err := MapPortfolio(context.Background(), g, grid, opt, PortfolioOptions{NumSeeds: 8, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		pruned := 0
		for _, r := range res.Reports {
			if r.Pruned {
				pruned++
				if r.Err == "" {
					t.Errorf("%s: pruned report carries no explanation", k.Name)
				}
			}
		}
		if pruned == 0 {
			t.Errorf("%s: no seed pruned with a sequential worker", k.Name)
		}
		if got := rec.Counter("core.portfolio.seeds_pruned").Value(); got != int64(pruned) {
			t.Errorf("%s: seeds_pruned counter %d, reports say %d", k.Name, got, pruned)
		}
		if rec.Counter("core.portfolio.seeds_failed").Value() != 0 {
			t.Errorf("%s: pruned seeds were miscounted as failures", k.Name)
		}
	}
}
