package core_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cdfg"
	"repro/internal/oracle"
)

// fuzzExactBudget bounds the exact search per fuzz input. Deliberately
// small: the fuzzer's value is the volume of graph shapes it pushes
// through both backends, not search depth on any one of them.
const fuzzExactBudget = 1500

// FuzzBackendDiff fuzzes the cross-backend differential: every input
// graph is mapped by both the heuristic and the exact branch-and-bound
// backend, and any disagreement — an illegal mapping from either side or
// an exact result costlier than its own warm start — fails the run. The
// seeds include every minimized oracle reproducer, so graphs that once
// exposed a backend bug keep replaying in plain `go test`. Run
//
//	go test -fuzz=FuzzBackendDiff ./internal/core
//
// to let the mutator search for new disagreements.
func FuzzBackendDiff(f *testing.F) {
	addGraph := func(g *cdfg.Graph, modeIdx, cfgIdx int64) {
		data, err := g.MarshalText()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, modeIdx, cfgIdx)
	}
	for s := int64(0); s < 3; s++ {
		g, _ := cdfg.Generate(rand.New(rand.NewSource(s)), cdfg.DefaultGenConfig())
		addGraph(g, s, s+1)
	}
	repros, err := filepath.Glob(filepath.Join("..", "oracle", "testdata", "repro", "*.repro"))
	if err != nil {
		f.Fatal(err)
	}
	for i, path := range repros {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		g, _, err := oracle.ParseRepro(data)
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		addGraph(g, int64(i), int64(i))
	}

	cells := oracle.AllCells()
	pair := oracle.DefaultBackendPair()
	f.Fuzz(func(t *testing.T, data []byte, modeIdx, cfgIdx int64) {
		if len(data) > 1<<16 {
			return
		}
		g, err := cdfg.UnmarshalText(data)
		if err != nil {
			return // not a well-formed graph; nothing to diff
		}
		if g.NumNodes() > 120 || len(g.Blocks) > 16 {
			return // keep two mapper runs per cell bounded
		}
		mem := make(cdfg.Memory, 64)
		if _, err := cdfg.Interp(g, mem.Clone()); err != nil {
			return // graph traps; the oracle pipeline would reject it too
		}
		idx := (modeIdx*4 + cfgIdx) % int64(len(cells))
		if idx < 0 {
			idx += int64(len(cells))
		}
		cell := cells[idx]
		p := oracle.Pipeline{Backends: pair, ExactNodeBudget: fuzzExactBudget}
		if r := p.Check(g, mem, cell, modeIdx^cfgIdx); r.Outcome.Bug() {
			gtext, _ := g.MarshalText()
			t.Fatalf("%s: %s: %s: %v\n%s", pair, cell, r.Outcome, r.Err, gtext)
		}
	})
}
