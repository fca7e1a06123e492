package core_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cdfg"
	"repro/internal/oracle"
)

// fuzzInterpBudget bounds the basic blocks one fuzz input interprets
// before it is mapped: a graph that runs longer is skipped, so no input
// holds the fuzzer for the seconds InterpLimit allows.
const fuzzInterpBudget = 100_000

// FuzzGraphEndToEnd fuzzes the pipeline with the graph itself as the
// input, via the cdfg text form — unlike FuzzEndToEnd, whose inputs are
// generator seeds, this target can replay arbitrary graph shapes, so its
// seeds include the oracle shrinker's minimized reproducers: any graph
// that ever exposed a mapper bug keeps replaying in plain `go test`. Run
//
//	go test -fuzz=FuzzGraphEndToEnd ./internal/core
//
// to let the mutator bend the graphs further.
func FuzzGraphEndToEnd(f *testing.F) {
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
	// The minimized reproducers double as corpus seeds.
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
	f.Fuzz(func(t *testing.T, data []byte, modeIdx, cfgIdx int64) {
		if len(data) > 1<<16 {
			return
		}
		g, err := cdfg.UnmarshalText(data)
		if err != nil {
			return // not a well-formed graph; nothing to check
		}
		if g.NumNodes() > 150 || len(g.Blocks) > 24 {
			return // keep the mapper's search bounded per input
		}
		mem := make(cdfg.Memory, 64)
		if _, err := cdfg.InterpBudget(g, mem.Clone(), fuzzInterpBudget); err != nil {
			return // graph traps (OOB access, budget hit); no reference to compare
		}
		idx := (modeIdx*4 + cfgIdx) % int64(len(cells))
		if idx < 0 {
			idx += int64(len(cells))
		}
		cell := cells[idx]
		var p oracle.Pipeline
		if r := p.Check(g, mem, cell, modeIdx^cfgIdx); r.Outcome.Bug() {
			gtext, _ := g.MarshalText()
			t.Fatalf("%s: %s: %v\n%s", cell, r.Outcome, r.Err, gtext)
		}
	})
}
