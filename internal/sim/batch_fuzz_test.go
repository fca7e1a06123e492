package sim_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/sim"
)

// FuzzBatchVsScalar fuzzes the batched engine's equivalence contract:
// every input graph that maps is executed by the scalar interpreter
// lane by lane and by the engine in one RunBatch, and any difference —
// in results, per-tile counters, final memories, or error behavior —
// fails the run. The seeds reuse the oracle's generation path, the
// gather graph whose lanes disagree on addresses, the uniformity graphs
// (uniform_test.go), and every minimized
// oracle reproducer (the checked-in corpus under testdata/fuzz keeps
// known-interesting shapes replaying in plain `go test`). Run
//
//	go test -fuzz=FuzzBatchVsScalar ./internal/sim
//
// to let the mutator search for new divergences.
func FuzzBatchVsScalar(f *testing.F) {
	addGraph := func(g *cdfg.Graph, modeIdx, cfgIdx, lanes int64) {
		data, err := g.MarshalText()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, modeIdx, cfgIdx, lanes)
	}
	for s := int64(0); s < 3; s++ {
		g, _ := cdfg.Generate(rand.New(rand.NewSource(s)), cdfg.DefaultGenConfig())
		addGraph(g, s, s+1, s+2)
	}
	addGraph(gatherGraph(), 4, 0, 6) // addresses that differ across lanes
	// Rows broadcast on a CFG edge, a loop reaching its fixpoint on the
	// second iteration, and groups that split holding uniform scalars.
	addGraph(edgeGraph(), 4, 0, 7)
	addGraph(fixpointGraph(), 4, 1, 5)
	addGraph(splitGraph(), 4, 2, 7)
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
		addGraph(g, int64(i), int64(i), int64(i%7)+1)
	}

	cells := oracle.AllCells()
	f.Fuzz(func(t *testing.T, data []byte, modeIdx, cfgIdx, lanes int64) {
		if len(data) > 1<<16 {
			return
		}
		g, err := cdfg.UnmarshalText(data)
		if err != nil {
			return // not a well-formed graph; nothing to diff
		}
		if g.NumNodes() > 120 || len(g.Blocks) > 16 {
			return // keep the per-input mapper run bounded
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
		B := int(lanes%8) + 1
		if B < 1 {
			B += 8
		}

		m, err := core.Map(g, arch.MustGrid(cell.Config), cell.Mode.Options())
		if err != nil {
			return // no mapping: nothing to simulate
		}
		if ok, _ := m.FitsMemory(); !ok {
			return
		}
		prog, err := asm.Assemble(m)
		if err != nil {
			return
		}
		s, err := sim.New(prog)
		if err != nil {
			return
		}
		inputs := make([]cdfg.Memory, B)
		for l := range inputs {
			inputs[l] = mem.Clone()
			for i := range inputs[l] {
				inputs[l][i] += int32(l*13 + i%7)
			}
		}
		refMems := make([]cdfg.Memory, B)
		refResults := make([]*sim.Result, B)
		refErrs := make([]error, B)
		for l := range inputs {
			refMems[l] = inputs[l].Clone()
			refResults[l], refErrs[l] = s.RunScalar(refMems[l])
		}
		gotMems := make([]cdfg.Memory, B)
		for l := range inputs {
			gotMems[l] = inputs[l].Clone()
		}
		results, batchErr := s.Engine().RunBatch(gotMems)
		laneErr := func(l int) error {
			if batchErr == nil {
				return nil
			}
			return batchErr.(*sim.BatchError).Errs[l]
		}
		for l := 0; l < B; l++ {
			ge, re := laneErr(l), refErrs[l]
			switch {
			case (ge == nil) != (re == nil):
				t.Fatalf("%s B=%d lane %d: engine err %v, scalar err %v", cell, B, l, ge, re)
			case ge != nil && ge.Error() != re.Error():
				t.Fatalf("%s B=%d lane %d: engine err %q, scalar err %q", cell, B, l, ge, re)
			}
			if !reflect.DeepEqual(results[l], refResults[l]) {
				gtext, _ := g.MarshalText()
				t.Fatalf("%s B=%d lane %d: result diverged\n got %+v\nwant %+v\n%s",
					cell, B, l, results[l], refResults[l], gtext)
			}
			if ge == nil && !reflect.DeepEqual(gotMems[l], refMems[l]) {
				gtext, _ := g.MarshalText()
				t.Fatalf("%s B=%d lane %d: final memory diverged\n%s", cell, B, l, gtext)
			}
		}
	})
}
