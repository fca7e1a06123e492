package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/sim"
)

// sweepSeed is the base seed of the oracle's acceptance sweep
// (TestSweepClean): graph i is cdfg.Generate'd from sweepSeed+i and
// mapped with pruning seed sweepSeed+i.
const sweepSeed = 424200

// TestSweepGraphsVsReference diffs the engine against the reference
// interpreter on the random graphs the oracle sweeps: the first 20
// sweep seeds × every oracle cell, at B=1 (Run) and B=3 (RunBatch) with
// the later lanes' inputs perturbed so diamonds split lane groups.
// Results, final memories and errors must be bit-identical.
func TestSweepGraphsVsReference(t *testing.T) {
	graphs := 20
	if testing.Short() || raceEnabled {
		graphs = 5
	}
	cells := oracle.AllCells()
	for i := 0; i < graphs; i++ {
		seed := int64(sweepSeed + i)
		g, mem := cdfg.Generate(rand.New(rand.NewSource(seed)), cdfg.DefaultGenConfig())
		for _, cell := range cells {
			opt := cell.Mode.Options()
			opt.Seed = seed
			m, err := core.Map(g, arch.MustGrid(cell.Config), opt)
			if err != nil {
				continue
			}
			if ok, _ := m.FitsMemory(); !ok {
				continue
			}
			prog, err := asm.Assemble(m)
			if err != nil {
				t.Fatalf("seed %d %s: assemble: %v", seed, cell, err)
			}
			s, err := sim.New(prog)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, cell, err)
			}
			for _, B := range []int{1, 3} {
				diffAgainstReference(t, fmt.Sprintf("seed %d %s B=%d", seed, cell, B), s, perturbedLanes(mem, B))
			}
		}
	}
}

// perturbedLanes returns B copies of mem, lane l > 0 with every word
// shifted by a lane- and address-dependent amount.
func perturbedLanes(mem cdfg.Memory, B int) []cdfg.Memory {
	lanes := make([]cdfg.Memory, B)
	for l := range lanes {
		lanes[l] = mem.Clone()
		if l == 0 {
			continue
		}
		for i := range lanes[l] {
			lanes[l][i] += int32(l*13 + i%7)
		}
	}
	return lanes
}

// diffAgainstReference runs the inputs through the engine (Run for one
// lane, RunBatch otherwise) and through the reference interpreter lane
// by lane, and fails on any difference in result, memory or error.
func diffAgainstReference(t *testing.T, what string, s *sim.Sim, inputs []cdfg.Memory) {
	t.Helper()
	B := len(inputs)
	gotMems := make([]cdfg.Memory, B)
	for l := range inputs {
		gotMems[l] = inputs[l].Clone()
	}
	var results []*sim.Result
	errs := make([]error, B)
	if B == 1 {
		res, err := s.Run(gotMems[0])
		results, errs[0] = []*sim.Result{res}, err
	} else {
		var err error
		results, err = s.Engine().RunBatch(gotMems)
		if err != nil {
			errs = err.(*sim.BatchError).Errs
		}
	}
	for l := range inputs {
		refMem := inputs[l].Clone()
		refRes, refErr := s.RunScalar(refMem)
		if fmt.Sprint(errs[l]) != fmt.Sprint(refErr) {
			t.Fatalf("%s lane %d: error %v, reference %v", what, l, errs[l], refErr)
		}
		if !reflect.DeepEqual(results[l], refRes) {
			t.Fatalf("%s lane %d: result diverged\n got %+v\nwant %+v", what, l, results[l], refRes)
		}
		if !reflect.DeepEqual(gotMems[l], refMem) {
			t.Fatalf("%s lane %d: final memory diverged", what, l)
		}
	}
}
