package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// Memory layout of tripLoopGraph's lanes.
const (
	tripAddr  = 0  // the lane's trip count
	baseAddr  = 1  // pointer p's first address
	base2Addr = 2  // pointer q's first address
	accAddr   = 3  // final accumulator
	iterAddr  = 4  // final iteration count
	tripData  = 5  // data words tripData..tripData+7
	tripTrace = 13 // per-iteration accumulators tripTrace..tripTrace+3
	tripWords = 17
)

// tripLoopGraph builds a guarded loop whose trip count each lane reads
// from its own memory: iteration i loads mem[base-i] and mem[base2-i]
// through two pointers kept in symbols, so both loads issue in the
// loop's first cycle, folds them into an accumulator and stores it to
// mem[tripTrace+i]; the exit
// block stores the accumulator and the iteration count. Lanes with
// different trip counts leave the loop at different iterations, so every
// loop exit splits the lane group.
func tripLoopGraph() *cdfg.Graph {
	b := cdfg.NewBuilder("triploop")
	entry := b.Block("entry")
	n := entry.Load(entry.Const(tripAddr))
	entry.SetSym("n", n)
	entry.SetSym("p", entry.Load(entry.Const(baseAddr)))
	entry.SetSym("q", entry.Load(entry.Const(base2Addr)))
	entry.SetSym("i", entry.Const(0))
	entry.SetSym("acc", entry.Const(1))
	entry.BranchIf(entry.Lt(entry.Const(0), n), "loop", "exit")

	loop := b.Block("loop")
	i := loop.Sym("i")
	p, q := loop.Sym("p"), loop.Sym("q")
	x, y := loop.Load(p), loop.Load(q)
	loop.SetSym("p", loop.AddC(p, -1))
	loop.SetSym("q", loop.AddC(q, -1))
	acc := loop.Add(loop.MulC(loop.Sym("acc"), 3), loop.Xor(x, y))
	loop.Store(loop.AddC(i, tripTrace), acc)
	i2 := loop.AddC(i, 1)
	loop.SetSym("i", i2)
	loop.SetSym("acc", acc)
	loop.BranchIf(loop.Lt(i2, loop.Sym("n")), "loop", "exit")

	exit := b.Block("exit")
	exit.Store(exit.Const(accAddr), exit.Sym("acc"))
	exit.Store(exit.Const(iterAddr), exit.Sym("i"))
	return b.Finish()
}

// fragmentLane is the lane whose second iteration loads from address -1,
// twice.
// Its trip count is 3, so on that iteration the loop group holds lanes
// 12..14 as one run, and the lane stops in the middle of it.
const fragmentLane = 13

// fragmentedLanes returns B lanes of tripLoopGraph: lane l runs l mod 5
// iterations over its own data, and fragmentLane leaves memory.
func fragmentedLanes(B int) []cdfg.Memory {
	lanes := make([]cdfg.Memory, B)
	for l := range lanes {
		m := make(cdfg.Memory, tripWords)
		m[tripAddr] = int32(l % 5)
		m[baseAddr], m[base2Addr] = tripData+7, tripData+6
		for k := 0; k < 8; k++ {
			m[tripData+k] = int32(l*7 + k)
		}
		lanes[l] = m
	}
	lanes[fragmentLane][baseAddr], lanes[fragmentLane][base2Addr] = 0, 0
	return lanes
}

// TestFragmentedRuns runs a 64-lane batch whose lane group breaks into
// runs of 1 to 4 lanes at every loop exit, with one lane stopping inside
// a run, and requires every lane's result, error and final memory to be
// what the reference interpreter gives. The traced batch's events must
// also be the same at GOMAXPROCS 1 and 4, where shard boundaries cut the
// runs further. It is not trimmed under the race detector.
func TestFragmentedRuns(t *testing.T) {
	prog := buildProgram(t, tripLoopGraph())
	inputs := fragmentedLanes(64)
	s, err := sim.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	one := runSharded(t, prog, inputs, 1)
	four := runSharded(t, prog, inputs, 4)
	for _, got := range []struct {
		procs int
		run   shardRun
	}{{1, one}, {4, four}} {
		for l := range inputs {
			ref := inputs[l].Clone()
			res, refErr := s.RunScalar(ref)
			if got.run.errs[l] != errString(refErr) {
				t.Fatalf("GOMAXPROCS %d lane %d: error %q, reference %q", got.procs, l, got.run.errs[l], errString(refErr))
			}
			if !reflect.DeepEqual(got.run.results[l], res) {
				t.Fatalf("GOMAXPROCS %d lane %d: result diverged\n got %+v\nwant %+v", got.procs, l, got.run.results[l], res)
			}
			if !reflect.DeepEqual(got.run.mems[l], ref) {
				t.Fatalf("GOMAXPROCS %d lane %d: final memory diverged\n got %v\nwant %v", got.procs, l, got.run.mems[l], ref)
			}
		}
	}
	if one.errs[fragmentLane] == "" {
		t.Fatalf("lane %d: the load from address -1 did not fault", fragmentLane)
	}
	for l, e := range one.errs {
		if e != "" && l != fragmentLane {
			t.Fatalf("lane %d failed: %s", l, e)
		}
	}
	if len(one.events) == 0 {
		t.Fatal("traced batch emitted no events")
	}
	if !reflect.DeepEqual(one.events, four.events) {
		t.Fatalf("event stream diverged across GOMAXPROCS (%d vs %d events)", len(one.events), len(four.events))
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestBankPortConfigs runs kernels on copies of HOM64 whose data memory
// has 1, 3, 8 or 16 banks and 1, 2 or 4 ports (the mapper does not read
// either field; the simulator and internal/interconnect do), at B=1 and
// B=64, and requires every lane's cycles, stall cycles and activity to
// be what the reference interpreter computes with the interconnect
// model. Bank counts that are not a power of two or exceed 8 and
// single-port memories all show up here.
func TestBankPortConfigs(t *testing.T) {
	for _, name := range []string{"MatM", "NonSepFilter", "FFT"} {
		t.Run(name, func(t *testing.T) {
			k, err := kernels.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			stock := buildProgram(t, k.Build())
			inputs := perturbedLanes(k.Init(), 64)
			stalled := false
			for _, banks := range []int{1, 3, 8, 16} {
				for _, ports := range []int{1, 2, 4} {
					g := *stock.Grid
					g.MemBanks, g.MemPorts = banks, ports
					prog := &asm.Program{Graph: stock.Graph, Grid: &g, Tiles: stock.Tiles,
						BlockLens: stock.BlockLens, BranchTiles: stock.BranchTiles}
					s, err := sim.New(prog)
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("%d banks %d ports", banks, ports)
					refs := make([]*sim.Result, len(inputs))
					for l := range refs {
						if refs[l], err = s.RunScalar(inputs[l].Clone()); err != nil {
							t.Fatalf("%s lane %d: reference: %v", what, l, err)
						}
					}
					stalled = stalled || refs[0].StallCycles > 0
					for _, B := range []int{1, 64} {
						mems := make([]cdfg.Memory, B)
						for l := range mems {
							mems[l] = inputs[l].Clone()
						}
						results, err := s.Engine().RunBatch(mems)
						if err != nil {
							t.Fatalf("%s B=%d: %v", what, B, err)
						}
						for l, res := range results {
							ref := refs[l]
							if res.Cycles != ref.Cycles || res.StallCycles != ref.StallCycles {
								t.Fatalf("%s B=%d lane %d: %d cycles (%d stalls), reference %d (%d)",
									what, B, l, res.Cycles, res.StallCycles, ref.Cycles, ref.StallCycles)
							}
							if !reflect.DeepEqual(res.Activity(), ref.Activity()) {
								t.Fatalf("%s B=%d lane %d: activity diverged from reference", what, B, l)
							}
						}
					}
				}
			}
			if !stalled {
				t.Fatal("no memory configuration stalled: the test checks no conflict")
			}
		})
	}
}
