package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cdfg"
	"repro/internal/sim"
)

// uniformInit is the canonical input memory of the uniformity graphs;
// laneMemory perturbs it per lane.
func uniformInit() cdfg.Memory {
	m := make(cdfg.Memory, 64)
	for w := range m {
		m[w] = int32(w*13 + 5)
	}
	return m
}

// laneBit loads mem[i] and returns its bit i&3: across laneMemory's
// lanes the bit differs, and differs again from one i to the next, so a
// branch on it splits lane groups on every iteration.
func laneBit(bb *cdfg.BlockBuilder, i cdfg.Value) cdfg.Value {
	x := bb.Load(i)
	return bb.And(bb.Shr(x, bb.And(i, bb.Const(3))), bb.Const(1))
}

// edgeGraph builds a loop whose symbol v is load-derived on one side of
// a data-dependent diamond and computed from the induction variable on
// the other, so v is uniform at the exit of "even" but varying where the
// two sides join: a group entering "latch" from "even" must broadcast
// its scalar of v into v's lanes before the per-lane add reads them.
func edgeGraph() *cdfg.Graph {
	b := cdfg.NewBuilder("uniform-edge")
	entry := b.Block("entry")
	entry.SetSym("i", entry.Const(0))
	entry.SetSym("v", entry.Const(0))
	entry.Jump("loop")

	loop := b.Block("loop")
	loop.BranchIf(laneBit(loop, loop.Sym("i")), "odd", "even")

	odd := b.Block("odd")
	odd.SetSym("v", odd.MulC(odd.Load(odd.AddC(odd.Sym("i"), 8)), 3))
	odd.Jump("latch")

	even := b.Block("even")
	even.SetSym("v", even.AddC(even.MulC(even.Sym("i"), 5), 2))
	even.Jump("latch")

	latch := b.Block("latch")
	i := latch.Sym("i")
	latch.Store(latch.AddC(i, 32), latch.Add(latch.Sym("v"), latch.Load(latch.AddC(i, 16))))
	i2 := latch.AddC(i, 1)
	latch.SetSym("i", i2)
	latch.BranchIf(latch.Lt(i2, latch.Const(6)), "loop", "exit")

	exit := b.Block("exit")
	exit.Store(exit.Const(48), exit.Sym("v"))
	exit.Store(exit.Const(49), exit.Sym("i"))
	return b.Finish()
}

// fixpointGraph builds a loop whose symbol a is a constant on its first
// iteration and a loaded word from its second on: only the fixpoint
// makes a varying at the loop's entry, where the first iteration's
// uniform a must be broadcast.
func fixpointGraph() *cdfg.Graph {
	b := cdfg.NewBuilder("uniform-fixpoint")
	entry := b.Block("entry")
	entry.SetSym("i", entry.Const(0))
	entry.SetSym("a", entry.Const(3))
	entry.Jump("loop")

	loop := b.Block("loop")
	i := loop.Sym("i")
	loop.Store(loop.AddC(i, 32), loop.Add(loop.MulC(loop.Sym("a"), 2), i))
	loop.SetSym("a", loop.Load(loop.AddC(i, 4)))
	i2 := loop.AddC(i, 1)
	loop.SetSym("i", i2)
	loop.BranchIf(loop.Lt(i2, loop.Const(5)), "loop", "exit")

	exit := b.Block("exit")
	exit.Store(exit.Const(48), exit.Sym("a"))
	return b.Finish()
}

// splitGraph builds a loop with a data-dependent diamond whose symbol j
// never depends on a load: each side updates it differently, so the
// groups that split at the diamond carry different scalars of j, which
// later address the stores.
func splitGraph() *cdfg.Graph {
	b := cdfg.NewBuilder("uniform-split")
	entry := b.Block("entry")
	entry.SetSym("i", entry.Const(0))
	entry.SetSym("j", entry.Const(1))
	entry.Jump("loop")

	loop := b.Block("loop")
	loop.BranchIf(laneBit(loop, loop.Sym("i")), "odd", "even")

	odd := b.Block("odd")
	odd.SetSym("j", odd.AddC(odd.Sym("j"), 3))
	odd.Jump("latch")

	even := b.Block("even")
	even.SetSym("j", even.Sub(even.MulC(even.Sym("j"), 2), even.Sym("i")))
	even.Jump("latch")

	latch := b.Block("latch")
	i, j := latch.Sym("i"), latch.Sym("j")
	latch.Store(latch.AddC(latch.And(j, latch.Const(15)), 32), latch.Add(j, i))
	i2 := latch.AddC(i, 1)
	latch.SetSym("i", i2)
	latch.BranchIf(latch.Lt(i2, latch.Const(6)), "loop", "exit")

	exit := b.Block("exit")
	exit.Store(exit.Const(48), exit.Sym("j"))
	return b.Finish()
}

// TestUniformityVsReference runs each uniformity graph on laneMemory
// lanes at B = 1, 2, 7 and 64 against the reference interpreter lane by
// lane: results, final memories and errors must be deep-equal. The edge
// and fixpoint graphs must broadcast on some CFG edge, and the lanes of
// the diamond graphs must take both sides.
func TestUniformityVsReference(t *testing.T) {
	for _, tc := range []struct {
		g                  *cdfg.Graph
		broadcast, diamond bool
	}{
		{edgeGraph(), true, true},
		{fixpointGraph(), true, false},
		{splitGraph(), false, true},
	} {
		t.Run(tc.g.Name, func(t *testing.T) {
			s, err := sim.New(buildProgram(t, tc.g))
			if err != nil {
				t.Fatal(err)
			}
			if tc.broadcast && sim.EdgeRows(s) == 0 {
				t.Fatal("no CFG edge broadcasts a row")
			}
			init := uniformInit()
			for _, B := range batchSizes {
				lanes := make([]cdfg.Memory, B)
				for l := range lanes {
					lanes[l] = laneMemory(init, l)
				}
				diffAgainstReference(t, fmt.Sprintf("B=%d", B), s, lanes)
			}
			if !tc.diamond {
				return
			}
			paths := map[int64]bool{}
			for l := 0; l < 64; l++ {
				res, err := s.RunScalar(laneMemory(init, l))
				if err != nil {
					t.Fatal(err)
				}
				paths[res.BlockExecs[2]] = true // the executions of "odd"
			}
			if len(paths) < 3 {
				t.Fatalf("the lanes take the diamond's sides in only %d ways", len(paths))
			}
		})
	}
}

// TestBatchResultsIndependent: lanes that executed the same blocks
// share counting work, not storage. Mutating one lane's Result, or
// appending to its Tiles, must leave every other lane's Result as a
// fresh run gives it.
func TestBatchResultsIndependent(t *testing.T) {
	k, s := firSim(t)
	const B = 4
	run := func() []*sim.Result {
		mems := make([]cdfg.Memory, B)
		for l := range mems {
			mems[l] = k.Init()
		}
		results, err := s.Engine().RunBatch(mems)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	got, want := run(), run()
	got[1].Tiles[0].Fetches++
	got[1].Tiles = append(got[1].Tiles, sim.TileCounters{Fetches: 1})
	got[1].BlockExecs[0]++
	for l := range got {
		if l != 1 && !reflect.DeepEqual(got[l], want[l]) {
			t.Fatalf("lane %d changed with lane 1's Result", l)
		}
	}
}
