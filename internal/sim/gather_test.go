package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/sim"
)

// Memory layout of gatherGraph's lanes.
const (
	gatherN     = 0  // trip count (masked to 0..7)
	gatherBase  = 1  // base of the gather table
	gatherDst   = 2  // base of the scatter table
	gatherIdx   = 4  // four rows of index words, gatherIdx..gatherIdx+31
	gatherOut   = 36 // per-iteration results gatherOut..gatherOut+7
	gatherMask  = 15
	gatherWords = 96
)

// gatherGraph builds a loop whose addresses follow the data, unlike the
// kernels' induction-variable addressing: iteration i loads four indices
// k_j = mem[gatherIdx+8j+i], gathers x_j = mem[base + (k_j & mask)],
// scatters their sum to mem[dst + (x_0 & mask)] and stores
// (x_0+x_1) ^ (x_2+x_3) to mem[gatherOut+i]. Lanes whose index words
// differ issue different addresses, and so different banks, in the same
// cycle of the same run: the mapper issues the scatter beside the
// lane-uniform store.
func gatherGraph() *cdfg.Graph {
	b := cdfg.NewBuilder("gather")
	entry := b.Block("entry")
	n := entry.And(entry.Load(entry.Const(gatherN)), entry.Const(7))
	entry.SetSym("n", n)
	entry.SetSym("base", entry.Load(entry.Const(gatherBase)))
	entry.SetSym("dst", entry.Load(entry.Const(gatherDst)))
	entry.SetSym("i", entry.Const(0))
	entry.BranchIf(entry.Lt(entry.Const(0), n), "loop", "exit")

	loop := b.Block("loop")
	i := loop.Sym("i")
	mask := loop.Const(gatherMask)
	base := loop.Sym("base")
	var xs [4]cdfg.Value
	for j := range xs {
		k := loop.Load(loop.AddC(i, gatherIdx+8*int32(j)))
		xs[j] = loop.Load(loop.Add(base, loop.And(k, mask)))
	}
	x, y := loop.Add(xs[0], xs[1]), loop.Add(xs[2], xs[3])
	loop.Store(loop.Add(loop.Sym("dst"), loop.And(xs[0], mask)), loop.Add(x, y))
	loop.Store(loop.AddC(i, gatherOut), loop.Xor(x, y))
	i2 := loop.AddC(i, 1)
	loop.SetSym("i", i2)
	loop.BranchIf(loop.Lt(i2, loop.Sym("n")), "loop", "exit")

	b.Block("exit")
	return b.Finish()
}

// Lanes of gatherLanes that leave memory: one in a gather load, one in
// a scatter store, and two, with memories shorter than the others, at a
// lane-uniform address: one in the store beside the scatter, one in the
// entry block's loads, whose addresses are constants.
const (
	gatherLoadFault    = 1
	gatherStoreFault   = 3
	gatherUniformFault = 5
	gatherEntryFault   = 6
)

// gatherLanes returns B lanes of gatherGraph with six iterations each.
// Every lane has its own index words, and memories of unequal length
// (96, 101 or 106 words). Lane gatherLoadFault's gather table starts 4
// words before the end of its memory and lane gatherStoreFault's scatter
// table does, so their accesses leave memory at a masked value of 4 or
// more. Lane gatherUniformFault has gatherOut+4 words and both tables at
// word gatherIdx, so its gathers and scatters stay inside, and its store
// to mem[gatherOut+4] is the first to leave. Lane gatherEntryFault has
// gatherDst words, so it leaves memory loading the scatter base.
func gatherLanes(B int) []cdfg.Memory {
	lanes := make([]cdfg.Memory, B)
	for l := range lanes {
		m := make(cdfg.Memory, gatherWords+5*(l%3))
		for w := range m {
			m[w] = int32(w*5 + l)
		}
		m[gatherN], m[gatherBase], m[gatherDst] = 6, 48, 64
		for i := 0; i < 32; i++ {
			m[gatherIdx+i] = int32(l*37 + i*11 + 3)
		}
		lanes[l] = m
	}
	if B > gatherLoadFault {
		lanes[gatherLoadFault] = lanes[gatherLoadFault][:gatherWords]
		lanes[gatherLoadFault][gatherBase] = gatherWords - 4
	}
	if B > gatherStoreFault {
		lanes[gatherStoreFault] = lanes[gatherStoreFault][:gatherWords]
		lanes[gatherStoreFault][gatherDst] = gatherWords - 4
	}
	if B > gatherUniformFault {
		short := lanes[gatherUniformFault][:gatherOut+4]
		short[gatherBase], short[gatherDst] = gatherIdx, gatherIdx
		lanes[gatherUniformFault] = short
	}
	if B > gatherEntryFault {
		lanes[gatherEntryFault] = lanes[gatherEntryFault][:gatherDst]
	}
	return lanes
}

// TestGatherLanesVsReference is the differential of the engine's
// per-lane memory path: on gatherGraph, lanes disagree on addresses and
// banks within one run, have memories of unequal length, and four of
// them leave memory (in a load, in a store, and twice at a lane-uniform
// address past the shortest memory) while the rest run on. At 1, 3, 8 or 16
// banks and 1, 2 or 4 ports, and B of 1 (each lane alone), 2, 7 and 64,
// every lane's result (cycles, stall cycles, per-tile counters), final
// memory and error must be the reference interpreter's.
func TestGatherLanesVsReference(t *testing.T) {
	stock := buildProgram(t, gatherGraph())
	all := gatherLanes(64)
	stallsDiffer, faults := false, 0
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
			var stalls []int64
			for l, in := range all {
				res, err := s.RunScalar(in.Clone())
				if err != nil {
					faults++
				} else if l != 0 && res.StallCycles != stalls[0] {
					stallsDiffer = true
				}
				stalls = append(stalls, res.StallCycles)
			}
			for _, l := range []int{0, gatherLoadFault, gatherStoreFault, gatherUniformFault, gatherEntryFault} {
				diffAgainstReference(t, fmt.Sprintf("%s B=1 lane %d", what, l), s, all[l:l+1])
			}
			for _, B := range []int{2, 7, 64} {
				diffAgainstReference(t, fmt.Sprintf("%s B=%d", what, B), s, all[:B])
			}
		}
	}
	if !stallsDiffer {
		t.Fatal("every lane stalled alike: the lanes never disagreed on banks")
	}
	if want := 4 * 12; faults != want {
		t.Fatalf("%d lane runs left memory, want %d (4 lanes × 12 configurations)", faults, want)
	}
}
