package verify_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/verify"
)

// storesGraph builds a single-block kernel of n stores with distinct
// constant addresses — a minimal shape whose hand-built mapping lets the
// tests hit checks the real mapper never trips (e.g. CRF pressure).
func storesGraph(n int) *cdfg.Graph {
	b := cdfg.NewBuilder("stores")
	bb := b.Block("body")
	for i := 0; i < n; i++ {
		bb.Store(bb.Const(int32(i)), bb.Const(7))
	}
	return b.Finish()
}

// storesMapping hand-builds the obvious legal mapping of storesGraph:
// every store in its own cycle on tile 1 (an LSU tile), all other tiles
// idle for the whole block.
func storesMapping(g *cdfg.Graph, grid *arch.Grid) *core.Mapping {
	blk := g.Blocks[0]
	var stores []cdfg.NodeID
	for _, nd := range blk.Nodes {
		if nd.Op == cdfg.OpStore {
			stores = append(stores, nd.ID)
		}
	}
	n := grid.NumTiles()
	bm := &core.BlockMapping{
		BB:         blk.ID,
		Len:        len(stores),
		Tiles:      make([][]core.Slot, n),
		BranchTile: -1,
		Ops:        make([]int, n),
		Moves:      make([]int, n),
		Pnops:      make([]int, n),
	}
	for t := 0; t < n; t++ {
		bm.Tiles[t] = make([]core.Slot, bm.Len)
	}
	for c, id := range stores {
		nd := blk.Nodes[id]
		bm.Tiles[0][c] = core.Slot{
			Kind: core.SlotOp,
			Node: id,
			Srcs: [isa.MaxSrcs]isa.Src{
				isa.Const(blk.Nodes[nd.Args[0]].Val),
				isa.Const(blk.Nodes[nd.Args[1]].Val),
			},
			NSrc: 2,
		}
	}
	bm.Ops[0] = len(stores)
	for t := 1; t < n; t++ {
		bm.Pnops[t] = 1 // one folded pnop spanning the whole idle row
	}
	return &core.Mapping{
		Graph:    g,
		Grid:     grid,
		Flow:     core.FlowBasic,
		Blocks:   []*core.BlockMapping{bm},
		SymHomes: map[string]core.SymLoc{},
	}
}

func TestSyntheticMappingClean(t *testing.T) {
	g := storesGraph(5)
	m := storesMapping(g, arch.MustGrid(arch.HOM64))
	if err := m.Validate(); err != nil {
		t.Fatalf("synthetic mapping is structurally invalid: %v", err)
	}
	if res := verify.Run(&verify.Context{Mapping: m, Program: assembled(t, m)}); !res.OK() {
		t.Fatalf("clean synthetic mapping reported diagnostics:\n%s", res.Report())
	}
}

// TestREG003CRFPressure gives one tile more distinct constants than the
// 32-entry CRF holds. REG003 is retired: the assembler refuses the
// mapping (isa.CRF.Intern), so no program with the overflow exists.
func TestREG003CRFPressure(t *testing.T) {
	g := storesGraph(isa.MaxCRF + 3)
	m := storesMapping(g, arch.MustGrid(arch.HOM64))
	requireAssembleError(t, m, "constant register file overflow")
}

// TestBR002PhantomBranchTile announces a branch tile on a branch-less
// block.
func TestBR002PhantomBranchTile(t *testing.T) {
	g := storesGraph(3)
	m := storesMapping(g, arch.MustGrid(arch.HOM64))
	m.Blocks[0].BranchTile = 2
	requireCode(t, checkAssembled(t, m), "BR002")
}
