package verify

import (
	"slices"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/isa"
)

// lsuPass: loads and stores execute only on LSU tiles.
// The lsu pass pins memory traffic to the hardware that can serve it:
// loads and stores may only execute on tiles carrying a load/store unit
// (rows 0–1 of the paper's 4×4 array).
//
//	LSU001  load/store scheduled on a tile without an LSU
var lsuPass = &Pass{
	Name:  "lsu",
	Code:  "LSU",
	Needs: NeedProgram,
	run:   runLSU,
}

func runLSU(c *checker) {
	grid := c.cx.Grid
	p := c.cx.Program
	for t := range p.Tiles {
		if grid.Tile(arch.TileID(t)).HasLSU {
			continue
		}
		for _, seg := range p.Tiles[t].Segments {
			cyc := 0
			for _, in := range seg.Instrs {
				if in.Kind == isa.KOp && in.Op.IsMem() {
					c.diag("LSU001", atBlock(seg.BB).onTile(t).atCycle(cyc),
						"%s on a tile without a load/store unit", in.Op)
				}
				cyc += in.Cycles()
			}
		}
	}
}

// cmPass: per-tile context-memory capacity.
// The cm pass enforces the paper's central constraint: every tile's
// context — operations, moves and folded pnop words, as loaded — must
// fit its context memory under the configured (possibly heterogeneous)
// sizing.
//
//	CM001  a tile's context words exceed its context-memory capacity
var cmPass = &Pass{
	Name:  "cm",
	Code:  "CM",
	Needs: NeedProgram,
	run:   runCM,
}

func runCM(c *checker) {
	grid := c.cx.Grid
	p := c.cx.Program
	for t := range p.Tiles {
		words := p.Tiles[t].Words()
		if limit := grid.Tile(arch.TileID(t)).CMWords; words > limit {
			c.diag("CM001", nowhere().onTile(t),
				"context needs %d words, context memory holds %d", words, limit)
		}
	}
}

// branchPass: branch-target and block-ordering consistency.
// The branch pass ties control flow together: a branching block must
// announce a real branch tile, that tile must execute the block's OpBr,
// no other tile may branch, and the program's per-block tables must
// cover the graph — the simulator broadcasts the branch verdict from
// exactly the announced tile.
//
//	BR001  branching block announces no (or an out-of-range) branch tile
//	BR002  non-branching block announces a branch tile
//	BR003  the announced branch tile never executes the block's OpBr
//	BR004  an OpBr executes on a tile other than the announced one
//	BR005  the program's block tables do not cover the graph
//	BR006  a tile's segment table is mis-ordered or mis-sized
var branchPass = &Pass{
	Name:  "branch",
	Code:  "BR",
	Needs: NeedProgram,
	run:   runBranch,
}

func runBranch(c *checker) {
	g := c.cx.Graph
	p := c.cx.Program
	if len(p.BlockLens) != len(g.Blocks) || len(p.BranchTiles) != len(g.Blocks) {
		c.diag("BR005", nowhere(),
			"program tables cover %d/%d blocks, graph has %d",
			len(p.BlockLens), len(p.BranchTiles), len(g.Blocks))
		return
	}
	for t := range p.Tiles {
		tc := &p.Tiles[t]
		if len(tc.Segments) != len(g.Blocks) {
			c.diag("BR006", nowhere().onTile(t),
				"tile holds %d segments, graph has %d blocks", len(tc.Segments), len(g.Blocks))
			return
		}
		for bb, seg := range tc.Segments {
			if seg.BB != cdfg.BBID(bb) {
				c.diag("BR006", atBlock(cdfg.BBID(bb)).onTile(t),
					"segment %d belongs to block b%d", bb, seg.BB)
				return
			}
		}
	}
	for _, blk := range g.Blocks {
		bt := p.BranchTiles[blk.ID]
		var brTiles []int
		for t := range p.Tiles {
			if branches(p.Tiles[t].Segments[blk.ID].Instrs) {
				brTiles = append(brTiles, t)
			}
		}
		here := atBlock(blk.ID)
		if blk.HasBranch() {
			if bt < 0 || int(bt) >= c.cx.Grid.NumTiles() {
				c.diag("BR001", here, "branching block announces branch tile %d", bt)
			} else if !slices.Contains(brTiles, int(bt)) {
				c.diag("BR003", here.onTile(int(bt)), "announced branch tile never executes the branch")
			}
		} else if bt >= 0 {
			c.diag("BR002", here.onTile(int(bt)), "block has no branch but announces a branch tile")
		}
		for _, t := range brTiles {
			if !blk.HasBranch() || t != int(bt) {
				c.diag("BR004", here.onTile(t), "br executes on an unannounced tile")
			}
		}
	}
}

// branches reports whether a segment executes an OpBr.
func branches(instrs []isa.Instr) bool {
	for _, in := range instrs {
		if in.Kind == isa.KOp && in.Op == cdfg.OpBr {
			return true
		}
	}
	return false
}
