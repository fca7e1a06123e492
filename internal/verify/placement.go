package verify

import (
	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/core"
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
	Needs: NeedEither,
	run:   runLSU,
}

func runLSU(c *checker) {
	grid := c.cx.Grid
	if m := c.cx.Mapping; m != nil {
		for _, bm := range m.Blocks {
			b := m.Graph.Blocks[bm.BB]
			for t, row := range bm.Tiles {
				if grid.Tile(arch.TileID(t)).HasLSU {
					continue
				}
				for cyc, s := range row {
					if s.Kind == core.SlotOp && b.Nodes[s.Node].Op.IsMem() {
						c.diag("LSU001", atBlock(bm.BB).onTile(t).atCycle(cyc).forNode(s.Node),
							"%s on a tile without a load/store unit", b.Nodes[s.Node].Op)
					}
				}
			}
		}
		return
	}
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

// cmPass: per-tile context-memory capacity and word accounting.
// The cm pass enforces the paper's central constraint: every tile's
// context — operations, moves and folded pnop words — must fit its
// context memory under the configured (possibly heterogeneous) sizing,
// and the mapper's word accounting must agree with the schedule it
// annotates and with the program the assembler emitted.
//
//	CM001  a tile's context words exceed its context-memory capacity
//	CM002  the mapper's per-tile op/move/pnop counts disagree with the
//	       schedule grid
//	CM003  the assembled program's word count disagrees with the
//	       mapping's accounting
var cmPass = &Pass{
	Name:  "cm",
	Code:  "CM",
	Needs: NeedEither,
	run:   runCM,
}

func runCM(c *checker) {
	grid := c.cx.Grid
	m, p := c.cx.Mapping, c.cx.Program
	// Capacity: prefer the program (the words actually loaded), fall back
	// to the mapping's accounting.
	for t := 0; t < grid.NumTiles(); t++ {
		var words int
		switch {
		case p != nil:
			words = p.Tiles[t].Words()
		default:
			for _, bm := range m.Blocks {
				words += bm.Words(arch.TileID(t))
			}
		}
		if limit := grid.Tile(arch.TileID(t)).CMWords; words > limit {
			c.diag("CM001", nowhere().onTile(t),
				"context needs %d words, context memory holds %d", words, limit)
		}
	}
	if m != nil {
		for _, bm := range m.Blocks {
			for t, row := range bm.Tiles {
				ops, moves := 0, 0
				for _, s := range row {
					switch s.Kind {
					case core.SlotOp:
						ops++
					case core.SlotMove:
						moves++
					}
				}
				pnops := countPnopWords(row)
				if ops != bm.Ops[t] || moves != bm.Moves[t] || pnops != bm.Pnops[t] {
					c.diag("CM002", atBlock(bm.BB).onTile(t),
						"schedule holds op=%d move=%d pnop=%d, accounting says op=%d move=%d pnop=%d",
						ops, moves, pnops, bm.Ops[t], bm.Moves[t], bm.Pnops[t])
				}
			}
		}
	}
	if m != nil && p != nil {
		for t := 0; t < grid.NumTiles(); t++ {
			want := 0
			for _, bm := range m.Blocks {
				want += bm.Words(arch.TileID(t))
			}
			if got := p.Tiles[t].Words(); got != want {
				c.diag("CM003", nowhere().onTile(t),
					"program holds %d words, mapping accounts for %d", got, want)
			}
		}
	}
}

// countPnopWords counts the pnop words a slot row assembles into: one per
// maximal run of empty slots (mirrors the assembler's folding).
func countPnopWords(row []core.Slot) int {
	n := 0
	inGap := false
	for _, s := range row {
		if s.Kind == core.SlotEmpty {
			if !inGap {
				n++
				inGap = true
			}
		} else {
			inGap = false
		}
	}
	return n
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
	Needs: NeedEither,
	run:   runBranch,
}

func runBranch(c *checker) {
	g := c.cx.Graph
	if p := c.cx.Program; p != nil {
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
	}
	for _, blk := range g.Blocks {
		bt, brTiles := branchFacts(c, blk.ID)
		here := atBlock(blk.ID)
		if blk.HasBranch() {
			if bt < 0 || int(bt) >= c.cx.Grid.NumTiles() {
				c.diag("BR001", here, "branching block announces branch tile %d", bt)
			} else {
				onBT := false
				for _, t := range brTiles {
					if t == int(bt) {
						onBT = true
					}
				}
				if !onBT {
					c.diag("BR003", here.onTile(int(bt)), "announced branch tile never executes the branch")
				}
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

// branchFacts returns the announced branch tile of a block and the tiles
// that actually execute an OpBr, preferring the mapping's view.
func branchFacts(c *checker, bb cdfg.BBID) (arch.TileID, []int) {
	if m := c.cx.Mapping; m != nil {
		bm := m.Blocks[bb]
		b := m.Graph.Blocks[bb]
		var brTiles []int
		for t, row := range bm.Tiles {
			for _, s := range row {
				if s.Kind == core.SlotOp && b.Nodes[s.Node].Op == cdfg.OpBr {
					brTiles = append(brTiles, t)
					break
				}
			}
		}
		return bm.BranchTile, brTiles
	}
	p := c.cx.Program
	var brTiles []int
	for t := range p.Tiles {
		if int(bb) >= len(p.Tiles[t].Segments) {
			continue
		}
		for _, in := range p.Tiles[t].Segments[bb].Instrs {
			if in.Kind == isa.KOp && in.Op == cdfg.OpBr {
				brTiles = append(brTiles, t)
				break
			}
		}
	}
	return p.BranchTiles[bb], brTiles
}
