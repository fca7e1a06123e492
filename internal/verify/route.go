package verify

import (
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/isa"
)

// routePass: torus-adjacency and definedness of every neighbor read.
// The route pass proves every operand transported over the torus rides a
// real link and reads a defined output register: a neighbor direction
// must name one of the four torus links (the simulator indexes the
// neighbor table with it and would panic otherwise), the addressed tile
// must be torus-adjacent, and the producer must have driven its output
// register in an earlier cycle of the same block — output registers
// carry no value across block entry.
//
//	ROUTE001  neighbor direction outside the torus (no such link)
//	ROUTE002  neighbor/self read from an output register no earlier
//	          cycle of the block has driven
//	ROUTE003  neighbor table names a non-adjacent tile (custom grids)
var routePass = &Pass{
	Name:  "route",
	Code:  "ROUTE",
	Needs: NeedMapping,
	run:   runRoute,
}

func runRoute(c *checker) {
	m := c.cx.Mapping
	grid := m.Grid
	n := grid.NumTiles()
	for _, bm := range m.Blocks {
		// produced[t] is monotone: once a tile drives its output register
		// it stays driven for the rest of the block.
		produced := make([]bool, n)
		for cyc := 0; cyc < bm.Len; cyc++ {
			var producers []int
			for t := 0; t < n; t++ {
				s := bm.Tiles[t][cyc]
				if s.Kind == core.SlotEmpty {
					continue
				}
				here := atBlock(bm.BB).onTile(t).atCycle(cyc).forNode(s.Node)
				for i := 0; i < s.NSrc; i++ {
					src := s.Srcs[i]
					switch src.Kind {
					case isa.SrcNbr:
						nbrs := grid.Neighbors(arch.TileID(t))
						if int(src.Dir) >= len(nbrs) {
							c.diag("ROUTE001", here,
								"operand %d direction %d exceeds the torus links (N,S,W,E)", i, src.Dir)
							continue
						}
						nb := nbrs[src.Dir]
						if !grid.Adjacent(arch.TileID(t), nb) {
							c.diag("ROUTE003", here,
								"operand %d reads tile %d which is not torus-adjacent", i, nb+1)
						}
						if !produced[nb] {
							c.diag("ROUTE002", here,
								"operand %d reads tile %d's output register, undriven this block", i, nb+1)
						}
					case isa.SrcSelf:
						if !produced[t] {
							c.diag("ROUTE002", here,
								"operand %d reads own output register, undriven this block", i)
						}
					}
				}
				if slotProduces(m, bm, s) {
					producers = append(producers, t)
				}
			}
			for _, t := range producers {
				produced[t] = true
			}
		}
	}
}

// slotProduces reports whether the slot drives the tile's output register.
func slotProduces(m *core.Mapping, bm *core.BlockMapping, s core.Slot) bool {
	switch s.Kind {
	case core.SlotMove:
		return true
	case core.SlotOp:
		return m.Graph.Blocks[bm.BB].Nodes[s.Node].Op.HasResult()
	}
	return false
}
