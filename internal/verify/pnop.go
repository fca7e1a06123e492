package verify

import (
	"repro/internal/isa"
)

// pnopPass: pnop/hold legality: idle counts and per-block cycle spans.
// The pnop pass checks the hold legality of folded idle cycles: every
// pnop word idles a representable, positive cycle count, and each
// segment's words span exactly the block's schedule length — the
// lockstep simulator unrolls segments and refuses any other shape.
//
//	PNOP001  pnop idle count < 1 or beyond the encodable maximum
//	PNOP002  a segment's cycles do not sum to the block's length
//	PNOP003  a segment's recorded cycle span disagrees with the block
var pnopPass = &Pass{
	Name:  "pnop",
	Code:  "PNOP",
	Needs: NeedProgram,
	run:   runPnop,
}

func runPnop(c *checker) {
	p := c.cx.Program
	for t := range p.Tiles {
		for _, seg := range p.Tiles[t].Segments {
			if int(seg.BB) >= len(p.BlockLens) {
				continue // the branch pass reports BR005/BR006
			}
			cycles := 0
			for _, in := range seg.Instrs {
				if in.Kind == isa.KPnop && (in.Count < 1 || in.Count > isa.MaxPnop) {
					c.diag("PNOP001", atBlock(seg.BB).onTile(t).atCycle(cycles),
						"pnop idles %d cycles (legal: 1..%d)", in.Count, isa.MaxPnop)
				}
				cycles += in.Cycles()
			}
			want := p.BlockLens[seg.BB]
			if cycles != want {
				c.diag("PNOP002", atBlock(seg.BB).onTile(t),
					"segment spans %d cycles, block runs %d", cycles, want)
			}
			if seg.Cycles != want {
				c.diag("PNOP003", atBlock(seg.BB).onTile(t),
					"segment records %d cycles, block runs %d", seg.Cycles, want)
			}
		}
	}
}
