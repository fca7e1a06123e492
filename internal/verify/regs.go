package verify

import (
	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/isa"
)

// regsPass: RRF/CRF capacity and symbol-home live-range overlap.
// The regs pass bounds register-file traffic: writebacks and register
// reads must address the RRF (the mapper's 8-entry window), a tile's
// distinct constants must fit the 32-entry CRF the assembler will
// populate, and the last write a block makes to a symbol's home
// register must carry the symbol's entry value or its live-out
// definition — the live-range overlap the paper's location constraint
// rules out. Earlier writes may use the home as scratch: the dataflow
// pass proves any read in between still resolves correctly, and REG004
// attributes the slot that leaves the home corrupted at block end.
//
//	REG001  writeback register index outside the RRF
//	REG002  register-read index outside the RRF
//	REG003  a tile references more distinct constants than the CRF holds
//	REG004  a home register's final writer clobbers it with an unrelated value
var regsPass = &Pass{
	Name:  "regs",
	Code:  "REG",
	Needs: NeedEither,
	run:   runRegs,
}

func runRegs(c *checker) {
	if c.cx.Mapping != nil {
		runRegsMapping(c)
		return
	}
	runRegsProgram(c)
}

func runRegsMapping(c *checker) {
	m := c.cx.Mapping
	rrf := m.Grid.RRFSize
	// Reverse the home map for clobber detection. Two symbols sharing one
	// home would already fail the dataflow pass; last-writer-wins here.
	homeSym := map[core.SymLoc]string{}
	for s, h := range m.SymHomes {
		homeSym[h] = s
	}
	consts := make(map[int32]bool)
	type write struct {
		cyc  int
		slot core.Slot
	}
	for t := 0; t < m.Grid.NumTiles(); t++ {
		clear(consts)
		for _, bm := range m.Blocks {
			b := m.Graph.Blocks[bm.BB]
			lastWrite := map[uint8]write{}
			for cyc, s := range bm.Tiles[t] {
				if s.Kind == core.SlotEmpty {
					continue
				}
				here := atBlock(bm.BB).onTile(t).atCycle(cyc).forNode(s.Node)
				for i := 0; i < s.NSrc; i++ {
					switch s.Srcs[i].Kind {
					case isa.SrcReg:
						if int(s.Srcs[i].Reg) >= rrf {
							c.diag("REG002", here, "operand %d reads r%d, RRF has %d registers",
								i, s.Srcs[i].Reg, rrf)
						}
					case isa.SrcConst:
						consts[s.Srcs[i].Val] = true
					}
				}
				if !s.WB {
					continue
				}
				if int(s.WReg) >= rrf {
					c.diag("REG001", here, "writeback to r%d, RRF has %d registers", s.WReg, rrf)
					continue
				}
				lastWrite[s.WReg] = write{cyc: cyc, slot: s}
			}
			// Home-clobber: only the block's FINAL write to a pinned
			// register must carry the symbol's entry value (identity carry)
			// or its live-out definition; earlier writes are legal scratch
			// use the dataflow pass vets read-by-read.
			for reg := uint8(0); int(reg) < rrf; reg++ {
				lw, wrote := lastWrite[reg]
				if !wrote {
					continue
				}
				sym, pinned := homeSym[core.SymLoc{Tile: arch.TileID(t), Reg: reg}]
				if !pinned {
					continue
				}
				written, ok := slotValue(b, lw.slot)
				if !ok {
					continue // value-less writeback: the dataflow pass reports DF003
				}
				legal := written == (valID{kind: 's', sym: sym})
				if def, liveOut := b.LiveOut[sym]; liveOut && written == expectVal(b, def) {
					legal = true
				}
				if !legal {
					c.diag("REG004", atBlock(bm.BB).onTile(t).atCycle(lw.cyc).forNode(lw.slot.Node),
						"clobbers symbol %q home r%d with %v", sym, reg, written)
				}
			}
		}
		if len(consts) > isa.MaxCRF {
			c.diag("REG003", nowhere().onTile(t),
				"%d distinct constants exceed the %d-entry CRF", len(consts), isa.MaxCRF)
		}
	}
}

func runRegsProgram(c *checker) {
	p := c.cx.Program
	rrf := p.Grid.RRFSize
	for t := range p.Tiles {
		tc := &p.Tiles[t]
		for _, seg := range tc.Segments {
			cyc := 0
			for _, in := range seg.Instrs {
				here := atBlock(seg.BB).onTile(t).atCycle(cyc)
				if in.WB && int(in.WReg) >= rrf {
					c.diag("REG001", here, "writeback to r%d, RRF has %d registers", in.WReg, rrf)
				}
				for i := 0; i < in.NSrc; i++ {
					if in.Srcs[i].Kind == isa.SrcReg && int(in.Srcs[i].Reg) >= rrf {
						c.diag("REG002", here, "operand %d reads r%d, RRF has %d registers",
							i, in.Srcs[i].Reg, rrf)
					}
				}
				cyc += in.Cycles()
			}
		}
		if tc.CRF != nil && tc.CRF.Len() > isa.MaxCRF {
			c.diag("REG003", nowhere().onTile(t),
				"%d interned constants exceed the %d-entry CRF", tc.CRF.Len(), isa.MaxCRF)
		}
	}
}

// slotValue is the value a slot writes back, mirroring the dataflow
// pass's commit step.
func slotValue(b *cdfg.BasicBlock, s core.Slot) (valID, bool) {
	switch s.Kind {
	case core.SlotMove:
		return expectVal(b, s.Node), true
	case core.SlotOp:
		if b.Nodes[s.Node].Op.HasResult() {
			return valID{kind: 'n', node: s.Node}, true
		}
	}
	return valID{}, false
}
