package verify

import (
	"repro/internal/isa"
)

// regsPass: RRF bounds of every register access.
// The regs pass bounds register-file traffic: writebacks and register
// reads must address the RRF (the mapper's 8-entry window). The context
// word encodes 16 registers, so an out-of-window index assembles and
// loads; only this pass refuses it.
//
//	REG001  writeback register index outside the RRF
//	REG002  register-read index outside the RRF
var regsPass = &Pass{
	Name:  "regs",
	Code:  "REG",
	Needs: NeedProgram,
	run:   runRegs,
}

func runRegs(c *checker) {
	p := c.cx.Program
	rrf := c.cx.Grid.RRFSize
	for t := range p.Tiles {
		for _, seg := range p.Tiles[t].Segments {
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
	}
}
