package verify

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/isa"
)

// dataflowPass: def-before-use liveness: symbolic execution of every
// block schedule.
// The dataflow pass is the def-before-use liveness check on the
// time-extended grid: it symbolically executes every block schedule and
// proves each operand read (neighbor output register, register file,
// constant file) delivers the value the CDFG prescribes, that symbol
// homes hold their entry values until the writeback, and that every
// live-out symbol ends in its home register.
//
//	DF001  operand source cannot be resolved (bad kind, direction or
//	       register index — the machine has no such location)
//	DF002  operand reads a different value than the CDFG prescribes
//	DF003  writeback requested on a slot that produces no value
//	DF004  live-out symbol has no home register
//	DF005  a symbol's home register holds the wrong value at block end
var dataflowPass = &Pass{
	Name:  "dataflow",
	Code:  "DF",
	Needs: NeedMapping,
	run:   runDataflow,
}

// valID identifies the value an architectural location holds during the
// symbolic execution: a node's result, a symbol's block-entry value, or
// a literal constant.
type valID struct {
	kind byte // 'n' node, 's' symbol, 'c' const, 0 unknown
	node cdfg.NodeID
	sym  string
	c    int32
}

func (v valID) String() string {
	switch v.kind {
	case 'n':
		return fmt.Sprintf("n%d", v.node)
	case 's':
		return "sym:" + v.sym
	case 'c':
		return fmt.Sprintf("#%d", v.c)
	}
	return "?"
}

// expectVal is the value a node delivers when used as an operand.
func expectVal(b *cdfg.BasicBlock, id cdfg.NodeID) valID {
	nd := b.Nodes[id]
	switch nd.Op {
	case cdfg.OpConst:
		return valID{kind: 'c', c: nd.Val}
	case cdfg.OpSym:
		return valID{kind: 's', sym: nd.Sym}
	default:
		return valID{kind: 'n', node: id}
	}
}

func runDataflow(c *checker) {
	for _, bm := range c.cx.Mapping.Blocks {
		checkBlockDataflow(c, bm)
	}
}

func checkBlockDataflow(c *checker, bm *core.BlockMapping) {
	m := c.cx.Mapping
	b := m.Graph.Blocks[bm.BB]
	n := m.Grid.NumTiles()
	rrf := m.Grid.RRFSize

	out := make([]valID, n)
	rf := make([][]valID, n)
	for t := range rf {
		rf[t] = make([]valID, rrf)
	}
	// Symbol homes hold their entry values at block start.
	homeOf := map[string]core.SymLoc{}
	for s, h := range m.SymHomes {
		rf[h.Tile][h.Reg] = valID{kind: 's', sym: s}
		homeOf[s] = h
	}

	// resolve returns the value a source reads and whether the source
	// addresses a real location at all; unreachable locations (bad
	// direction or register index) are DF001, reported by the caller.
	resolve := func(t int, src isa.Src, prevOut []valID) (valID, bool) {
		switch src.Kind {
		case isa.SrcConst:
			return valID{kind: 'c', c: src.Val}, true
		case isa.SrcReg:
			if int(src.Reg) >= rrf {
				return valID{}, false
			}
			return rf[t][src.Reg], true
		case isa.SrcSelf:
			return prevOut[t], true
		case isa.SrcNbr:
			nbrs := m.Grid.Neighbors(arch.TileID(t))
			if int(src.Dir) >= len(nbrs) {
				return valID{}, false
			}
			return prevOut[nbrs[src.Dir]], true
		}
		return valID{}, false
	}

	for cyc := 0; cyc < bm.Len; cyc++ {
		prevOut := append([]valID(nil), out...)
		for t := 0; t < n; t++ {
			s := bm.Tiles[t][cyc]
			if s.Kind == core.SlotEmpty {
				continue
			}
			here := atBlock(bm.BB).onTile(t).atCycle(cyc).forNode(s.Node)
			var want []valID
			switch s.Kind {
			case core.SlotOp:
				nd := b.Nodes[s.Node]
				want = make([]valID, len(nd.Args))
				for i, a := range nd.Args {
					want[i] = expectVal(b, a)
				}
			case core.SlotMove:
				want = []valID{expectVal(b, s.Node)}
			}
			for i := 0; i < s.NSrc && i < len(want); i++ {
				got, ok := resolve(t, s.Srcs[i], prevOut)
				if !ok {
					c.diag("DF001", here, "operand %d source %v addresses no machine location", i, s.Srcs[i])
					continue
				}
				if got != want[i] {
					c.diag("DF002", here, "operand %d reads %v via %v, want %v", i, got, s.Srcs[i], want[i])
				}
			}
			// Commit the result.
			var res valID
			produce := false
			switch s.Kind {
			case core.SlotOp:
				if b.Nodes[s.Node].Op.HasResult() {
					res = valID{kind: 'n', node: s.Node}
					produce = true
				}
			case core.SlotMove:
				res = expectVal(b, s.Node)
				produce = true
			}
			if produce {
				out[t] = res
				if s.WB && int(s.WReg) < rrf {
					rf[t][s.WReg] = res
				}
			} else if s.WB {
				c.diag("DF003", here, "writeback on value-less %v", s)
			}
		}
	}

	// Every live-out symbol must end in its home register, and every home
	// the block does not write must be preserved — a temp clobbering a
	// home register pinned by another block corrupts the symbol at
	// runtime. (Iterate in sorted symbol order so diagnostics are
	// deterministic.)
	b.LiveOuts(func(s string, _ cdfg.NodeID) bool {
		if _, ok := m.SymHomes[s]; !ok {
			c.diag("DF004", atBlock(bm.BB), "live-out symbol %q has no home", s)
		}
		return true
	})
	syms := make([]string, 0, len(homeOf))
	for s := range homeOf {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	for _, s := range syms {
		h := homeOf[s]
		got := rf[h.Tile][h.Reg]
		var want valID
		if def, ok := b.LiveOut[s]; ok {
			want = expectVal(b, def)
		} else {
			want = valID{kind: 's', sym: s}
		}
		if got != want {
			c.diag("DF005", atBlock(bm.BB).onTile(int(h.Tile)),
				"symbol %q home (tile %d, r%d) holds %v at block end, want %v",
				s, h.Tile+1, h.Reg, got, want)
		}
	}
}
