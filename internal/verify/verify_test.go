package verify_test

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/verify"
)

// mapKernel maps a benchmark kernel fresh; corruption tests each take
// their own mapping so faults never leak between subtests.
func mapKernel(t *testing.T, kernel string, cfg arch.ConfigName, flow core.Flow) *core.Mapping {
	t.Helper()
	k, err := kernels.ByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Map(k.Build(), arch.MustGrid(cfg), core.DefaultOptions(flow))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func assembled(t *testing.T, m *core.Mapping) *asm.Program {
	t.Helper()
	p, err := asm.Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// requireCode asserts the verifier (full context) reports the code.
func requireCode(t *testing.T, res *verify.Result, code string) {
	t.Helper()
	for _, d := range res.Diags {
		if d.Code == code {
			return
		}
	}
	t.Fatalf("want diagnostic %s, got:\n%s", code, res.Report())
}

// firstSlot finds a slot of the given kind carrying the wanted source.
func firstSlot(m *core.Mapping, kind core.SlotKind, withSrc isa.SrcKind) (bb, tile, cyc int, ok bool) {
	for bi, bm := range m.Blocks {
		for ti, row := range bm.Tiles {
			for ci, s := range row {
				if s.Kind != kind {
					continue
				}
				if withSrc != isa.SrcNone {
					match := false
					for i := 0; i < s.NSrc; i++ {
						if s.Srcs[i].Kind == withSrc {
							match = true
						}
					}
					if !match {
						continue
					}
				}
				return bi, ti, ci, true
			}
		}
	}
	return 0, 0, 0, false
}

func TestCleanKernelFullContext(t *testing.T) {
	m := mapKernel(t, "DCFilter", arch.HOM64, core.FlowCAB)
	p := assembled(t, m)
	res := verify.Run(&verify.Context{Mapping: m, Program: p})
	if !res.OK() {
		t.Fatalf("clean kernel reported diagnostics:\n%s", res.Report())
	}
	if len(res.Skipped) != 0 {
		t.Fatalf("ran %v skipped %v, want every pass run", res.Ran, res.Skipped)
	}
}

// TestMappingOnlySkipsProgramPasses: without a program only the dataflow
// pass, the one that reads the mapping, runs.
func TestMappingOnlySkipsProgramPasses(t *testing.T) {
	m := mapKernel(t, "DCFilter", arch.HOM64, core.FlowCAB)
	res := verify.Run(&verify.Context{Mapping: m})
	if !res.OK() {
		t.Fatalf("clean mapping reported diagnostics:\n%s", res.Report())
	}
	if len(res.Ran) != 1 || res.Ran[0] != "dataflow" || len(res.Skipped) != 6 {
		t.Fatalf("ran %v skipped %v, want only dataflow run", res.Ran, res.Skipped)
	}
}

// TestProgramOnlySkipsDataflow: without a mapping every pass but
// dataflow runs — the disk tier's trust gate.
func TestProgramOnlySkipsDataflow(t *testing.T) {
	p := assembled(t, mapKernel(t, "DCFilter", arch.HOM64, core.FlowCAB))
	res := verify.CheckProgram(p)
	if !res.OK() {
		t.Fatalf("clean program reported diagnostics:\n%s", res.Report())
	}
	if len(res.Ran) != 6 || len(res.Skipped) != 1 || res.Skipped[0] != "dataflow" {
		t.Fatalf("ran %v skipped %v, want every pass but dataflow run", res.Ran, res.Skipped)
	}
}

func TestCheckImage(t *testing.T) {
	m := mapKernel(t, "DCFilter", arch.HOM64, core.FlowCAB)
	p := assembled(t, m)
	data, err := asm.SaveImage(p)
	if err != nil {
		t.Fatal(err)
	}
	img, err := asm.LoadImage(data)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.ProgramFromImage(img, m.Graph, m.Grid)
	if err != nil {
		t.Fatal(err)
	}
	if res := verify.CheckProgram(prog); !res.OK() {
		t.Fatalf("clean image reported diagnostics:\n%s", res.Report())
	}
}

// checkAssembled assembles a (corrupted) mapping and verifies the
// program alone: the path of every mapping fault that the assembler
// accepts and a program-side pass must refuse.
func checkAssembled(t *testing.T, m *core.Mapping) *verify.Result {
	t.Helper()
	return verify.CheckProgram(assembled(t, m))
}

// requireAssembleError asserts the assembler refuses the mapping with an
// error containing want.
func requireAssembleError(t *testing.T, m *core.Mapping, want string) {
	t.Helper()
	_, err := asm.Assemble(m)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("want an assemble error containing %q, got %v", want, err)
	}
}

// TestMappingFaults corrupts a fresh DCFilter mapping per fault class and
// asserts the check that owns the fault refuses it: the dataflow pass on
// the mapping, the assembler, or a program-side pass on the assembled
// program. Subtests keep the code they were written for; a retired code's
// subtest (ROUTE001, ROUTE002, REG004, CM002) names in its body the check
// that now catches its corruption.
func TestMappingFaults(t *testing.T) {
	fresh := func(t *testing.T) *core.Mapping {
		return mapKernel(t, "DCFilter", arch.HOM64, core.FlowCAB)
	}
	t.Run("ROUTE001 direction off the torus", func(t *testing.T) {
		m := fresh(t)
		bb, ti, ci, ok := firstSlot(m, core.SlotOp, isa.SrcNbr)
		if !ok {
			t.Skip("no neighbor operand")
		}
		s := &m.Blocks[bb].Tiles[ti][ci]
		for i := 0; i < s.NSrc; i++ {
			if s.Srcs[i].Kind == isa.SrcNbr {
				s.Srcs[i].Dir = 7
			}
		}
		requireCode(t, verify.Run(&verify.Context{Mapping: m}), "DF001")
	})
	t.Run("ROUTE002 read of undriven output register", func(t *testing.T) {
		m := fresh(t)
		if !redirectToUndriven(m) {
			t.Skip("every neighbor is driven before every read")
		}
		requireCode(t, verify.Run(&verify.Context{Mapping: m}), "DF002")
	})
	t.Run("REG001 writeback outside the RRF", func(t *testing.T) {
		m := fresh(t)
		bb, ti, ci, ok := findWB(m)
		if !ok {
			t.Skip("no writeback slot")
		}
		m.Blocks[bb].Tiles[ti][ci].WReg = 15
		requireCode(t, checkAssembled(t, m), "REG001")
	})
	t.Run("REG002 register read outside the RRF", func(t *testing.T) {
		m := fresh(t)
		bb, ti, ci, ok := firstSlot(m, core.SlotOp, isa.SrcReg)
		if !ok {
			t.Skip("no register operand")
		}
		s := &m.Blocks[bb].Tiles[ti][ci]
		for i := 0; i < s.NSrc; i++ {
			if s.Srcs[i].Kind == isa.SrcReg {
				s.Srcs[i].Reg = 15
			}
		}
		requireCode(t, checkAssembled(t, m), "REG002")
	})
	t.Run("REG004 home register clobbered", func(t *testing.T) {
		m := fresh(t)
		if !clobberHome(m) {
			t.Skip("no clobberable slot on a home tile")
		}
		requireCode(t, verify.Run(&verify.Context{Mapping: m}), "DF005")
	})
	t.Run("DF002 neighbor direction rotated", func(t *testing.T) {
		m := fresh(t)
		bb, ti, ci, ok := firstSlot(m, core.SlotOp, isa.SrcNbr)
		if !ok {
			t.Skip("no neighbor operand")
		}
		s := &m.Blocks[bb].Tiles[ti][ci]
		for i := 0; i < s.NSrc; i++ {
			if s.Srcs[i].Kind == isa.SrcNbr {
				s.Srcs[i].Dir = (s.Srcs[i].Dir + 1) % 4
			}
		}
		requireCode(t, verify.Run(&verify.Context{Mapping: m}), "DF002")
	})
	t.Run("DF002 constant rebound", func(t *testing.T) {
		m := fresh(t)
		bb, ti, ci, ok := firstSlot(m, core.SlotOp, isa.SrcConst)
		if !ok {
			t.Skip("no constant operand")
		}
		s := &m.Blocks[bb].Tiles[ti][ci]
		for i := 0; i < s.NSrc; i++ {
			if s.Srcs[i].Kind == isa.SrcConst {
				s.Srcs[i].Val++
			}
		}
		requireCode(t, verify.Run(&verify.Context{Mapping: m}), "DF002")
	})
	t.Run("DF005 home register corrupted at block end", func(t *testing.T) {
		m := fresh(t)
		if !displaceHome(m) {
			t.Skip("no displaceable home")
		}
		requireCode(t, verify.Run(&verify.Context{Mapping: m}), "DF005")
	})
	t.Run("LSU001 store on a non-LSU tile", func(t *testing.T) {
		m := fresh(t)
		if !relocateMemRow(m) {
			t.Skip("no memory row to relocate")
		}
		requireAssembleError(t, m, "on non-LSU tile")
	})
	t.Run("CM001 context memory exceeded", func(t *testing.T) {
		m := fresh(t)
		m.Grid = tinyGrid(t)
		requireCode(t, checkAssembled(t, m), "CM001")
	})
	t.Run("CM002 word accounting drifted", func(t *testing.T) {
		m := fresh(t)
		m.Blocks[0].Pnops[3]++
		requireAssembleError(t, m, "pnops")
	})
	t.Run("BR001 branch tile dropped", func(t *testing.T) {
		m := fresh(t)
		bb, ok := branchingBlock(m.Graph)
		if !ok {
			t.Skip("no branching block")
		}
		m.Blocks[bb].BranchTile = -1
		requireCode(t, checkAssembled(t, m), "BR001")
	})
	t.Run("BR003 branch tile retargeted", func(t *testing.T) {
		m := fresh(t)
		bb, ok := branchingBlock(m.Graph)
		if !ok {
			t.Skip("no branching block")
		}
		m.Blocks[bb].BranchTile = (m.Blocks[bb].BranchTile + 1) % arch.TileID(m.Grid.NumTiles())
		res := checkAssembled(t, m)
		requireCode(t, res, "BR003")
		requireCode(t, res, "BR004")
	})
}

// tinyGrid is the 4×4 torus with two context words per tile: no kernel
// fits it.
func tinyGrid(t *testing.T) *arch.Grid {
	t.Helper()
	var cm [16]int
	for i := range cm {
		cm[i] = 2
	}
	tiny, err := arch.CustomGrid("TINY", cm)
	if err != nil {
		t.Fatal(err)
	}
	return tiny
}

// TestProgramFaults corrupts a fresh assembled DCFilter program per fault
// class and asserts the program-level passes report their codes — the
// checks the disk tier's trust gate and the strip re-verification run.
func TestProgramFaults(t *testing.T) {
	fresh := func(t *testing.T) *asm.Program {
		return assembled(t, mapKernel(t, "DCFilter", arch.HOM64, core.FlowCAB))
	}
	t.Run("REG001 writeback outside the RRF", func(t *testing.T) {
		p := fresh(t)
		in, ok := findInstr(p, func(in *isa.Instr) bool { return in.Kind != isa.KPnop && in.WB })
		if !ok {
			t.Skip("no writeback word")
		}
		in.WReg = 15
		requireCode(t, verify.CheckProgram(p), "REG001")
	})
	t.Run("REG002 register read outside the RRF", func(t *testing.T) {
		p := fresh(t)
		in, ok := findInstr(p, readsReg)
		if !ok {
			t.Skip("no register operand")
		}
		for i := 0; i < in.NSrc; i++ {
			if in.Srcs[i].Kind == isa.SrcReg {
				in.Srcs[i].Reg = 15
			}
		}
		requireCode(t, verify.CheckProgram(p), "REG002")
	})
	t.Run("LSU001 memory context on a non-LSU tile", func(t *testing.T) {
		p := fresh(t)
		if !relocateMemTile(p) {
			t.Skip("no memory tile to relocate")
		}
		requireCode(t, verify.CheckProgram(p), "LSU001")
	})
	t.Run("CM001 context memory exceeded", func(t *testing.T) {
		p := fresh(t)
		p.Grid = tinyGrid(t)
		requireCode(t, verify.CheckProgram(p), "CM001")
	})
	t.Run("BR001 branch tile dropped", func(t *testing.T) {
		p := fresh(t)
		bb, ok := branchingBlock(p.Graph)
		if !ok {
			t.Skip("no branching block")
		}
		p.BranchTiles[bb] = -1
		requireCode(t, verify.CheckProgram(p), "BR001")
	})
	t.Run("BR002 phantom branch tile", func(t *testing.T) {
		p := fresh(t)
		bb, ok := straightBlock(p.Graph)
		if !ok {
			t.Skip("every block branches")
		}
		p.BranchTiles[bb] = 2
		requireCode(t, verify.CheckProgram(p), "BR002")
	})
	t.Run("BR003 branch tile retargeted", func(t *testing.T) {
		p := fresh(t)
		bb, ok := branchingBlock(p.Graph)
		if !ok {
			t.Skip("no branching block")
		}
		p.BranchTiles[bb] = (p.BranchTiles[bb] + 1) % arch.TileID(len(p.Tiles))
		res := verify.CheckProgram(p)
		requireCode(t, res, "BR003")
		requireCode(t, res, "BR004")
	})
	t.Run("BR004 second tile branches", func(t *testing.T) {
		p := fresh(t)
		if !duplicateBranch(p) {
			t.Skip("no word to turn into a branch")
		}
		requireCode(t, verify.CheckProgram(p), "BR004")
	})
	t.Run("ENC001 malformed instruction", func(t *testing.T) {
		p := fresh(t)
		in, ok := findInstr(p, func(in *isa.Instr) bool { return in.Kind == isa.KOp && in.NSrc > 0 })
		if !ok {
			t.Skip("no op word")
		}
		in.NSrc = 0
		requireCode(t, verify.CheckProgram(p), "ENC001")
	})
	t.Run("ENC004 stored binary word flipped", func(t *testing.T) {
		p := fresh(t)
		for ti := range p.Tiles {
			if len(p.Tiles[ti].Binary) > 0 {
				p.Tiles[ti].Binary[0] ^= 1 << 9 // flip the writeback-register field
				break
			}
		}
		requireCode(t, verify.CheckProgram(p), "ENC004")
	})
	t.Run("PNOP001 zero-cycle pnop", func(t *testing.T) {
		p := fresh(t)
		in, ok := findInstr(p, func(in *isa.Instr) bool { return in.Kind == isa.KPnop })
		if !ok {
			t.Skip("no pnop word")
		}
		in.Count = 0
		requireCode(t, verify.CheckProgram(p), "PNOP001")
	})
	t.Run("PNOP002 segment cycle drift", func(t *testing.T) {
		p := fresh(t)
		in, ok := findInstr(p, func(in *isa.Instr) bool { return in.Kind == isa.KPnop })
		if !ok {
			t.Skip("no pnop word")
		}
		in.Count++
		requireCode(t, verify.CheckProgram(p), "PNOP002")
	})
	t.Run("PNOP003 segment span drift", func(t *testing.T) {
		p := fresh(t)
		p.Tiles[0].Segments[0].Cycles++
		requireCode(t, verify.CheckProgram(p), "PNOP003")
	})
	t.Run("BR005 block tables truncated", func(t *testing.T) {
		p := fresh(t)
		p.BlockLens = p.BlockLens[:len(p.BlockLens)-1]
		requireCode(t, verify.CheckProgram(p), "BR005")
	})
	t.Run("BR006 segment table shuffled", func(t *testing.T) {
		p := fresh(t)
		segs := p.Tiles[0].Segments
		if len(segs) < 2 {
			t.Skip("single-block program")
		}
		segs[0], segs[1] = segs[1], segs[0]
		requireCode(t, verify.CheckProgram(p), "BR006")
	})
}

// redirectToUndriven retargets some neighbor read at a direction whose
// tile has produced nothing earlier in the block.
func redirectToUndriven(m *core.Mapping) bool {
	for _, bm := range m.Blocks {
		n := m.Grid.NumTiles()
		produced := make([]bool, n)
		for cyc := 0; cyc < bm.Len; cyc++ {
			for t := 0; t < n; t++ {
				s := &bm.Tiles[t][cyc]
				if s.Kind == core.SlotEmpty {
					continue
				}
				for i := 0; i < s.NSrc; i++ {
					if s.Srcs[i].Kind != isa.SrcNbr {
						continue
					}
					for d := 0; d < 4; d++ {
						if !produced[m.Grid.Neighbors(arch.TileID(t))[d]] {
							s.Srcs[i].Dir = isa.Dir(d)
							return true
						}
					}
				}
			}
			for t := 0; t < n; t++ {
				s := bm.Tiles[t][cyc]
				if s.Kind == core.SlotMove ||
					(s.Kind == core.SlotOp && m.Graph.Blocks[bm.BB].Nodes[s.Node].Op.HasResult()) {
					produced[t] = true
				}
			}
		}
	}
	return false
}

func findWB(m *core.Mapping) (bb, tile, cyc int, ok bool) {
	for bi, bm := range m.Blocks {
		for ti, row := range bm.Tiles {
			for ci, s := range row {
				if s.Kind != core.SlotEmpty && s.WB {
					return bi, ti, ci, true
				}
			}
		}
	}
	return 0, 0, 0, false
}

// clobberHome retargets a producing slot on a home tile so it becomes
// the block's LAST write into the home register while carrying some
// other value — the end-state corruption DF005 reports at block end.
func clobberHome(m *core.Mapping) bool {
	for _, s := range sortedSyms(m) {
		home, ok := m.SymHomes[s]
		if !ok {
			continue
		}
		for _, bm := range m.Blocks {
			b := m.Graph.Blocks[bm.BB]
			row := bm.Tiles[home.Tile]
			// The corruption must land at or after the block's final write
			// to the home register: earlier writes are legal scratch use.
			lastLegit := -1
			for ci := range row {
				if row[ci].Kind != core.SlotEmpty && row[ci].WB && row[ci].WReg == home.Reg {
					lastLegit = ci
				}
			}
			for ci := len(row) - 1; ci > lastLegit; ci-- {
				sl := &row[ci]
				if sl.Kind == core.SlotEmpty {
					continue
				}
				if sl.Kind == core.SlotOp && !b.Nodes[sl.Node].Op.HasResult() {
					continue
				}
				// Writing the symbol's own value back to its home is legal;
				// pick a slot carrying some other value.
				nd := b.Nodes[sl.Node]
				if nd.Op == cdfg.OpSym && nd.Sym == s {
					continue
				}
				if def, live := b.LiveOut[s]; live && sl.Node == def {
					continue
				}
				sl.WB = true
				sl.WReg = home.Reg
				return true
			}
		}
	}
	return false
}

// sortedSyms lists the mapping's homed symbols, sorted.
func sortedSyms(m *core.Mapping) []string {
	syms := make([]string, 0, len(m.SymHomes))
	for s := range m.SymHomes {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	return syms
}

// displaceHome moves a written symbol's home to a free register: the
// block keeps updating the old register, so the new home ends the block
// holding a stale value.
func displaceHome(m *core.Mapping) bool {
	for _, s := range sortedSyms(m) {
		home, ok := m.SymHomes[s]
		if !ok {
			continue
		}
		written := false
		for _, blk := range m.Graph.Blocks {
			if _, liveOut := blk.LiveOut[s]; liveOut {
				written = true
			}
		}
		if !written {
			continue
		}
		used := map[uint8]bool{}
		for _, h := range m.SymHomes {
			if h.Tile == home.Tile {
				used[h.Reg] = true
			}
		}
		for r := 0; r < m.Grid.RRFSize; r++ {
			if !used[uint8(r)] {
				m.SymHomes[s] = core.SymLoc{Tile: home.Tile, Reg: uint8(r)}
				return true
			}
		}
	}
	return false
}

// relocateMemRow swaps a row holding a load/store onto a non-LSU tile.
func relocateMemRow(m *core.Mapping) bool {
	for _, bm := range m.Blocks {
		b := m.Graph.Blocks[bm.BB]
		for t, row := range bm.Tiles {
			hasMem := false
			for _, s := range row {
				if s.Kind == core.SlotOp && b.Nodes[s.Node].Op.IsMem() {
					hasMem = true
				}
			}
			if !hasMem {
				continue
			}
			for t2 := 0; t2 < m.Grid.NumTiles(); t2++ {
				if m.Grid.Tile(arch.TileID(t2)).HasLSU {
					continue
				}
				bm.Tiles[t], bm.Tiles[t2] = bm.Tiles[t2], bm.Tiles[t]
				bm.Ops[t], bm.Ops[t2] = bm.Ops[t2], bm.Ops[t]
				bm.Moves[t], bm.Moves[t2] = bm.Moves[t2], bm.Moves[t]
				bm.Pnops[t], bm.Pnops[t2] = bm.Pnops[t2], bm.Pnops[t]
				return true
			}
		}
	}
	return false
}

func branchingBlock(g *cdfg.Graph) (cdfg.BBID, bool) {
	for _, blk := range g.Blocks {
		if blk.HasBranch() {
			return blk.ID, true
		}
	}
	return 0, false
}

func straightBlock(g *cdfg.Graph) (cdfg.BBID, bool) {
	for _, blk := range g.Blocks {
		if !blk.HasBranch() {
			return blk.ID, true
		}
	}
	return 0, false
}

func readsReg(in *isa.Instr) bool {
	if in.Kind == isa.KPnop {
		return false
	}
	for i := 0; i < in.NSrc; i++ {
		if in.Srcs[i].Kind == isa.SrcReg {
			return true
		}
	}
	return false
}

// relocateMemTile swaps the whole context of a tile that loads or stores
// with that of a tile without an LSU.
func relocateMemTile(p *asm.Program) bool {
	for t := range p.Tiles {
		for _, seg := range p.Tiles[t].Segments {
			for _, in := range seg.Instrs {
				if in.Kind != isa.KOp || !in.Op.IsMem() {
					continue
				}
				for t2 := range p.Tiles {
					if !p.Grid.Tile(arch.TileID(t2)).HasLSU {
						p.Tiles[t], p.Tiles[t2] = p.Tiles[t2], p.Tiles[t]
						return true
					}
				}
			}
		}
	}
	return false
}

// duplicateBranch turns an op or move word of some branching block, on a
// tile other than the block's announced branch tile, into a copy of the
// program's first branch word.
func duplicateBranch(p *asm.Program) bool {
	br, ok := findInstr(p, func(in *isa.Instr) bool { return in.Kind == isa.KOp && in.Op == cdfg.OpBr })
	if !ok {
		return false
	}
	for bb, bt := range p.BranchTiles {
		if bt < 0 {
			continue
		}
		for t := range p.Tiles {
			if t == int(bt) {
				continue
			}
			instrs := p.Tiles[t].Segments[bb].Instrs
			for i := range instrs {
				if instrs[i].Kind != isa.KPnop {
					instrs[i] = *br
					return true
				}
			}
		}
	}
	return false
}

func findInstr(p *asm.Program, match func(*isa.Instr) bool) (*isa.Instr, bool) {
	for ti := range p.Tiles {
		for si := range p.Tiles[ti].Segments {
			seg := &p.Tiles[ti].Segments[si]
			for ii := range seg.Instrs {
				if match(&seg.Instrs[ii]) {
					return &seg.Instrs[ii], true
				}
			}
		}
	}
	return nil, false
}
