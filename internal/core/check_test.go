package core

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
)

// mapped returns a fresh valid mapping for mutation tests.
func mapped(t *testing.T) *Mapping {
	t.Helper()
	m, err := Map(smallLoop(8), arch.MustGrid(arch.HOM64), DefaultOptions(FlowBasic))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// firstSlot finds a slot of the given kind and returns its coordinates.
func firstSlot(m *Mapping, kind SlotKind, withSrc isa.SrcKind) (bb, tile, cyc int, ok bool) {
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

func TestCheckDataflowDetectsCorruption(t *testing.T) {
	t.Run("clean passes", func(t *testing.T) {
		if err := dataflowCheck(mapped(t)); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("register operand corrupted", func(t *testing.T) {
		m := mapped(t)
		bb, ti, ci, ok := firstSlot(m, SlotOp, isa.SrcReg)
		if !ok {
			t.Skip("no register operand in this mapping")
		}
		s := &m.Blocks[bb].Tiles[ti][ci]
		for i := 0; i < s.NSrc; i++ {
			if s.Srcs[i].Kind == isa.SrcReg {
				s.Srcs[i].Reg ^= 7
			}
		}
		if err := dataflowCheck(m); err == nil {
			t.Fatal("corrupted register operand not detected")
		}
	})
	t.Run("neighbor direction corrupted", func(t *testing.T) {
		m := mapped(t)
		bb, ti, ci, ok := firstSlot(m, SlotOp, isa.SrcNbr)
		if !ok {
			t.Skip("no neighbor operand in this mapping")
		}
		s := &m.Blocks[bb].Tiles[ti][ci]
		for i := 0; i < s.NSrc; i++ {
			if s.Srcs[i].Kind == isa.SrcNbr {
				s.Srcs[i].Dir = (s.Srcs[i].Dir + 1) % 4
			}
		}
		if err := dataflowCheck(m); err == nil {
			t.Fatal("corrupted neighbor direction not detected")
		}
	})
	t.Run("clobbered home register", func(t *testing.T) {
		m := mapped(t)
		// Make some producing slot write into a symbol home register.
		var home SymLoc
		for _, h := range m.SymHomes {
			home = h
			break
		}
		found := false
	outer:
		for _, bm := range m.Blocks {
			row := bm.Tiles[home.Tile]
			for ci := range row {
				s := &row[ci]
				if s.Kind == SlotOp && !s.WB &&
					m.Graph.Blocks[bm.BB].Nodes[s.Node].Op.HasResult() {
					s.WB = true
					s.WReg = home.Reg
					found = true
					break outer
				}
			}
		}
		if !found {
			t.Skip("no slot available on the home tile")
		}
		err := dataflowCheck(m)
		if err == nil {
			t.Fatal("home clobber not detected")
		}
		if !strings.Contains(err.Error(), "home") && !strings.Contains(err.Error(), "sym") {
			t.Fatalf("unexpected error: %v", err)
		}
	})
	t.Run("constant corrupted", func(t *testing.T) {
		m := mapped(t)
		bb, ti, ci, ok := firstSlot(m, SlotOp, isa.SrcConst)
		if !ok {
			t.Skip("no constant operand")
		}
		s := &m.Blocks[bb].Tiles[ti][ci]
		for i := 0; i < s.NSrc; i++ {
			if s.Srcs[i].Kind == isa.SrcConst {
				s.Srcs[i].Val++
			}
		}
		if err := dataflowCheck(m); err == nil {
			t.Fatal("corrupted constant not detected")
		}
	})
}

func TestValidateDetectsStructuralDamage(t *testing.T) {
	m := mapped(t)
	m.Blocks[0].Ops[0]++
	if err := m.Validate(); err == nil {
		t.Fatal("word-count mismatch not detected")
	}
}
