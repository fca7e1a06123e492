package core

import (
	"testing"

	"repro/internal/arch"
)

func occupy(ts *tileState, cycles ...int) {
	for _, c := range cycles {
		*ts.slotAt(c) = Slot{Kind: SlotOp}
		ts.Ops++
	}
}

func TestGapGroups(t *testing.T) {
	cases := []struct {
		name         string
		occ          []int
		horizon      int
		interior     int // trailing=false
		withTrailing int // trailing=true
	}{
		{"empty", nil, 5, 0, 1},
		{"dense", []int{0, 1, 2}, 3, 0, 0},
		{"leading gap", []int{2, 3}, 4, 1, 1},
		{"interior gap", []int{0, 3}, 4, 1, 1},
		{"trailing gap", []int{0, 1}, 5, 0, 1},
		{"all three", []int{1, 4}, 7, 2, 3},
		{"two interior", []int{0, 2, 5}, 6, 2, 2},
	}
	for _, c := range cases {
		var ts tileState
		occupy(&ts, c.occ...)
		if got := ts.gapGroups(c.horizon, false); got != c.interior {
			t.Errorf("%s: interior = %d, want %d", c.name, got, c.interior)
		}
		if got := ts.gapGroups(c.horizon, true); got != c.withTrailing {
			t.Errorf("%s: with trailing = %d, want %d", c.name, got, c.withTrailing)
		}
	}
}

func TestCountPnops(t *testing.T) {
	row := make([]Slot, 7)
	row[1].Kind = SlotOp
	row[4].Kind = SlotMove
	// gaps: [0], [2,3], [5,6] -> 3 pnops
	if got := countPnops(row); got != 3 {
		t.Errorf("countPnops = %d, want 3", got)
	}
	if countPnops(nil) != 0 {
		t.Error("empty row")
	}
}

func TestHolds(t *testing.T) {
	var ts tileState
	ts.addHold(2, 5)
	if ts.canProduceAt(3) || ts.canProduceAt(4) {
		t.Error("production inside a hold should be rejected")
	}
	if !ts.canProduceAt(2) || !ts.canProduceAt(5) || !ts.canProduceAt(6) {
		t.Error("production at hold boundaries is allowed")
	}
	ts.addHold(2, 8) // extends the same hold
	if len(ts.Holds) != 1 {
		t.Errorf("holds should merge by producer cycle: %v", ts.Holds)
	}
	if ts.canProduceAt(7) {
		t.Error("extended hold should cover cycle 7")
	}
}

func TestRegisterRecyclingHazards(t *testing.T) {
	grid := arch.MustGrid(arch.HOM64)
	cx := &bbCtx{grid: grid}
	_ = cx
	p := &partial{
		tiles:         make([]tileState, 16),
		regLastRead:   make([]int16, 16*8),
		regLastWrite:  make([]int16, 16*8),
		regWriteCycle: make([]int16, 16*8),
	}
	for i := range p.regLastRead {
		p.regLastRead[i] = -1
		p.regLastWrite[i] = -1
		p.regWriteCycle[i] = noWrite
	}
	r := p.allocRegAt(8, 0, 5, false)
	if r != 0 {
		t.Fatalf("first alloc = r%d", r)
	}
	p.noteRead(8, 0, r, 9)
	p.freeReg(0, r)
	// A value written at cycle 7 would be clobbered by the old read at 9.
	if got := p.allocRegAt(8, 0, 7, false); got == r {
		t.Error("recycled register with a later read must not be handed out")
	}
	// At cycle 10 it is safe.
	p.freeReg(0, 1) // free the register the previous alloc took
	if got := p.allocRegAt(8, 0, 10, false); got != r {
		t.Errorf("alloc at 10 = r%d, want r%d", got, r)
	}
	// Fresh allocation skips ever-used registers.
	fresh := p.allocRegAt(8, 0, symHomeCycle, true)
	if fresh == r || fresh == noReg {
		t.Errorf("fresh alloc = r%d", fresh)
	}
	// Exhaust fresh registers on the tile.
	for {
		if p.allocRegAt(8, 0, symHomeCycle, true) == noReg {
			break
		}
	}
	if p.allocRegAt(8, 0, symHomeCycle, true) != noReg {
		t.Error("fresh alloc after exhaustion")
	}
}

func TestWordsIfOccupied(t *testing.T) {
	var ts tileState
	occupy(&ts, 0, 2) // words: 2 ops + 1 interior gap = 3
	base := ts.Ops + ts.Moves + ts.gapGroups(3, false)
	if base != 3 {
		t.Fatalf("base words = %d", base)
	}
	// Filling the gap at 1: 3 ops, 0 gaps -> 3 (no growth).
	if got := ts.wordsIfOccupied(1, 3); got != 3 {
		t.Errorf("fill gap: %d, want 3", got)
	}
	// Appending at 3: 3 ops, 1 gap -> 4.
	if got := ts.wordsIfOccupied(3, 4); got != 4 {
		t.Errorf("append: %d, want 4", got)
	}
	// Placing at 5 creates another gap: 3 ops + 2 gaps -> 5.
	if got := ts.wordsIfOccupied(5, 6); got != 5 {
		t.Errorf("fragment: %d, want 5", got)
	}
}

func TestPartialCloneIsDeep(t *testing.T) {
	p := &partial{
		tiles:         make([]tileState, 2),
		locs:          make([][]loc, 3),
		regLastRead:   make([]int16, 16),
		regLastWrite:  make([]int16, 16),
		regWriteCycle: make([]int16, 16),
		newHomes:      map[string]SymLoc{"x": {Tile: 1, Reg: 2}},
	}
	occupy(&p.tiles[0], 0)
	p.locs[1] = []loc{{Tile: 0, Cycle: 0, Reg: noReg}}
	c := new(partial)
	new(mapperArena).cloneInto(c, p)
	occupy(&c.tiles[0], 1)
	c.locs[1][0].Reg = 3
	c.newHomes["y"] = SymLoc{}
	c.regLastRead[0] = 9
	if p.tiles[0].Ops != 1 || p.locs[1][0].Reg != noReg ||
		len(p.newHomes) != 1 || p.regLastRead[0] != 0 {
		t.Error("clone shares state with the original")
	}
}
