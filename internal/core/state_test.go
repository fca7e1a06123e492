package core

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/kernels"
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
	ar := new(mapperArena)
	p := ar.getPartial()
	ar.resetPartial(p, 16, 0, 8)
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

// partialSnap deep-copies everything a partial's readers can see. The
// word caches are left out: words() may fill them in on a shared tile,
// and checkCaches pins that they stay right.
type partialSnap struct {
	Tiles                                    []tileState
	Locs                                     [][]loc
	RegLastRead, RegLastWrite, RegWriteCycle []int16
	NewHomes                                 map[string]SymLoc
	MaxCycle, Moves, Recomputes, CheckedTo   int
	Cost                                     float64
}

func snapshot(p *partial) partialSnap {
	s := partialSnap{
		RegLastRead:   slices.Clone(p.regLastRead),
		RegLastWrite:  slices.Clone(p.regLastWrite),
		RegWriteCycle: slices.Clone(p.regWriteCycle),
		MaxCycle:      p.maxCycle,
		Moves:         p.moves,
		Recomputes:    p.recomputes,
		CheckedTo:     p.checkedTo,
		Cost:          p.cost,
	}
	if len(p.newHomes) > 0 {
		s.NewHomes = maps.Clone(p.newHomes)
	}
	for _, ts := range p.tiles {
		c := *ts
		c.Slots = append([]Slot(nil), ts.Slots...)
		c.Holds = append([]hold(nil), ts.Holds...)
		c.Consts = append([]int32(nil), ts.Consts...)
		c.cacheHorizon, c.cacheWords, c.refs = 0, 0, 0
		s.Tiles = append(s.Tiles, c)
	}
	for n := range p.locs {
		s.Locs = append(s.Locs, append([]loc(nil), p.locsOf(cdfg.NodeID(n))...))
	}
	return s
}

// checkCaches fails unless every valid word cache of p matches a fresh
// count.
func checkCaches(t *testing.T, what string, p *partial) {
	t.Helper()
	for i, ts := range p.tiles {
		h := int(ts.cacheHorizon)
		if h < 0 {
			continue
		}
		if want := ts.Ops + ts.Moves + ts.gapGroups(h, false); int(ts.cacheWords) != want {
			t.Fatalf("%s: tile %d caches %d words at horizon %d, holds %d", what, i, ts.cacheWords, h, want)
		}
	}
}

// writeEverything writes to v through every mutator a partial has: the
// binder's releaseDeadRegs and finalize, then every tile- and
// location-level write on every tile and node.
func writeEverything(cx *bbCtx, v *partial) {
	for _, nd := range cx.block.Nodes {
		cx.releaseDeadRegs(v, nd)
	}
	_ = cx.finalize(v) // a mid-block finalize may fail; only its writes matter
	rrf := cx.grid.RRFSize
	for i := range v.tiles {
		tid := arch.TileID(i)
		c := v.maxCycle + i
		ts := v.tileW(tid)
		occupy(ts, c)
		ts.dirty()
		v.addHold(tid, c, c+2)
		v.internConst(tid, int32(-1000-i), 1<<10)
		v.allocRegAt(rrf, tid, c, false)
		v.allocRegAt(rrf, tid, symHomeCycle, true)
		v.allocRegHome(rrf, tid)
		for r := range rrf {
			v.freeReg(tid, int8(r))
		}
		v.noteRead(rrf, tid, 0, c)
		v.noteWrite(rrf, tid, 1, c)
		v.setWriteCycle(rrf, tid, 2, c)
	}
	for n := range v.locs {
		id := cdfg.NodeID(n)
		if v.placed(id) {
			v.locsW(id).l[0].Reg = 0
		}
		v.addLoc(id, loc{Tile: 0, Cycle: v.maxCycle, Reg: noReg})
	}
	if v.newHomes == nil {
		v.newHomes = map[string]SymLoc{}
	}
	v.newHomes["isolation"] = SymLoc{Tile: 1, Reg: 1}
	v.bump(v.maxCycle + 10)
	v.cost++
	v.touch()
}

// isolationTally accumulates what the isolation tests saw.
type isolationTally struct {
	steps, children, shared int
}

// isolationStep realizes up to k sibling children of beam for node n,
// plus a second child of the best candidate, writes to that extra child
// through every mutator, and checks that the beam and the siblings are
// byte-equal to their snapshots from before the write. It returns the
// siblings.
func isolationStep(t *testing.T, what string, cx *bbCtx, beam []*partial, n cdfg.NodeID, k int, tl *isolationTally) []*partial {
	t.Helper()
	var st Stats
	cs := &cx.arena.stream
	for _, tail := range []bool{false, true} {
		cs.reset(cx, n, &st)
		for _, p := range beam {
			cs.enumerate(p, 0, cx.opt.MaxSlack, tail)
		}
		if cs.ready() {
			break
		}
	}
	var kids []*partial
	var best candidate
	for len(kids) < k {
		c := cs.next()
		if c == nil {
			break
		}
		if len(kids) == 0 {
			best = *c
		}
		kid := cx.apply(c, &st)
		for i, ts := range kid.tiles {
			if ts == c.parent.tiles[i] {
				tl.shared++
			}
		}
		kids = append(kids, kid)
	}
	if len(kids) == 0 {
		return nil
	}
	victim := cx.apply(&best, &st)
	others := append(slices.Clone(beam), kids...)
	snaps := make([]partialSnap, len(others))
	for i, p := range others {
		cx.cabBlacklist(p) // fill in word caches, shared tiles' too
		snaps[i] = snapshot(p)
	}
	writeEverything(cx, victim)
	for i, ts := range victim.tiles {
		if ts.refs != 1 {
			t.Fatalf("%s: written tile %d still has %d references", what, i, ts.refs)
		}
	}
	for i, p := range others {
		if !reflect.DeepEqual(snapshot(p), snaps[i]) {
			t.Fatalf("%s: writing one child changed partial %d of %d beam partials and %d siblings", what, i, len(beam), len(kids))
		}
		checkCaches(t, what, p)
	}
	cx.arena.putPartial(victim)
	tl.steps++
	tl.children += len(kids)
	return kids
}

// walkIsolation binds every block of g on grid under opt, checking
// isolation at every bind step (see isolationStep). The beam carries the
// two cheapest siblings forward; at the end every buffer must be back on
// the arena's free list.
func walkIsolation(t *testing.T, g *cdfg.Graph, grid *arch.Grid, opt Options, tl *isolationTally) {
	t.Helper()
	opt.sanitize()
	what := g.Name + "/" + opt.Flow.String() + "/" + grid.Name
	for _, b := range g.Blocks {
		cx := testBlockCtx(g, b, grid, &opt)
		n := grid.NumTiles()
		beam := []*partial{cx.initialPartial(make([][]int32, n), make([]uint16, n))}
		for _, node := range scheduleOrderInto(b, cx.sched, cx.users, nil) {
			cx.arena.bindReset()
			kids := isolationStep(t, what, cx, beam, node, 4, tl)
			cx.arena.putPartials(beam)
			beam = kids[:min(2, len(kids))]
			cx.arena.putPartials(kids[len(beam):])
			if len(beam) == 0 {
				break
			}
		}
		cx.arena.putPartials(beam)
		checkBuffers(t, what+" block "+b.Name, cx.arena)
	}
}

// TestPartialIsolation pins copy-on-write isolation on a small loop: a
// child realized through apply shares its parent's buffers, and writing
// to it through every mutator leaves its parent and its siblings
// byte-equal.
func TestPartialIsolation(t *testing.T) {
	var tl isolationTally
	walkIsolation(t, smallLoop(8), arch.MustGrid(arch.HOM64), DefaultOptions(FlowCAB), &tl)
	if tl.steps == 0 || tl.shared == 0 {
		t.Fatalf("vacuous: %+v", tl)
	}
}

// TestPartialIsolationKernels runs the isolation check at every bind step
// of MatM and NonSepFilter, on the cells whose blocks retry.
func TestPartialIsolationKernels(t *testing.T) {
	var tl isolationTally
	for _, name := range []string{"MatM", "NonSepFilter"} {
		k, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := k.Build()
		for _, cfg := range []arch.ConfigName{arch.HOM64, arch.HOM32, arch.HET2} {
			walkIsolation(t, g, arch.MustGrid(cfg), DefaultOptions(FlowCAB), &tl)
		}
	}
	if tl.steps == 0 || tl.shared == 0 {
		t.Fatalf("vacuous: %+v", tl)
	}
	t.Logf("%d bind steps, %d siblings, %d tiles shared with a parent", tl.steps, tl.children, tl.shared)
}
