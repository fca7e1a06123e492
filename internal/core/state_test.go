package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/kernels"
)

func occupy(ts *tileState, cycles ...int) {
	for _, c := range cycles {
		*ts.occupy(c) = Slot{Kind: SlotOp}
		ts.Ops++
	}
}

// gapGroups is the full scan tileState's gap count replaces, kept as the
// test reference: the leading and interior runs of empty slots below
// horizon, plus with trailing set the run from the last instruction up to
// horizon (or, on an idle tile, the whole block).
func gapGroups(t *tileState, horizon int, trailing bool) int {
	limit := min(len(t.Slots), horizon)
	n := 0
	prevOcc := -1
	any := false
	for c := 0; c < limit; c++ {
		if t.Slots[c].Kind == SlotEmpty {
			continue
		}
		if !any {
			if c > 0 {
				n++ // leading gap
			}
			any = true
		} else if c > prevOcc+1 {
			n++ // interior gap
		}
		prevOcc = c
	}
	if !any {
		if trailing && horizon > 0 {
			return 1 // the tile idles through the whole block
		}
		return 0
	}
	if trailing && prevOcc < horizon-1 {
		n++ // trailing gap to the current makespan
	}
	return n
}

// wordsIfOccupiedScan is the full scan wordsIfOccupied replaces: the
// interior word count with cycle c additionally occupied.
func wordsIfOccupiedScan(t *tileState, c int) int {
	limit := max(len(t.Slots), c+1)
	gaps, prevOcc, any := 0, -1, false
	for i := 0; i < limit; i++ {
		if i != c && (i >= len(t.Slots) || t.Slots[i].Kind == SlotEmpty) {
			continue
		}
		if !any {
			if i > 0 {
				gaps++
			}
			any = true
		} else if i > prevOcc+1 {
			gaps++
		}
		prevOcc = i
	}
	return t.Ops + t.Moves + 1 + gaps
}

// checkCounts fails unless every tile of p, whose schedule is
// maxCycle long, counts its words (both modes, at several horizons from
// maxCycle on) and its words as if each cycle were occupied exactly as
// the full scans do.
func checkCounts(t *testing.T, what string, p *partial) {
	t.Helper()
	for i, ts := range p.tiles {
		for _, h := range []int{p.maxCycle, p.maxCycle + 1, p.maxCycle + 7} {
			for _, trailing := range []bool{false, true} {
				if got, want := ts.words(h, trailing), ts.Ops+ts.Moves+gapGroups(ts, h, trailing); got != want {
					t.Fatalf("%s: tile %d counts %d words at horizon %d (trailing %v), the scan %d", what, i, got, h, trailing, want)
				}
			}
		}
		for c := range p.maxCycle + 3 {
			if got, want := ts.wordsIfOccupied(c), wordsIfOccupiedScan(ts, c); got != want {
				t.Fatalf("%s: tile %d counts %d words if cycle %d were occupied, the scan %d", what, i, got, c, want)
			}
		}
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
		ops := len(c.occ)
		if got := gapGroups(&ts, c.horizon, false); got != c.interior {
			t.Errorf("%s: interior scan = %d, want %d", c.name, got, c.interior)
		}
		if got := gapGroups(&ts, c.horizon, true); got != c.withTrailing {
			t.Errorf("%s: scan with trailing = %d, want %d", c.name, got, c.withTrailing)
		}
		if got := ts.words(c.horizon, false); got != ops+c.interior {
			t.Errorf("%s: interior words = %d, want %d", c.name, got, ops+c.interior)
		}
		if got := ts.words(c.horizon, true); got != ops+c.withTrailing {
			t.Errorf("%s: words with trailing = %d, want %d", c.name, got, ops+c.withTrailing)
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
	if base := ts.words(3, false); base != 3 {
		t.Fatalf("base words = %d", base)
	}
	// Filling the gap at 1: 3 ops, 0 gaps -> 3 (no growth).
	if got := ts.wordsIfOccupied(1); got != 3 {
		t.Errorf("fill gap: %d, want 3", got)
	}
	// Appending at 3: 3 ops, 1 gap -> 4.
	if got := ts.wordsIfOccupied(3); got != 4 {
		t.Errorf("append: %d, want 4", got)
	}
	// Placing at 5 creates another gap: 3 ops + 2 gaps -> 5.
	if got := ts.wordsIfOccupied(5); got != 5 {
		t.Errorf("fragment: %d, want 5", got)
	}
	// Every cycle of a few schedules, against the full scan, including a
	// cycle already occupied and one in front of the first instruction.
	for _, occ := range [][]int{nil, {0}, {3}, {1, 2, 6}, {2, 4, 5, 9}} {
		var ts tileState
		occupy(&ts, occ...)
		for c := range 12 {
			if got, want := ts.wordsIfOccupied(c), wordsIfOccupiedScan(&ts, c); got != want {
				t.Errorf("occupied %v: cycle %d counts %d, the scan %d", occ, c, got, want)
			}
		}
	}
}

// partialSnap deep-copies everything a partial's readers can see. The
// hop-mask stamps are left out: screen may set them on a shared tile,
// and checkHops pins that they stay right.
type partialSnap struct {
	Tiles                                    []tileState
	Locs                                     [][]loc
	RegLastRead, RegLastWrite, RegWriteCycle []int16
	NewHomes                                 []symHome
	MaxCycle, Moves, Recomputes              int
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
		Cost:          p.cost,
	}
	if len(p.newHomes) > 0 {
		s.NewHomes = slices.Clone(p.newHomes)
	}
	for _, ts := range p.tiles {
		c := *ts
		c.Slots = append([]Slot(nil), ts.Slots...)
		c.Holds = append([]hold(nil), ts.Holds...)
		c.Consts = append([]int32(nil), ts.Consts...)
		c.hopGen, c.hopOff, c.refs = 0, 0, 0
		s.Tiles = append(s.Tiles, c)
	}
	for n := range p.locs {
		s.Locs = append(s.Locs, append([]loc(nil), p.locsOf(cdfg.NodeID(n))...))
	}
	return s
}

// checkHops screens p over cycles [0, to] on cs, in the pass cs is in,
// and fails unless every tile's hop mask equals a fresh fillFree (all
// clear on a blacklisted tile): a mask reused through a buffer's stamp
// must still describe the buffer.
func checkHops(t *testing.T, what string, cs *candStream, p *partial, to int) {
	t.Helper()
	bl := cs.cx.cabBlacklist(p)
	cs.screen(p, bl, 0, to)
	want := make([]uint64, cs.hopW)
	for i, ts := range p.tiles {
		clear(want)
		if bl&(1<<uint(i)) == 0 {
			fillFree(want, ts, cs.hopOrg, to, true)
		}
		got := cs.hopPool[cs.hopOff[i] : int(cs.hopOff[i])+cs.hopW]
		if !slices.Equal(got, want) {
			t.Fatalf("%s: tile %d hop mask %x, fillFree %x", what, i, got, want)
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
	// A move and a recompute through applyPlan on every tile, each in
	// the tile's first gap (or opening one), where a missed gap update
	// shows in the word counts.
	for i := range v.tiles {
		tid := arch.TileID(i)
		move := argPlan{Plan: routePlan{Moves: []moveStep{{Tile: tid, Cycle: firstGap(v.tiles[i])}}}}
		cx.applyPlan(v, &move, nil)
		recomp := argPlan{Plan: routePlan{Recomp: &recompStep{Tile: tid, Cycle: firstGap(v.tiles[i])}}}
		cx.applyPlan(v, &recomp, nil)
	}
	rrf := cx.grid.RRFSize
	for i := range v.tiles {
		tid := arch.TileID(i)
		c := v.maxCycle + i
		ts := v.tileW(tid)
		occupy(ts, c)
		v.bump(c)
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
			v.locsW(id)[0].Reg = 0
		}
		v.addLoc(id, loc{Tile: 0, Cycle: v.maxCycle, Reg: noReg})
	}
	v.pinHome("isolation", SymLoc{Tile: 1, Reg: 1})
	v.bump(v.maxCycle + 10)
	v.cost++
	v.touch()
}

// firstGap returns ts's first empty cycle, or one past it when that cycle
// would extend the schedule without a gap.
func firstGap(ts *tileState) int {
	c := 0
	for ts.occupied(c) {
		c++
	}
	if c >= int(ts.hi) {
		c++
	}
	return c
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
	// One hop window past every write below, screened on every partial
	// first, so the buffers the victim shares carry stamps when it writes.
	to := victim.maxCycle + 2*cx.grid.NumTiles()
	cs.reset(cx, n, &st)
	for i, p := range others {
		checkHops(t, what, cs, p, to)
		snaps[i] = snapshot(p)
	}
	checkHops(t, what, cs, victim, to)
	writeEverything(cx, victim)
	for i, ts := range victim.tiles {
		if ts.refs != 1 {
			t.Fatalf("%s: written tile %d still has %d references", what, i, ts.refs)
		}
	}
	checkCounts(t, what+" written child", victim)
	checkHops(t, what+" written child", cs, victim, to)
	// So must a hold added to, or an instruction placed on, a private
	// tile that carries a stamp.
	for i := range victim.tiles {
		c := victim.maxCycle + i
		victim.addHold(arch.TileID(i), c, c+3)
		checkHops(t, what+" held child", cs, victim, to)
		ts := victim.tileW(arch.TileID(i))
		for c = 0; ts.occupied(c); c++ {
		}
		occupy(ts, c)
		victim.bump(c)
		checkHops(t, what+" occupied child", cs, victim, to)
	}
	for i, p := range others {
		if !reflect.DeepEqual(snapshot(p), snaps[i]) {
			t.Fatalf("%s: writing one child changed partial %d of %d beam partials and %d siblings", what, i, len(beam), len(kids))
		}
		checkCounts(t, what, p)
		checkHops(t, what, cs, p, to)
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
