package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/kernels"
)

// widenedPasses lists the offset ranges mapBlock scans while widening
// its window over [0, maxSlack]: one pass per doubling, each covering only
// the offsets the previous passes left out.
func widenedPasses(opt *Options) [][2]int {
	var passes [][2]int
	lo, window := 0, opt.SlackWindow
	for {
		passes = append(passes, [2]int{lo, window})
		if window >= opt.MaxSlack {
			return passes
		}
		lo = window + 1
		window = min(2*window, opt.MaxSlack)
	}
}

// slotsOf runs the given enumeration passes over p in one fresh stream
// and returns the slots its runs hold, in enumeration order.
func slotsOf(cx *bbCtx, p *partial, n cdfg.NodeID, tail bool, passes ...[2]int) []heldSlot {
	cs := &cx.arena.stream
	cs.reset(cx, n, &Stats{})
	for _, r := range passes {
		cs.enumerate(p, r[0], r[1], tail)
	}
	return slotsHeld(cs)
}

// testBlockCtx builds the binder context of one block the way Map does
// for the first block it maps (nothing committed yet).
func testBlockCtx(g *cdfg.Graph, b *cdfg.BasicBlock, grid *arch.Grid, opt *Options) *bbCtx {
	n := grid.NumTiles()
	cx := &bbCtx{
		grid:     grid,
		block:    b,
		opt:      opt,
		arena:    new(mapperArena),
		budget:   make([]int, n),
		soft:     make([]int, n),
		sched:    cdfg.Analyze(b),
		users:    cdfg.Users(b),
		symHomes: map[string]SymLoc{},
		cab:      opt.Flow >= FlowCAB,
		hopsBuf:  make([]arch.TileID, 0, grid.Rows+grid.Cols+2),
	}
	cx.liveOutTables(nil, nil)
	for t := range cx.budget {
		cx.budget[t], cx.soft[t] = unconstrained, unconstrained
		if opt.Flow.memoryAware() {
			cx.budget[t] = grid.Tile(arch.TileID(t)).CMWords - (len(g.Blocks) - 1)
			cx.soft[t] = cx.budget[t]
		}
	}
	return cx
}

func sameSlots(t *testing.T, what string, got, want []heldSlot) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d slots, one full pass gives %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: slot %d is %+v, one full pass gives %+v", what, i, got[i], want[i])
		}
	}
}

// TestIncrementalWideningMatchesFullScan pins the invariant mapBlock's
// slack-window widening relies on: splitting a window into passes that
// each enumerate only new cycles yields exactly the slots and keys, in
// the same enumeration order, of one pass over the whole
// window — for the plain passes and for the tail passes past the
// schedule's end. The partials are the ones a greedy walk reaches while
// binding every block of every kernel.
func TestIncrementalWideningMatchesFullScan(t *testing.T) {
	cells := []struct {
		flow Flow
		cfg  arch.ConfigName
	}{{FlowBasic, arch.HOM64}, {FlowCAB, arch.HET1}}
	var steps, split, tails int
	for _, k := range kernels.All() {
		g := k.Build()
		for _, c := range cells {
			grid := arch.MustGrid(c.cfg)
			opt := DefaultOptions(c.flow)
			opt.sanitize()
			whole := [2]int{0, opt.MaxSlack}
			for _, b := range g.Blocks {
				cx := testBlockCtx(g, b, grid, &opt)
				p := cx.initialPartial(make([][]int32, grid.NumTiles()), make([]uint16, grid.NumTiles()))
				for _, n := range scheduleOrderInto(b, cx.sched, cx.users, nil) {
					cx.arena.bindReset()
					steps++
					e := cx.earliestCycle(p, n)
					full := slotsOf(cx, p, n, false, whole)
					sameSlots(t, k.Name+" window", slotsOf(cx, p, n, false, widenedPasses(&opt)...), full)
					w1 := opt.SlackWindow
					if first := slotsOf(cx, p, n, false, [2]int{0, w1}); len(first) > 0 && len(first) < len(full) {
						split++
					}
					sameSlots(t, k.Name+" [e,e+w1]+(e+w1,e+w2]",
						slotsOf(cx, p, n, false, [2]int{0, w1}, [2]int{w1 + 1, opt.MaxSlack}), full)

					tail := slotsOf(cx, p, n, true, whole)
					sameSlots(t, k.Name+" tail", slotsOf(cx, p, n, true, widenedPasses(&opt)...), tail)
					for _, ts := range tail {
						if ts.cycle <= e+opt.MaxSlack || ts.cycle < p.maxCycle {
							t.Fatalf("%s: tail slot at cycle %d (earliest %d, maxCycle %d) rescans a plain-pass cycle",
								k.Name, ts.cycle, e, p.maxCycle)
						}
					}
					tails += len(tail)

					// Advance along the cheapest candidate, as the beam's
					// best partial would.
					best := firstCandidate(cx, p, n)
					if best == nil {
						break
					}
					p = cx.apply(best)
				}
			}
		}
	}
	if split == 0 || tails == 0 {
		t.Fatalf("vacuous: %d bind steps, %d split across the first window, %d tail slots", steps, split, tails)
	}
	t.Logf("%d bind steps, %d with slots on both sides of the first window, %d tail slots", steps, split, tails)
}

// firstCandidate is the stream's best candidate for n under p: from the
// plain window, or past the schedule's end when that is empty.
func firstCandidate(cx *bbCtx, p *partial, n cdfg.NodeID) *candidate {
	cs := &cx.arena.stream
	for _, tail := range []bool{false, true} {
		cs.reset(cx, n, &Stats{})
		cs.enumerate(p, 0, cx.opt.MaxSlack, tail)
		if ci := cs.next(); ci >= 0 {
			return &cs.cands[ci]
		}
	}
	return nil
}
