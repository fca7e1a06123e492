package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/kernels"
)

// candKey is the part of a candidate that decides the search: where and
// when the node binds, and what it costs.
type candKey struct {
	node  cdfg.NodeID
	tile  arch.TileID
	cycle int
	cost  float64
}

func candKeys(cands []candidate) []candKey {
	keys := make([]candKey, len(cands))
	for i, c := range cands {
		keys[i] = candKey{c.node, c.tile, c.cycle, c.cost}
	}
	return keys
}

// widenedScan enumerates the offsets [0, maxSlack] the way mapBlock widens
// its window: one pass per doubling, each scanning only the offsets the
// previous passes left out.
func widenedScan(cx *bbCtx, p *partial, n cdfg.NodeID, tail bool) []candidate {
	var out []candidate
	lo, window := 0, cx.opt.SlackWindow
	for {
		out = cx.genCandidates(p, n, lo, window, tail, out)
		if window >= cx.opt.MaxSlack {
			return out
		}
		lo = window + 1
		window = min(2*window, cx.opt.MaxSlack)
	}
}

// testBlockCtx builds the binder context of one block the way Map does
// for the first block it maps (nothing committed yet).
func testBlockCtx(g *cdfg.Graph, b *cdfg.BasicBlock, grid *arch.Grid, opt *Options) *bbCtx {
	n := grid.NumTiles()
	cx := &bbCtx{
		grid:          grid,
		block:         b,
		opt:           opt,
		arena:         new(mapperArena),
		budget:        make([]int, n),
		soft:          make([]int, n),
		sched:         cdfg.Analyze(b),
		users:         cdfg.Users(b),
		symHomes:      map[string]SymLoc{},
		liveOutValues: map[cdfg.NodeID]bool{},
		cab:           opt.Flow >= FlowCAB,
		hopsBuf:       make([]arch.TileID, 0, grid.Rows+grid.Cols+2),
	}
	for _, id := range b.LiveOut {
		cx.liveOutValues[id] = true
	}
	for t := range cx.budget {
		cx.budget[t], cx.soft[t] = unconstrained, unconstrained
		if opt.Flow.memoryAware() {
			cx.budget[t] = grid.Tile(arch.TileID(t)).CMWords - (len(g.Blocks) - 1)
			cx.soft[t] = cx.budget[t]
		}
	}
	return cx
}

func sameCands(t *testing.T, what string, got, want []candidate) {
	t.Helper()
	g, w := candKeys(got), candKeys(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d candidates, one full scan gives %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: candidate %d is %+v, one full scan gives %+v", what, i, g[i], w[i])
		}
	}
}

// TestIncrementalWideningMatchesFullScan pins the invariant mapBlock's
// slack-window widening relies on: splitting a window into passes that
// each scan only new cycles yields exactly the candidates, in the same
// order, of one scan over the whole window — for the plain passes and for
// the tail passes past the schedule's end. The partials are the ones a
// greedy walk reaches while binding every block of every kernel.
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
			for _, b := range g.Blocks {
				cx := testBlockCtx(g, b, grid, &opt)
				p := cx.initialPartial(make([][]int32, grid.NumTiles()), make([]uint16, grid.NumTiles()))
				for _, n := range scheduleOrderInto(b, cx.sched, cx.users, nil) {
					cx.arena.bindReset()
					steps++
					e := cx.earliestCycle(p, n)
					full := cx.genCandidates(p, n, 0, opt.MaxSlack, false, nil)
					sameCands(t, k.Name+" window", widenedScan(cx, p, n, false), full)
					w1 := opt.SlackWindow
					two := cx.genCandidates(p, n, 0, w1, false, nil)
					if len(two) > 0 && len(two) < len(full) {
						split++
					}
					two = cx.genCandidates(p, n, w1+1, opt.MaxSlack, false, two)
					sameCands(t, k.Name+" [e,e+w1]+(e+w1,e+w2]", two, full)

					tail := cx.genCandidates(p, n, 0, opt.MaxSlack, true, nil)
					sameCands(t, k.Name+" tail", widenedScan(cx, p, n, true), tail)
					for _, tc := range tail {
						if tc.cycle <= e+opt.MaxSlack || tc.cycle < p.maxCycle {
							t.Fatalf("%s: tail candidate at cycle %d (earliest %d, maxCycle %d) rescans a plain-pass cycle",
								k.Name, tc.cycle, e, p.maxCycle)
						}
					}
					tails += len(tail)

					// Advance along the cheapest candidate, as the beam's
					// best partial would.
					pick := full
					if len(pick) == 0 {
						pick = tail
					}
					if len(pick) == 0 {
						break
					}
					best := 0
					for i := range pick {
						if pick[i].cost < pick[best].cost {
							best = i
						}
					}
					p = cx.apply(&pick[best], &Stats{})
				}
			}
		}
	}
	if split == 0 || tails == 0 {
		t.Fatalf("vacuous: %d bind steps, %d split across the first window, %d tail candidates", steps, split, tails)
	}
	t.Logf("%d bind steps, %d with candidates on both sides of the first window, %d tail candidates", steps, split, tails)
}
