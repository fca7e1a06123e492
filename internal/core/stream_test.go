package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/kernels"
)

// eagerSlot is one slot of the reference scan, planned.
type eagerSlot struct {
	parent *partial
	tile   arch.TileID
	cycle  int
	ok     bool
	cand   candidate
}

// eagerScan is the binder's former eager path, kept as the test oracle:
// route-plan every slot of the window that passes the cheap legality
// checks (CAB blacklist, LSU, free slot, clobber-free output).
func eagerScan(cx *bbCtx, p *partial, n cdfg.NodeID, tail bool, out []eagerSlot) []eagerSlot {
	nd := cx.block.Nodes[n]
	blacklist := cx.cabBlacklist(p)
	earliest := cx.earliestCycle(p, n)
	base := earliest
	if tail && p.maxCycle > base {
		base = p.maxCycle
	}
	from := base
	if tail && from <= earliest+cx.opt.MaxSlack {
		from = earliest + cx.opt.MaxSlack + 1
	}
	for cc := from; cc <= base+cx.opt.MaxSlack; cc++ {
		for t := 0; t < cx.grid.NumTiles(); t++ {
			tid := arch.TileID(t)
			if blacklist&(1<<uint(t)) != 0 ||
				nd.Op.IsMem() && !cx.grid.Tile(tid).HasLSU ||
				!cx.free(p, nil, tid, cc) ||
				nd.Op.HasResult() && !cx.canProduce(p, nil, tid, cc) {
				continue
			}
			e := eagerSlot{parent: p, tile: tid, cycle: cc}
			e.ok = cx.planCandidate(p, n, tid, cc, blacklist, &e.cand)
			out = append(out, e)
		}
	}
	return out
}

// arrival recomputes, from its definition, the cycle from which every
// routed operand of n can reach tile t under p. When just is set, it
// tallies the operands that reach a slot at cycle cc exactly in time, by
// the distance of their nearest location (0, 1, 2+).
func arrival(cx *bbCtx, p *partial, n cdfg.NodeID, t arch.TileID, cc int, just *[3]int) int {
	arrive := 0
	for _, a := range cx.block.Nodes[n].Args {
		av := cx.block.Nodes[a]
		if av.Op == cdfg.OpConst || av.Op == cdfg.OpSym && !p.placed(a) {
			continue
		}
		first, dist := math.MaxInt, -1
		if cx.opt.Recompute && cx.recomputable(a) {
			first = 1
		}
		for _, l := range p.locsOf(a) {
			d := cx.grid.Distance(l.Tile, t)
			if c := l.Cycle + max(1, d); c < first {
				first, dist = c, d
			}
		}
		if just != nil && first == cc && dist >= 0 {
			just[min(dist, 2)]++
		}
		arrive = max(arrive, first)
	}
	return arrive
}

// streamTally accumulates what TestCandStreamMatchesEagerPlanning saw.
type streamTally struct {
	steps, slots, screened, planned, yielded int
	just                                     [3]int
}

// checkStream compares one window pass of the stream over beam against
// planning every slot: the arrival test drops only slots planCandidate
// rejects, every bound is at most its slot's exact key, and draining the
// stream yields the eager candidates in (cost, index) order. It returns
// the drained candidates.
func checkStream(t *testing.T, what string, cx *bbCtx, beam []*partial, n cdfg.NodeID, tail bool, tl *streamTally) []candidate {
	t.Helper()
	var eager []eagerSlot
	for _, p := range beam {
		eager = eagerScan(cx, p, n, tail, eager)
	}
	var st Stats
	cs := &cx.arena.stream
	cs.reset(cx, n, &st)
	for _, p := range beam {
		cs.enumerate(p, 0, cx.opt.MaxSlack, tail)
	}
	kept := append([]slotEntry(nil), cs.heap...)

	j, screened := 0, 0
	for _, e := range eager {
		arr := arrival(cx, e.parent, n, e.tile, e.cycle, nil)
		dropped := j == len(kept) || kept[j].parent != e.parent || kept[j].tile != e.tile || kept[j].cycle != e.cycle
		if dropped != (e.cycle < arr) {
			t.Fatalf("%s: tile %d cycle %d (arrival %d) dropped=%v", what, e.tile, e.cycle, arr, dropped)
		}
		if dropped {
			screened++
			if e.ok {
				t.Fatalf("%s: arrival test dropped tile %d cycle %d (arrival %d), which plans", what, e.tile, e.cycle, arr)
			}
			continue
		}
		if e.ok {
			if exact := e.parent.cost + e.cand.cost; exact < kept[j].key {
				t.Fatalf("%s: bound %v over exact key %v at tile %d cycle %d", what, kept[j].key, exact, e.tile, e.cycle)
			}
			arrival(cx, e.parent, n, e.tile, e.cycle, &tl.just)
		}
		j++
	}
	if j != len(kept) {
		t.Fatalf("%s: stream enumerated %d slots the eager scan lacks (next: %+v)", what, len(kept)-j, kept[j])
	}
	if screened != st.Screened {
		t.Fatalf("%s: Stats.Screened = %d, %d slots were dropped", what, st.Screened, screened)
	}

	var want []candidate
	for _, e := range eager {
		if e.ok {
			want = append(want, e.cand)
		}
	}
	sort.SliceStable(want, func(a, b int) bool {
		return want[a].parent.cost+want[a].cost < want[b].parent.cost+want[b].cost
	})
	var got []candidate
	for c := cs.next(); c != nil; c = cs.next() {
		got = append(got, *c)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: stream yields %d candidates, eager planning %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.parent != w.parent || g.node != w.node || g.tile != w.tile || g.cycle != w.cycle || g.cost != w.cost {
			t.Fatalf("%s: candidate %d is (tile %d, cycle %d, cost %v), eager planning gives (tile %d, cycle %d, cost %v)",
				what, i, g.tile, g.cycle, g.cost, w.tile, w.cycle, w.cost)
		}
	}
	if st.Planned > len(kept) {
		t.Fatalf("%s: planned %d of %d kept slots", what, st.Planned, len(kept))
	}
	tl.slots += len(eager)
	tl.screened += screened
	tl.planned += st.Planned
	tl.yielded += len(got)
	return got
}

// TestCandStreamMatchesEagerPlanning pins the best-first stream's
// exactness on the partials a greedy walk reaches while binding every
// block of every kernel: two-partial beams (the best and second-best
// child of the previous step, so parent costs differ), for the plain
// window and the tail region past the schedule's end.
func TestCandStreamMatchesEagerPlanning(t *testing.T) {
	cells := []struct {
		flow Flow
		cfg  arch.ConfigName
	}{{FlowBasic, arch.HOM64}, {FlowCAB, arch.HOM32}, {FlowCAB, arch.HET1}, {FlowCAB, arch.HET2}}
	var tl streamTally
	for _, k := range kernels.All() {
		g := k.Build()
		for _, c := range cells {
			grid := arch.MustGrid(c.cfg)
			opt := DefaultOptions(c.flow)
			opt.sanitize()
			what := k.Name + "/" + c.flow.String() + "/" + string(c.cfg)
			for _, b := range g.Blocks {
				cx := testBlockCtx(g, b, grid, &opt)
				beam := []*partial{cx.initialPartial(make([][]int32, grid.NumTiles()), make([]uint16, grid.NumTiles()))}
				for _, n := range scheduleOrderInto(b, cx.sched, cx.users, nil) {
					cx.arena.bindReset()
					tl.steps++
					tail := checkStream(t, what+" tail", cx, beam, n, true, &tl)
					cands := checkStream(t, what, cx, beam, n, false, &tl)
					if len(cands) == 0 {
						cands = tail
					}
					if len(cands) == 0 {
						break
					}
					// Advance to the two cheapest children, as the beam's
					// deterministic half would keep them.
					var next []*partial
					for i := range cands[:min(2, len(cands))] {
						next = append(next, cx.apply(&cands[i], &Stats{}))
					}
					beam = next
				}
			}
		}
	}
	// The arrival test is tight: at every distance some operand reaches a
	// planned candidate exactly at its arrival cycle, so one cycle more
	// would drop a plannable slot.
	if tl.screened == 0 || tl.yielded == 0 || tl.just[0] == 0 || tl.just[1] == 0 || tl.just[2] == 0 {
		t.Fatalf("vacuous: %+v", tl)
	}
	t.Logf("%d bind steps: %d slots, %d screened, %d planned, %d yielded; operands just in time at distance 0/1/2+: %v",
		tl.steps, tl.slots, tl.screened, tl.planned, tl.yielded, tl.just)
}

// TestCandHeapOrder pins the candidate heap's pop order against
// sort.SliceStable on the same entries: random keys drawn from a few
// values, so most keys tie exactly and the enumeration index decides.
// Half the trials start every slot at a lower bound and, the way ready
// does, re-key a bound-keyed top in place to its exact key before it
// may pop, or drop it as a failed plan.
func TestCandHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 400 {
		rekey := trial%2 == 1
		n, distinct := rng.Intn(300), 1+rng.Intn(6)
		var s candStream
		exact := make([]float64, n)
		drop := make([]bool, n)
		var want []slotEntry
		for i := range n {
			bound := float64(rng.Intn(distinct)) / 4
			exact[i] = bound
			e := slotEntry{key: bound, seq: int32(i), cand: int32(i)}
			if rekey {
				exact[i] += float64(rng.Intn(3)) / 4
				drop[i] = rng.Intn(5) == 0
				e.cand = -1
			}
			s.heap = append(s.heap, e)
			if !drop[i] {
				want = append(want, slotEntry{key: exact[i], seq: int32(i)})
			}
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].key < want[b].key })
		s.heapify()
		var got []slotEntry
		for len(s.heap) > 0 {
			top := s.heap[0]
			switch {
			case top.cand >= 0:
				got = append(got, slotEntry{key: top.key, seq: top.seq})
				s.pop()
			case drop[top.seq]:
				s.pop()
			default:
				s.rekeyTop(exact[top.seq], top.seq)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: popped %d entries, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (rekey %v): pop %d is (key %v, seq %d), sorted order has (key %v, seq %d)",
					trial, rekey, i, got[i].key, got[i].seq, want[i].key, want[i].seq)
			}
		}
	}
}
