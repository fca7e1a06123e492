package core

import (
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

// heldSlot is one slot a stream holds unplanned, with its bound key.
type heldSlot struct {
	parent *partial
	tile   arch.TileID
	cycle  int
	key    float64
}

// slotsHeld lists every slot the stream's runs hold, in enumeration
// order. It walks copies of the runs and masks, so the stream itself is
// left as enumerate built it.
func slotsHeld(cs *candStream) []heldSlot {
	s := *cs
	s.runs = append([]slotRun(nil), cs.runs...)
	s.masks = append([]uint64(nil), cs.masks...)
	var ents []slotEntry
	for ri := range s.runs {
		for more := true; more; more = s.advance(&s.runs[ri]) {
			ents = append(ents, s.entry(int32(ri)))
		}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].order < ents[j].order })
	out := make([]heldSlot, len(ents))
	for i, e := range ents {
		r := &s.runs[e.run]
		out[i] = heldSlot{parent: s.calls[r.call].parent, tile: r.tile, cycle: int(e.order >> 8 & (1<<36 - 1)), key: e.key}
	}
	return out
}

// streamTally accumulates what the stream checks saw.
type streamTally struct {
	steps, slots, rejected, screened, planned, yielded int
}

// checkStream compares one window pass of the stream over beam against
// planning every slot: the reach screen drops only slots planCandidate
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
	kept := slotsHeld(cs)

	j, screened, rejected := 0, 0, 0
	for _, e := range eager {
		if !e.ok {
			rejected++
		}
		if j == len(kept) || kept[j].parent != e.parent || kept[j].tile != e.tile || kept[j].cycle != e.cycle {
			screened++
			if e.ok {
				t.Fatalf("%s: reach screen dropped tile %d cycle %d, which plans", what, e.tile, e.cycle)
			}
			continue
		}
		if e.ok {
			if exact := e.parent.cost + e.cand.cost; exact < kept[j].key {
				t.Fatalf("%s: bound %v over exact key %v at tile %d cycle %d", what, kept[j].key, exact, e.tile, e.cycle)
			}
		}
		j++
	}
	if j != len(kept) {
		t.Fatalf("%s: stream holds %d slots the eager scan lacks (next: %+v)", what, len(kept)-j, kept[j])
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
	tl.rejected += rejected
	tl.screened += screened
	tl.planned += st.Planned
	tl.yielded += len(got)
	return got
}

// walkCell is one (flow, configuration) a greedy walk binds under; a
// nonzero rrf shrinks every tile's register file to that many entries.
type walkCell struct {
	flow Flow
	cfg  arch.ConfigName
	rrf  int
}

// paperCells are the paper's Fig 8 / Table II cells.
var paperCells = []walkCell{{FlowBasic, arch.HOM64, 0}, {FlowCAB, arch.HOM32, 0}, {FlowCAB, arch.HET1, 0}, {FlowCAB, arch.HET2, 0}}

// kernelGraphs builds the given kernels' graphs.
func kernelGraphs(ks ...kernels.Kernel) []*cdfg.Graph {
	var gs []*cdfg.Graph
	for _, k := range ks {
		gs = append(gs, k.Build())
	}
	return gs
}

// genGraphs draws n of the oracle's random graphs: small varied control
// flow, with constant-operand producers a consumer may recompute.
func genGraphs(n int) []*cdfg.Graph {
	var gs []*cdfg.Graph
	for s := range int64(n) {
		g, _ := cdfg.Generate(rand.New(rand.NewSource(s)), cdfg.DefaultGenConfig())
		gs = append(gs, g)
	}
	return gs
}

// greedyWalk binds every block of each graph under every cell, handing
// step each bind step's two-partial beam: the best and second-best child
// of the previous step, so parent costs differ. step returns the
// candidates of the step, best first; the walk advances to the first two
// and ends the block when there are none.
func greedyWalk(gs []*cdfg.Graph, cells []walkCell, tune func(*Options), step func(what string, cx *bbCtx, beam []*partial, n cdfg.NodeID) []candidate) {
	for _, g := range gs {
		for _, c := range cells {
			grid := arch.MustGrid(c.cfg)
			if c.rrf > 0 {
				small := *grid
				small.RRFSize = c.rrf
				grid = &small
			}
			opt := DefaultOptions(c.flow)
			tune(&opt)
			opt.sanitize()
			what := g.Name + "/" + c.flow.String() + "/" + string(c.cfg)
			for _, b := range g.Blocks {
				cx := testBlockCtx(g, b, grid, &opt)
				beam := []*partial{cx.initialPartial(make([][]int32, grid.NumTiles()), make([]uint16, grid.NumTiles()))}
				for _, n := range scheduleOrderInto(b, cx.sched, cx.users, nil) {
					cx.arena.bindReset()
					cands := step(what, cx, beam, n)
					if len(cands) == 0 {
						break
					}
					var next []*partial
					for i := range cands[:min(2, len(cands))] {
						next = append(next, cx.apply(&cands[i], &Stats{}))
					}
					beam = next
				}
			}
		}
	}
}

// streamStep checks the tail region and the plain window of one bind
// step, advancing along the plain window's candidates when it has any.
func streamStep(t *testing.T, tl *streamTally) func(string, *bbCtx, []*partial, cdfg.NodeID) []candidate {
	return func(what string, cx *bbCtx, beam []*partial, n cdfg.NodeID) []candidate {
		tl.steps++
		tail := checkStream(t, what+" tail", cx, beam, n, true, tl)
		if cands := checkStream(t, what, cx, beam, n, false, tl); len(cands) > 0 {
			return cands
		}
		return tail
	}
}

// TestCandStreamMatchesEagerPlanning pins the best-first stream's
// exactness on the partials a greedy walk reaches while binding every
// block of every kernel, for the plain window and the tail region past
// the schedule's end.
func TestCandStreamMatchesEagerPlanning(t *testing.T) {
	var tl streamTally
	greedyWalk(kernelGraphs(kernels.All()...), paperCells, func(*Options) {}, streamStep(t, &tl))
	// The screen is strong: it drops most of the slots planning rejects
	// (an arrival test, cc ≥ l.Cycle+max(1, d), drops only 14% of them).
	if tl.yielded == 0 || tl.screened*10 < tl.rejected*6 {
		t.Fatalf("screen dropped %d of the %d slots planning rejects, want at least 60%%: %+v", tl.screened, tl.rejected, tl)
	}
	t.Logf("%d bind steps: %d slots, %d rejected by planning, %d screened, %d planned, %d yielded",
		tl.steps, tl.slots, tl.rejected, tl.screened, tl.planned, tl.yielded)
}

// TestCandStreamWideWindow runs the same comparison with a slack window
// wider than one mask word (MaxSlack 100), so runs cross 64-cycle words,
// on the two kernels whose blocks retry.
func TestCandStreamWideWindow(t *testing.T) {
	var tl streamTally
	gs := kernelGraphs(kernels.MatM(), kernels.NonSepFilter())
	greedyWalk(gs, paperCells[:2], func(o *Options) { o.MaxSlack = 100 }, streamStep(t, &tl))
	if tl.yielded == 0 || tl.screened == 0 {
		t.Fatalf("vacuous: %+v", tl)
	}
	t.Logf("%d bind steps: %d slots, %d screened, %d planned, %d yielded", tl.steps, tl.slots, tl.screened, tl.planned, tl.yielded)
}

// TestReachScreenSound checks the reach masks against planOperand itself
// on the greedy walk: every cycle from 0 to past the tail window at which
// an operand plans onto a tile, with an empty overlay, is in the
// operand's reach mask there.
func TestReachScreenSound(t *testing.T) {
	var checked, reached int
	gs := append(kernelGraphs(kernels.All()...), genGraphs(15)...)
	cells := append([]walkCell{{FlowCAB, arch.HOM32, 2}, {FlowBasic, arch.HET1, 1}}, paperCells...)
	greedyWalk(gs, cells, func(*Options) {}, func(what string, cx *bbCtx, beam []*partial, n cdfg.NodeID) []candidate {
		cs := &cx.arena.stream
		cs.reset(cx, n, &Stats{})
		for _, p := range beam {
			bl := cx.cabBlacklist(p)
			to := max(p.maxCycle, cx.earliestCycle(p, n)) + cx.opt.MaxSlack + 1
			cs.screen(p, bl, 0, to)
			mask := make([]uint64, to>>6+1)
			for _, a := range cx.block.Nodes[n].Args {
				if av := cx.block.Nodes[a]; av.Op == cdfg.OpConst || av.Op == cdfg.OpSym && !p.placed(a) {
					continue
				}
				for tid := range arch.TileID(cx.grid.NumTiles()) {
					if bl&(1<<uint(tid)) != 0 {
						continue
					}
					cs.reach(p, a, cs.regCaps(p, a), tid, 0, mask)
					for cc := 0; cc <= to; cc++ {
						var pl routePlan
						if !cx.planOperand(p, nil, a, tid, cc, bl, &pl) {
							continue
						}
						checked++
						if mask[cc>>6]&(1<<uint(cc&63)) == 0 {
							t.Fatalf("%s: operand n%d plans onto tile %d at cycle %d outside its reach mask", what, a, tid, cc)
						}
					}
					reached += popcount(mask)
				}
			}
		}
		return firstCandidates(cx, beam, n)
	})
	if checked == 0 {
		t.Fatal("vacuous: no operand planned")
	}
	t.Logf("%d (operand, tile, cycle) plans, all inside reach masks holding %d cycles", checked, reached)
}

// firstCandidates drains the stream over beam: the plain window, or past
// the schedule's end when that is empty.
func firstCandidates(cx *bbCtx, beam []*partial, n cdfg.NodeID) []candidate {
	cs := &cx.arena.stream
	for _, tail := range []bool{false, true} {
		cs.reset(cx, n, &Stats{})
		for _, p := range beam {
			cs.enumerate(p, 0, cx.opt.MaxSlack, tail)
		}
		var out []candidate
		for c := cs.next(); c != nil; c = cs.next() {
			out = append(out, *c)
		}
		if len(out) > 0 {
			return out
		}
	}
	return nil
}

// TestCandHeapOrder pins the candidate heap's pop order against
// sort.SliceStable on the same entries: random keys drawn from a few
// values, so most keys tie exactly and the enumeration order decides.
// Half the trials start every slot at a lower bound and, the way ready
// does, re-key a bound-keyed top in place to its exact key before it
// may pop, or drop it as a failed plan; a third of them hold entries
// back and push them as the heap drains, the way runs feed it.
func TestCandHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 400 {
		rekey := trial%2 == 1
		n, distinct := rng.Intn(300), 1+rng.Intn(6)
		var s candStream
		exact := make([]float64, n)
		drop := make([]bool, n)
		var want, later []slotEntry
		for i := range n {
			bound := float64(rng.Intn(distinct)) / 4
			exact[i] = bound
			e := slotEntry{key: bound, order: uint64(i), cand: int32(i)}
			if rekey {
				exact[i] += float64(rng.Intn(3)) / 4
				drop[i] = rng.Intn(5) == 0
				e.cand = -1
			}
			if trial%3 == 0 && rng.Intn(2) == 0 {
				// Held back: pushed only once the heap's top is at or
				// past its key, as a run's successor is.
				later = append(later, e)
			} else {
				s.heap = append(s.heap, e)
			}
			if !drop[i] {
				want = append(want, slotEntry{key: exact[i], order: uint64(i)})
			}
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].key < want[b].key })
		sort.Slice(later, func(a, b int) bool { return later[a].before(&later[b]) })
		s.heapify()
		var got []slotEntry
		for len(s.heap) > 0 || len(later) > 0 {
			if len(later) > 0 && (len(s.heap) == 0 || !s.heap[0].before(&later[0])) {
				s.push(later[0])
				later = later[1:]
				continue
			}
			top := s.heap[0]
			switch {
			case top.cand >= 0:
				got = append(got, slotEntry{key: top.key, order: top.order})
				s.pop()
			case drop[top.order]:
				s.pop()
			default:
				s.rekeyTop(exact[top.order], int32(top.order))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: popped %d entries, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (rekey %v): pop %d is (key %v, order %d), sorted order has (key %v, order %d)",
					trial, rekey, i, got[i].key, got[i].order, want[i].key, want[i].order)
			}
		}
	}
}
