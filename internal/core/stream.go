package core

import (
	"math"

	"repro/internal/arch"
	"repro/internal/cdfg"
)

// candStream yields one bind step's candidates best-first: exactly the
// candidates, in exactly the order, that route-planning every slot of the
// window and sorting by (parent cost + delta cost, enumeration index)
// gives, while planning only the slots that reach the top of its heap.
// enumerate keys each slot by its parent's cost plus an admissible lower
// bound on planCandidate's delta cost, dropping slots that fail the
// necessary arrival test (see tileBound). A slot at the top still keyed
// by its bound is planned and re-inserted under its exact key, or
// dropped when planning fails. A bound never exceeds the exact key and
// both carry the slot's enumeration index as tie-break, so an exactly
// keyed slot at the top precedes everything left in the heap.
type candStream struct {
	cx    *bbCtx
	n     cdfg.NodeID
	st    *Stats
	heap  []slotEntry
	cands []candidate
	seq   int32
	dirty bool // entries appended since the heap was last ordered
	tb    []tileBound
}

// slotEntry is one (parent, tile, cycle) slot of the window.
type slotEntry struct {
	key    float64 // parent cost + delta-cost bound, exact once planned
	seq    int32   // enumeration index: the shared tie-break
	cand   int32   // index into cands once planned; -1 while key is a bound
	tile   arch.TileID
	cycle  int
	parent *partial
}

// tileBound holds the per-tile parts of a slot's key for one partial.
// arrive is the arrival test: a value at location l crosses at most one
// hop per cycle after l.Cycle, so no plan reads it on a tile at distance
// d before l.Cycle+max(1, d). args lower-bounds the operands' summed plan
// costs: (d-1)·costMove per routed operand (costRecompute if cheaper and
// allowed), the exact pin cost per unpinned symbol, nothing per
// constant. load and soft are planCandidate's exact op-tile terms.
type tileBound struct {
	arrive     int
	args       float64
	load, soft float64
}

// reset starts a stream for binding node n.
func (s *candStream) reset(cx *bbCtx, n cdfg.NodeID, st *Stats) {
	s.cx, s.n, s.st = cx, n, st
	s.heap, s.cands, s.seq, s.dirty = s.heap[:0], s.cands[:0], 0, false
}

// enumerate adds p's slots at cycles [base+lo, base+hi], where base is
// n's earliest cycle. With tail set, base moves to the end of the
// partial's schedule if that is later — the last-resort reroute region,
// free on every tile — and cycles up to earliest+MaxSlack are skipped:
// a tail pass only runs after the plain passes of its bind step found
// nothing there. Callers widen a window by passing lo = previous hi + 1.
// Cycles are the outer loop and a slot's key and plan are fixed within a
// bind step, so split passes add the same slots in the same order as
// one pass over the whole window.
func (s *candStream) enumerate(p *partial, lo, hi int, tail bool) {
	cx := s.cx
	nd := cx.block.Nodes[s.n]
	blacklist := cx.cabBlacklist(p)
	earliest := cx.earliestCycle(p, s.n)
	base := earliest
	if tail && p.maxCycle > base {
		base = p.maxCycle
	}
	from := base + lo
	if tail && from <= earliest+cx.opt.MaxSlack {
		from = earliest + cx.opt.MaxSlack + 1
	}
	if from > base+hi {
		return
	}
	s.bound(p)
	produces := nd.Op.HasResult()
	for cc := from; cc <= base+hi; cc++ {
		for t := range s.tb {
			tid := arch.TileID(t)
			if blacklist&(1<<uint(t)) != 0 {
				continue
			}
			if nd.Op.IsMem() && !cx.grid.Tile(tid).HasLSU {
				continue
			}
			if !cx.free(p, nil, tid, cc) {
				continue
			}
			if produces && !cx.canProduce(p, nil, tid, cc) {
				continue
			}
			b := &s.tb[t]
			if cc < b.arrive {
				s.st.Screened++
				continue
			}
			// Summed in planCandidate's order, term by term no larger, so
			// float rounding cannot lift the bound over the exact cost.
			key := b.args
			if grow := cc + 1 - p.maxCycle; grow > 0 {
				key += costCycle * float64(grow)
			}
			key += b.load
			key += b.soft
			s.heap = append(s.heap, slotEntry{key: p.cost + key, seq: s.seq, cand: -1, tile: tid, cycle: cc, parent: p})
			s.seq++
		}
	}
	s.dirty = true
}

// bound fills s.tb for node n under partial p.
func (s *candStream) bound(p *partial) {
	cx := s.cx
	s.tb = s.tb[:0]
	for t := 0; t < cx.grid.NumTiles(); t++ {
		tid := arch.TileID(t)
		b := tileBound{load: cx.loadCost(p, tid), soft: cx.softCost(p, tid)}
		for _, a := range cx.block.Nodes[s.n].Args {
			av := cx.block.Nodes[a]
			switch {
			case av.Op == cdfg.OpConst:
				continue
			case av.Op == cdfg.OpSym && !p.placed(a):
				b.args += cx.pinCost(tid)
				continue
			}
			arrive, cost := math.MaxInt, math.Inf(1)
			if cx.opt.Recompute && cx.recomputable(a) {
				arrive, cost = 1, costRecompute
			}
			for _, l := range p.locsOf(a) {
				d := cx.grid.Distance(l.Tile, tid)
				arrive = min(arrive, l.Cycle+max(1, d))
				cost = min(cost, costMove*float64(max(0, d-1)))
			}
			b.arrive = max(b.arrive, arrive)
			b.args += cost
		}
		s.tb = append(s.tb, b)
	}
}

// ready plans bound slots off the top of the heap until an exactly keyed
// one is there (true) or the heap is empty (false).
func (s *candStream) ready() bool {
	if s.dirty {
		s.heapify()
	}
	for len(s.heap) > 0 {
		top := &s.heap[0]
		if top.cand >= 0 {
			return true
		}
		s.st.Planned++
		s.cands = append(s.cands, candidate{})
		c := &s.cands[len(s.cands)-1]
		if !s.cx.planCandidate(top.parent, s.n, top.tile, top.cycle, s.cx.cabBlacklist(top.parent), c) {
			s.cands = s.cands[:len(s.cands)-1]
			s.pop()
			continue
		}
		s.rekeyTop(top.parent.cost+c.cost, int32(len(s.cands)-1))
	}
	return false
}

// next pops the best remaining candidate, or nil once the stream is
// drained. The candidate stays valid until the following call.
func (s *candStream) next() *candidate {
	if !s.ready() {
		return nil
	}
	c := &s.cands[s.heap[0].cand]
	s.pop()
	return c
}

// The heap is 4-ary: entry i's children are 4i+1..4i+4. Against a binary
// heap it halves the depth a sift walks, for a few more compares per
// level. (key, seq) is a strict total order (seq is unique), so the pop
// order is the sorted order whatever the heap's shape.

// before orders slots by key, then enumeration index.
func (a *slotEntry) before(b *slotEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// heapify orders the whole heap after enumerate appended to it.
func (s *candStream) heapify() {
	for i := (len(s.heap)+2)/4 - 1; i >= 0; i-- {
		s.down(i)
	}
	s.dirty = false
}

// down sifts entry i toward the leaves, moving the smaller children up
// into the hole rather than swapping at every level.
func (s *candStream) down(i int) {
	h := s.heap
	e := h[i]
	for {
		c := 4*i + 1
		if c >= len(h) {
			break
		}
		m := c
		for j := c + 1; j < min(c+4, len(h)); j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// rekeyTop gives the top slot its exact key and candidate, keeping heap
// order. The exact key is never below the bound it replaces.
func (s *candStream) rekeyTop(key float64, cand int32) {
	s.heap[0].key, s.heap[0].cand = key, cand
	s.down(0)
}

func (s *candStream) pop() {
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	if last > 0 {
		s.down(0)
	}
}
