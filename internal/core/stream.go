package core

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/arch"
	"repro/internal/cdfg"
)

// candStream yields one bind step's candidates best-first: exactly the
// candidates, in exactly the order, that route-planning every slot of the
// window and sorting by (parent cost + delta cost, enumeration order)
// gives, while planning only the slots that reach the top of its heap.
//
// enumerate drops, unplanned, every slot the reach screen proves no route
// can serve (see reach), and groups the rest into runs: the slots of one
// (enumerate call, tile), in cycle order. Within a run a slot's bound key
// never falls as its cycle rises and its enumeration order always rises,
// so the heap holds only each run's first remaining slot; the successor
// goes in when that slot is planned or dropped. A slot at the top still
// keyed by its bound is planned and re-inserted under its exact key, or
// dropped when planning fails. A bound never exceeds the exact key and
// both carry the slot's enumeration order as tie-break, so an exactly
// keyed slot at the top precedes everything left, in the heap or behind
// it in a run.
type candStream struct {
	cx    *bbCtx
	n     cdfg.NodeID
	st    *Stats
	heap  []slotEntry
	runs  []slotRun
	calls []streamCall
	masks []uint64 // the runs' slot masks
	cands []candidate
	dirty bool // entries appended since the heap was last ordered

	// The reach screen's hop masks over cycles [hopOrg, to] of the
	// current enumerate call, hopW words each: tile t's starts at
	// hopPool[hopOff[t]]. A pass builds each distinct (tile buffer,
	// window) pair's mask once: wins lists the pass's windows, and a
	// tile buffer stamped with a window's generation already has its mask
	// in the pool (see screen).
	hopPool  []uint64
	hopOff   []int32
	wins     []hopWindow
	hopGen   uint64 // the last generation handed out
	hopOrg   int
	hopReach int
	hopW     int
	acc      []uint64
	caps     []bool
}

// hopWindow is one window of hop masks in a pass: cycles [org, to] under
// stamp generation gen; zero is the offset of an all-clear mask, shared
// by the blacklisted tiles.
type hopWindow struct {
	org, to int
	gen     uint64
	zero    int32
}

// slotEntry is one heap entry: a run's current slot, keyed by its bound
// (cand < 0), or a planned slot keyed exactly (cand indexes cands).
type slotEntry struct {
	key   float64 // parent cost + delta-cost bound, exact once planned
	order uint64  // (enumerate call, cycle, tile): the shared tie-break
	cand  int32
	run   int32
}

// streamCall is one enumerate call: a parent, the first cycle of its
// window, and the mask words per tile the window takes.
type streamCall struct {
	parent    *partial
	blacklist uint32
	from      int
	words     int
}

// slotRun walks the slots one (enumerate call, tile) kept: at is the
// slot the heap holds, the set bits of its mask the ones still to come.
// args caches the operands' part of the bound, which holds through
// cycle argsTo. load and soft are planCandidate's exact op-tile terms.
type slotRun struct {
	call       int32
	tile       arch.TileID
	mask       int32 // offset of the mask's words in masks
	word       int32 // first mask word that may still hold a bit
	at         int
	argsTo     int
	args       float64
	load, soft float64
}

// slotOrder packs the tie-break: enumeration visits calls in order, then
// cycles (below 2^36), then tiles (below 2^8).
func slotOrder(call int32, cycle int, t arch.TileID) uint64 {
	return uint64(call)<<44 | uint64(cycle)<<8 | uint64(t)
}

// reset starts a stream for binding node n.
func (s *candStream) reset(cx *bbCtx, n cdfg.NodeID, st *Stats) {
	s.cx, s.n, s.st = cx, n, st
	s.heap, s.runs, s.calls, s.masks = s.heap[:0], s.runs[:0], s.calls[:0], s.masks[:0]
	s.cands, s.dirty = s.cands[:0], false
	s.hopPool, s.wins = s.hopPool[:0], s.wins[:0]
}

// enumerate adds p's slots at cycles [base+lo, base+hi], where base is
// n's earliest cycle. With tail set, base moves to the end of the
// partial's schedule if that is later — the last-resort reroute region,
// free on every tile — and cycles up to earliest+MaxSlack are skipped:
// a tail pass only runs after the plain passes of its bind step found
// nothing there. Callers widen a window by passing lo = previous hi + 1.
// A slot's screen, key and plan are fixed within a bind step and the
// order is (call, cycle, tile), so split passes add the same slots in
// the same order as one pass over the whole window.
func (s *candStream) enumerate(p *partial, lo, hi int, tail bool) {
	cx := s.cx
	nd := cx.block.Nodes[s.n]
	earliest := cx.earliestCycle(p, s.n)
	base := earliest
	if tail && p.maxCycle > base {
		base = p.maxCycle
	}
	from, to := base+lo, base+hi
	if tail && from <= earliest+cx.opt.MaxSlack {
		from = earliest + cx.opt.MaxSlack + 1
	}
	if from > to {
		return
	}
	bl := cx.cabBlacklist(p)
	ci := int32(len(s.calls))
	words := (to - from + 64) >> 6
	s.calls = append(s.calls, streamCall{parent: p, blacklist: bl, from: from, words: words})
	s.screen(p, bl, from, to)
	nt := cx.grid.NumTiles()
	off := len(s.masks)
	s.masks = slices.Grow(s.masks, nt*words)[:off+nt*words]
	tileMask := func(t int) []uint64 { return s.masks[off+t*words : off+(t+1)*words] }
	legal := 0
	for t := range nt {
		m, tid := tileMask(t), arch.TileID(t)
		switch {
		case bl&(1<<uint(t)) != 0 || nd.Op.IsMem() && !cx.grid.Tile(tid).HasLSU:
			clear(m)
		case nd.Op.HasResult():
			for w := range m {
				m[w] = s.hopWord(tid, 0, w)
			}
		default:
			fillFree(m, p.tiles[t], from, to, false)
		}
		clearRange(m, from, to+1, math.MaxInt)
		legal += popcount(m)
	}
	s.acc = slices.Grow(s.acc[:0], words)[:words]
	for _, a := range nd.Args {
		if av := cx.block.Nodes[a]; av.Op == cdfg.OpConst || av.Op == cdfg.OpSym && !p.placed(a) {
			continue
		}
		caps := s.regCaps(p, a)
		for t := range nt {
			if m := tileMask(t); !empty(m) {
				s.reach(p, a, caps, arch.TileID(t), from, s.acc)
				and(m, s.acc)
			}
		}
	}
	kept := 0
	for t := range nt {
		m, tid := tileMask(t), arch.TileID(t)
		if empty(m) {
			continue
		}
		kept += popcount(m)
		s.runs = append(s.runs, slotRun{call: ci, tile: tid, mask: int32(off + t*words), argsTo: -1,
			load: cx.loadCost(p, tid), soft: cx.softCost(p, tid)})
		ri := int32(len(s.runs) - 1)
		s.advance(&s.runs[ri])
		s.heap = append(s.heap, s.entry(ri))
	}
	s.st.Screened += legal - kept
	s.dirty = true
}

// screen points the hop masks reach reads at window [from, to] under p:
// bit c of tile t says a move may execute on t at cycle c (the slot is
// free, it can produce without clobbering a held output, and t is not
// blacklisted). The masks start hopReach cycles early: the furthest back
// a chain's first hop (the grid's diameter) or a recompute (one cycle)
// runs before its consumer. Beam siblings share most tile buffers, so a
// mask depends only on the buffer and the window: a buffer stamped with
// the window's generation reuses the mask built for it earlier in the
// pass, and any write to the buffer clears the stamp.
func (s *candStream) screen(p *partial, bl uint32, from, to int) {
	g := s.cx.grid
	s.hopReach = max(1, g.Rows/2+g.Cols/2)
	s.hopOrg = from - s.hopReach
	s.hopW = (to-s.hopOrg+64)>>6 + 1
	win := s.window(s.hopOrg, to)
	nt := g.NumTiles()
	s.hopOff = slices.Grow(s.hopOff[:0], nt)[:nt]
	for t := range nt {
		if bl&(1<<uint(t)) != 0 {
			s.hopOff[t] = win.zero
			continue
		}
		ts := p.tiles[t]
		if ts.hopGen != win.gen {
			off := s.grow()
			fillFree(s.hopPool[off:int(off)+s.hopW], ts, s.hopOrg, to, true)
			ts.hopGen, ts.hopOff = win.gen, off
		}
		s.hopOff[t] = ts.hopOff
	}
}

// window returns the pass's hop window [org, to], adding it under a new
// stamp generation on first use. Generations only grow and start at 1,
// so a cleared stamp (0) or one from an earlier window never matches.
func (s *candStream) window(org, to int) hopWindow {
	for _, w := range s.wins {
		if w.org == org && w.to == to {
			return w
		}
	}
	s.hopGen++
	zero := s.grow()
	clear(s.hopPool[zero : int(zero)+s.hopW])
	w := hopWindow{org: org, to: to, gen: s.hopGen, zero: zero}
	s.wins = append(s.wins, w)
	return w
}

// grow adds hopW words to the mask pool and returns their offset.
func (s *candStream) grow() int32 {
	off := len(s.hopPool)
	s.hopPool = slices.Grow(s.hopPool, s.hopW)[:off+s.hopW]
	return int32(off)
}

// hopWord returns word w of tile t's hop mask shifted k cycles later:
// bit i says a move may run on t at cycle from+64w+i-k.
func (s *candStream) hopWord(t arch.TileID, k, w int) uint64 {
	off := s.hopReach - k + 64*w
	m := s.hopPool[s.hopOff[t] : int(s.hopOff[t])+s.hopW]
	i, sh := off>>6, uint(off&63)
	v := m[i] >> sh
	if sh != 0 {
		v |= m[i+1] << (64 - sh)
	}
	return v
}

// hopAt reports whether a move may run on t at cycle c, from the hop
// masks when they cover c. Past the window the masks read free: callers
// only ask there about routes that serve no slot in the window.
func (s *candStream) hopAt(p *partial, t arch.TileID, c int) bool {
	if i := c - s.hopOrg; i >= 0 {
		return s.hopPool[int(s.hopOff[t])+i>>6]&(1<<uint(i&63)) != 0
	}
	cx := s.cx
	return cx.cabBlacklist(p)&(1<<uint(t)) == 0 && cx.free(p, nil, t, c) && cx.canProduce(p, nil, t, c)
}

// regCaps lists, per location of a, whether it is register capable. The
// list is scratch, valid until the next call.
func (s *candStream) regCaps(p *partial, a cdfg.NodeID) []bool {
	s.caps = s.caps[:0]
	for _, l := range p.locsOf(a) {
		s.caps = append(s.caps, s.cx.regCapable(p, l))
	}
	return s.caps
}

// reach fills dst (bit i = cycle from+i) with the cycles at which some
// route could deliver operand a, a routed value, to a consumer on tile t:
//   - from a location on t: any cycle after it if it sits in a register
//     or can get one (a register read or retrofitted writeback), else
//     while the output register holds it;
//   - from a neighbour: while the producer's output register holds it;
//   - along a move chain (either shortest path; the first hop reads the
//     producer's output register or, register-capable, runs on the
//     value's own tile): a late chain, arriving just in time, needs every
//     hop free at its distance before the consumer; an early chain,
//     starting right after production, serves MaxHold cycles once it
//     arrives;
//   - recomputed on t the cycle before.
//
// Liveness, register files, the constant pool and the candidate's own
// overlay are ignored: they only remove routes. So every cycle at which
// planOperand succeeds is in dst (TestReachScreenSound).
func (s *candStream) reach(p *partial, a cdfg.NodeID, caps []bool, t arch.TileID, from int, dst []uint64) {
	cx := s.cx
	hold, end := cx.opt.MaxHold, from+64*len(dst)
	clear(dst)
	if cx.opt.Recompute && cx.recomputable(a) {
		for w := range dst {
			dst[w] = s.hopWord(t, 1, w)
		}
	}
	for li, l := range p.locsOf(a) {
		regs := caps[li]
		switch {
		case l.Tile == t && regs:
			setRange(dst, from, l.Cycle+1, math.MaxInt)
			continue
		case l.Tile == t:
			if l.Cycle >= 0 {
				setRange(dst, from, l.Cycle+1, l.Cycle+hold)
			}
			continue
		}
		// Output-register routes serve through l.Cycle+hold plus the hops
		// (the location's due cycle, see argsBound); an early chain
		// serves nothing once its first slot is past the window.
		held := l.Cycle >= 0 && l.Cycle+hold+cx.arena.distance(cx.grid, l.Tile, t) > from
		if !held && !regs {
			continue
		}
		if held && cx.grid.Adjacent(t, l.Tile) {
			setRange(dst, from, l.Cycle+1, l.Cycle+hold)
		}
		for _, path := range cx.paths(l.Tile, t) {
			hops := len(path) - 1 // an output chain's hops; a register chain adds l.Tile
			first := l.Cycle + 1
			out := held && hops > 0
			if out && first+hops < end && s.earlyChain(p, path[:hops], first) {
				setRange(dst, from, first+hops, first+hops-1+hold)
			}
			if regs && first+hops+hold >= from && first+hops < end &&
				s.hopAt(p, l.Tile, first) && s.earlyChain(p, path[:hops], first+1) {
				setRange(dst, from, first+hops+1, first+hops+hold)
			}
			if !out && !regs {
				continue
			}
			// Late chains: path[j] runs hops-j cycles before the
			// consumer, a register chain's first hop on l.Tile hops+1.
			for w := range dst {
				v := ^uint64(0)
				for j, h := range path[:hops] {
					v &= s.hopWord(h, hops-j, w)
				}
				if v == 0 {
					continue
				}
				if out {
					dst[w] |= v & rangeWord(from, w, first+hops, l.Cycle+hold+hops)
				}
				if regs {
					dst[w] |= v & s.hopWord(l.Tile, hops+1, w) & rangeWord(from, w, first+hops+1, math.MaxInt)
				}
			}
		}
	}
}

// earlyChain reports whether moves may run on hops at consecutive
// cycles from first on.
func (s *candStream) earlyChain(p *partial, hops []arch.TileID, first int) bool {
	for i, h := range hops {
		if !s.hopAt(p, h, first+i) {
			return false
		}
	}
	return true
}

// regCapable reports whether location l can serve a register-file read:
// it has a register, or a writeback can still be retrofitted onto its
// producing slot. Only such locations (and recomputes) serve a consumer
// after every output-register hold has expired.
func (cx *bbCtx) regCapable(p *partial, l loc) bool {
	if l.Reg != noReg {
		return true
	}
	return l.Cycle >= 0 && !p.tiles[l.Tile].Slots[l.Cycle].WB && cx.regAvailableAt(p, nil, l.Tile, l.Cycle)
}

// argsBound lower-bounds the operands' summed plan costs for a consumer
// on tile t at cycle cc: the exact pin cost per unpinned symbol, nothing
// per constant, and per routed operand the cheapest route still open. A
// location at distance d serves through output registers until its due
// cycle l.Cycle+max(1,d)−1+MaxHold at (d−1)·costMove; after that only a
// register route at d·costMove remains, if the location is register
// capable, besides a recompute at costRecompute. The bound never falls
// as cc rises; it holds through the returned cycle.
func (s *candStream) argsBound(p *partial, t arch.TileID, cc int) (float64, int) {
	cx := s.cx
	args, until := 0.0, math.MaxInt
	for _, a := range cx.block.Nodes[s.n].Args {
		av := cx.block.Nodes[a]
		switch {
		case av.Op == cdfg.OpConst:
			continue
		case av.Op == cdfg.OpSym && !p.placed(a):
			args += cx.pinCost(t)
			continue
		}
		cost := math.Inf(1)
		if cx.opt.Recompute && cx.recomputable(a) {
			cost = costRecompute
		}
		for _, l := range p.locsOf(a) {
			d := cx.arena.distance(cx.grid, l.Tile, t)
			if due := l.Cycle + max(1, d) - 1 + cx.opt.MaxHold; cc <= due {
				cost = min(cost, costMove*float64(max(0, d-1)))
				until = min(until, due)
			} else if cx.regCapable(p, l) {
				cost = min(cost, costMove*float64(d))
			}
		}
		args += cost
	}
	return args, until
}

// entry keys run ri's current slot by its bound. The terms are summed in
// planCandidate's order, each no larger, so float rounding cannot lift
// the bound over the exact cost.
func (s *candStream) entry(ri int32) slotEntry {
	r := &s.runs[ri]
	p := s.calls[r.call].parent
	if r.at > r.argsTo {
		r.args, r.argsTo = s.argsBound(p, r.tile, r.at)
	}
	key := r.args
	if grow := r.at + 1 - p.maxCycle; grow > 0 {
		key += costCycle * float64(grow)
	}
	key += r.load
	key += r.soft
	return slotEntry{key: p.cost + key, order: slotOrder(r.call, r.at, r.tile), cand: -1, run: ri}
}

// advance moves r to its next slot, reporting false at the run's end.
func (s *candStream) advance(r *slotRun) bool {
	c := &s.calls[r.call]
	m := s.masks[int(r.mask) : int(r.mask)+c.words]
	for ; int(r.word) < len(m); r.word++ {
		if v := m[r.word]; v != 0 {
			m[r.word] = v & (v - 1)
			r.at = c.from + int(r.word)<<6 + bits.TrailingZeros64(v)
			return true
		}
	}
	return false
}

// ready plans bound slots off the top of the heap until an exactly keyed
// one is there (true) or the heap is empty (false). A planned or dropped
// slot hands its place in the heap to its run's next slot.
func (s *candStream) ready() bool {
	if s.dirty {
		s.heapify()
	}
	for len(s.heap) > 0 {
		top := &s.heap[0]
		if top.cand >= 0 {
			return true
		}
		ri := top.run
		r := &s.runs[ri]
		call := &s.calls[r.call]
		s.st.Planned++
		s.cands = append(s.cands, candidate{})
		c := &s.cands[len(s.cands)-1]
		ok := s.cx.planCandidate(call.parent, s.n, r.tile, r.at, call.blacklist, c)
		if !ok {
			s.cands = s.cands[:len(s.cands)-1]
		}
		switch more := s.advance(r); {
		case ok:
			s.rekeyTop(call.parent.cost+c.cost, int32(len(s.cands)-1))
			if more {
				s.push(s.entry(ri))
			}
		case more:
			s.heap[0] = s.entry(ri)
			s.down(0)
		default:
			s.pop()
		}
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
// level. (key, order) is a strict total order (order is unique per slot),
// so the pop order is the sorted order whatever the heap's shape.

// before orders slots by key, then enumeration order.
func (a *slotEntry) before(b *slotEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.order < b.order
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

// push adds e to the ordered heap, sifting it toward the root.
func (s *candStream) push(e slotEntry) {
	s.heap = append(s.heap, e)
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		up := (i - 1) / 4
		if !e.before(&h[up]) {
			break
		}
		h[i] = h[up]
		i = up
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

// Cycle bit masks: bit i of word w stands for cycle org+64w+i.

// fillFree sets m's bit for every cycle in [org, last] at which ts has a
// free slot (cycle ≥ 0, nothing scheduled) and, with produce set, may
// write its output register without clobbering a held value. Bits past
// last are left set.
func fillFree(m []uint64, ts *tileState, org, last int, produce bool) {
	for i := range m {
		m[i] = ^uint64(0)
	}
	if org < 0 {
		clearRange(m, org, org, -1)
	}
	for c := max(org, 0); c < min(len(ts.Slots), last+1); c++ {
		if ts.Slots[c].Kind != SlotEmpty {
			m[(c-org)>>6] &^= 1 << uint((c-org)&63)
		}
	}
	if produce {
		for _, h := range ts.Holds {
			clearRange(m, org, h.Prod+1, h.Last-1)
		}
	}
}

// rangeWord returns word w of the mask of cycles [lo, hi] at origin org.
func rangeWord(org, w, lo, hi int) uint64 {
	base := org + 64*w
	lo, hi = max(lo, base)-base, min(hi, base+63)-base
	if lo > hi {
		return 0
	}
	return ^uint64(0) >> uint(63-hi+lo) << uint(lo)
}

// setRange sets cycles [lo, hi] in m at origin org.
func setRange(m []uint64, org, lo, hi int) {
	lo, hi = max(lo, org), min(hi, org+64*len(m)-1)
	for w := (lo - org) >> 6; lo <= hi && w <= (hi-org)>>6; w++ {
		m[w] |= rangeWord(org, w, lo, hi)
	}
}

// clearRange clears cycles [lo, hi] in m at origin org.
func clearRange(m []uint64, org, lo, hi int) {
	lo, hi = max(lo, org), min(hi, org+64*len(m)-1)
	for w := (lo - org) >> 6; lo <= hi && w <= (hi-org)>>6; w++ {
		m[w] &^= rangeWord(org, w, lo, hi)
	}
}

// and ANDs b into a.
func and(a, b []uint64) {
	for i := range a {
		a[i] &= b[i]
	}
}

// empty reports whether m has no bit set.
func empty(m []uint64) bool {
	for _, v := range m {
		if v != 0 {
			return false
		}
	}
	return true
}

func popcount(m []uint64) int {
	n := 0
	for _, v := range m {
		n += bits.OnesCount64(v)
	}
	return n
}
