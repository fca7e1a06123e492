package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/isa"
)

// minHomeBudget is the least remaining context-memory budget a tile must
// have to host a newly pinned symbol home under a memory-aware flow.
const minHomeBudget = 16

// minHomeHeadroom is the least unconsumed soft budget a tile must retain
// at pin time to accept a new symbol home.
const minHomeHeadroom = 6

// pinStep pins an unpinned symbol's home register to a tile (the register
// index is allocated at apply time).
type pinStep struct {
	Sym  string
	Node cdfg.NodeID
	Tile arch.TileID
}

// argPlan couples one operand with its routing plan.
type argPlan struct {
	Arg  cdfg.NodeID
	Plan routePlan
	Pin  *pinStep
}

// candidate is one feasible binding of a node under a specific partial.
// partialsByCost and candsByCost are concrete sort.Interface adapters:
// both sorts sit on the binder's hot path, where the reflection-based
// sort.SliceStable swapper showed up in profiles.
type partialsByCost []*partial

func (s partialsByCost) Len() int           { return len(s) }
func (s partialsByCost) Less(i, j int) bool { return s[i].cost < s[j].cost }
func (s partialsByCost) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// candsByCost sorts an index permutation instead of the ~64-byte candidate
// structs themselves (the struct swaps dominated the sort in profiles).
// The index tie-break makes the comparison a total order, so the plain
// (unstable) sort yields exactly the permutation sort.Stable produced.
type candsByCost struct {
	cands []candidate
	idx   []int32
}

func (s candsByCost) Len() int { return len(s.idx) }
func (s candsByCost) Less(i, j int) bool {
	a, b := &s.cands[s.idx[i]], &s.cands[s.idx[j]]
	ca, cb := a.parent.cost+a.cost, b.parent.cost+b.cost
	if ca != cb {
		return ca < cb
	}
	return s.idx[i] < s.idx[j]
}
func (s candsByCost) Swap(i, j int) { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }

type candidate struct {
	parent *partial
	node   cdfg.NodeID
	tile   arch.TileID
	cycle  int
	plans  []argPlan
	cost   float64 // delta cost over the parent
}

// scheduleOrder returns the order in which the block's operations are
// bound: a topological order refined by the paper's list-scheduling
// priority — smaller mobility first, then larger fan-out, then node id.
func scheduleOrder(b *cdfg.BasicBlock, s *cdfg.Sched) []cdfg.NodeID {
	return scheduleOrderInto(b, s, cdfg.Users(b), nil)
}

// scheduleOrder on the context reuses the precomputed user lists and the
// arena's order/ready/pending buffers. The returned slice aliases arena
// memory and stays valid until the next mapBlock call on the same arena.
func (cx *bbCtx) scheduleOrder() []cdfg.NodeID {
	return scheduleOrderInto(cx.block, cx.sched, cx.users, cx.arena)
}

func scheduleOrderInto(b *cdfg.BasicBlock, s *cdfg.Sched, users [][]cdfg.NodeID, ar *mapperArena) []cdfg.NodeID {
	var pendingArgs []int
	var ready, order []cdfg.NodeID
	if ar != nil {
		pendingArgs = intsBuf(ar.pending, len(b.Nodes))
		ready = ar.ready[:0]
		order = ar.order[:0]
	} else {
		pendingArgs = make([]int, len(b.Nodes))
	}
	schedulable := func(n *cdfg.Node) bool {
		return n.Op != cdfg.OpConst && n.Op != cdfg.OpSym
	}
	for _, n := range b.Nodes {
		if !schedulable(n) {
			continue
		}
		for _, a := range n.Args {
			if schedulable(b.Nodes[a]) {
				pendingArgs[n.ID]++
			}
		}
	}
	for _, n := range b.Nodes {
		if schedulable(n) && pendingArgs[n.ID] == 0 {
			ready = append(ready, n.ID)
		}
	}
	for len(ready) > 0 {
		best := 0
		for i := 1; i < len(ready); i++ {
			a, c := ready[i], ready[best]
			switch {
			case s.Mobility[a] != s.Mobility[c]:
				if s.Mobility[a] < s.Mobility[c] {
					best = i
				}
			case s.Fanout[a] != s.Fanout[c]:
				if s.Fanout[a] > s.Fanout[c] {
					best = i
				}
			default:
				if a < c {
					best = i
				}
			}
		}
		n := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		order = append(order, n)
		for _, u := range users[n] {
			if !schedulable(b.Nodes[u]) {
				continue
			}
			pendingArgs[u]--
			if pendingArgs[u] == 0 {
				ready = append(ready, u)
			}
		}
	}
	if ar != nil {
		ar.pending, ar.ready, ar.order = pendingArgs, ready, order
	}
	return order
}

// earliestCycle returns the first cycle node n could possibly execute in
// partial p, given its operands' current locations.
func (cx *bbCtx) earliestCycle(p *partial, n cdfg.NodeID) int {
	earliest := 0
	for _, a := range cx.block.Nodes[n].Args {
		av := cx.argAvail(p, a)
		if av > earliest {
			earliest = av
		}
	}
	return earliest
}

// argAvail returns the earliest cycle the value of node a can be consumed
// anywhere on the array.
func (cx *bbCtx) argAvail(p *partial, a cdfg.NodeID) int {
	nd := cx.block.Nodes[a]
	switch nd.Op {
	case cdfg.OpConst, cdfg.OpSym:
		// Symbol homes, pinned already or at first use, are readable from
		// cycle 0.
		return 0
	}
	best := math.MaxInt
	for _, l := range p.locs[a] {
		v := l.Cycle + 1
		if v < 0 {
			v = 0
		}
		if v < best {
			best = v
		}
	}
	if best == math.MaxInt {
		return 0
	}
	return best
}

// frontier returns the cycle below which no future instruction other than
// already-planned ones can start: the minimum earliest cycle over unbound
// operations (estimated through unbound chains).
func (cx *bbCtx) frontierOf(p *partial, unbound []cdfg.NodeID) int {
	// est/mark are arena-owned stamped arrays indexed by node id; mark[n]
	// == gen stands in for map membership without a per-call allocation.
	est, mark, gen := cx.arena.frontierBegin(len(cx.block.Nodes))
	front := math.MaxInt
	for _, n := range unbound { // unbound is in topological order
		e := 0
		for _, a := range cx.block.Nodes[n].Args {
			var av int
			if mark[a] == gen {
				av = est[a] + 1
			} else {
				av = cx.argAvail(p, a)
			}
			if av > e {
				e = av
			}
		}
		est[n] = e
		mark[n] = gen
		if e < front {
			front = e
		}
	}
	if front == math.MaxInt {
		return p.maxCycle
	}
	return front
}

// cabBlacklist returns the bitmask of tiles that cannot accept another
// instruction under the remaining context-memory budget (§III-D4). The
// mask is a pure function of the partial's binding state, so it is cached
// on the partial and recomputed only after a mutation (touch).
func (cx *bbCtx) cabBlacklist(p *partial) uint32 {
	if !cx.cab {
		return 0
	}
	if p.blValid {
		return p.blMask
	}
	var mask uint32
	owed := cx.pendingWB(p)
	for t := range p.tiles {
		w := p.words(arch.TileID(t), p.maxCycle, false)
		if w > 0 {
			w++ // potential trailing pnop
		} else if p.maxCycle > 0 {
			w = 1
		}
		if owed != nil {
			w += int(owed[t])
		}
		if w >= cx.budget[t] {
			mask |= 1 << uint(t)
		}
	}
	p.blMask = mask
	p.blValid = true
	return mask
}

// genCandidates enumerates feasible bindings of node n under partial p at
// cycles [base+lo, base+hi], where base is n's earliest cycle. With tail
// set, base moves to the end of the partial's current schedule if that is
// later — where slots are free on every tile, the last-resort reroute
// region — and cycles up to earliest+MaxSlack are skipped: a tail pass
// only runs after the non-tail passes of its bind step scanned that whole
// window and found nothing.
//
// Callers widen a window by passing lo = previous hi + 1, so no (partial,
// tile, cycle) is planned twice in one bind step. This is exact: within a
// bind step the partial, its earliest cycle, its CAB blacklist and
// planCandidate's result at every (tile, cycle) are all fixed, and cycles
// are the outer loop, so the split passes append the same candidates in
// the same order one scan of the whole window would.
func (cx *bbCtx) genCandidates(p *partial, n cdfg.NodeID, lo, hi int, tail bool, out []candidate) []candidate {
	nd := cx.block.Nodes[n]
	blacklist := cx.cabBlacklist(p)
	earliest := cx.earliestCycle(p, n)
	base := earliest
	if tail && p.maxCycle > base {
		base = p.maxCycle
	}
	from := base + lo
	if tail && from <= earliest+cx.opt.MaxSlack {
		from = earliest + cx.opt.MaxSlack + 1
	}
	produces := nd.Op.HasResult()
	for cc := from; cc <= base+hi; cc++ {
		for t := 0; t < cx.grid.NumTiles(); t++ {
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
			out = append(out, candidate{})
			if !cx.planCandidate(p, n, tid, cc, blacklist, &out[len(out)-1]) {
				out = out[:len(out)-1]
			}
		}
	}
	return out
}

// planCandidate plans the routing of every operand of n to (t, cc),
// filling *cand. On false the candidate is unusable and must be dropped.
func (cx *bbCtx) planCandidate(p *partial, n cdfg.NodeID, t arch.TileID, cc int, blacklist uint32, cand *candidate) bool {
	ar := cx.arena
	nd := cx.block.Nodes[n]
	o := ar.overlayReset()
	o.claim(t, cc, nd.Op.HasResult())
	*cand = candidate{parent: p, node: n, tile: t, cycle: cc}
	cand.plans = ar.plans.take(len(nd.Args))
	// pinnedHere tracks symbols pinned by an earlier operand of this same
	// candidate; a node has at most isa.MaxSrcs operands, so a fixed
	// array beats the map the old hot path allocated per candidate.
	var pinnedHere [isa.MaxSrcs]string
	nPinned := 0
	for _, a := range nd.Args {
		cand.plans = append(cand.plans, argPlan{Arg: a})
		ap := &cand.plans[len(cand.plans)-1]
		av := cx.block.Nodes[a]
		if av.Op == cdfg.OpSym && len(p.locs[a]) == 0 {
			// Unpinned symbol: pin its home on the consuming tile. A
			// repeated operand reuses the pin from the earlier operand.
			// A home is a long-lived commitment — every defining block
			// sends a writeback there — so under constraint-aware
			// binding, tiles whose soft context budget is small, or
			// already mostly consumed by this block, cannot host one.
			if cx.cab && (cx.soft[t] < minHomeBudget ||
				cx.soft[t]-p.words(t, p.maxCycle, false) < minHomeHeadroom) {
				return false
			}
			already := false
			for i := 0; i < nPinned; i++ {
				if pinnedHere[i] == av.Sym {
					already = true
					break
				}
			}
			if !already {
				if !cx.freshRegAvailable(p, o, t) {
					return false
				}
				o.addReg(t)
				pinnedHere[nPinned] = av.Sym
				nPinned++
			}
			pin := ar.pins.take(1)
			pin = append(pin, pinStep{Sym: av.Sym, Node: a, Tile: t})
			ap.Pin = &pin[0]
			ap.Plan = routePlan{
				Src:   isa.Src{Kind: isa.SrcReg}, // register resolved at apply
				Reads: append(ar.reads.take(1), regRead{Tile: t, Reg: -2, Cycle: cc}),
				Cost:  costRegAlloc,
			}
			if b := cx.soft[t]; cx.cab && b < unconstrained && b < 48 {
				ap.Plan.Cost += 1.5 * (1 - float64(b)/48)
			}
		} else {
			if !cx.planOperand(p, o, a, t, cc, blacklist, &ap.Plan) {
				return false
			}
			o.merge(&ap.Plan)
		}
		cand.cost += ap.Plan.Cost
	}
	if grow := cc + 1 - p.maxCycle; grow > 0 {
		cand.cost += costCycle * float64(grow)
	}
	// A multi-consumer value placed where no register can be allocated
	// risks dying once the output register is clobbered; steer away.
	if nd.Op.HasResult() && cx.wantsWriteback(n) && !cx.regAvailableAt(p, o, t, cc) {
		cand.cost += 3.0
	}
	// Energy-aware placement: each instruction on a tile costs one
	// context fetch per execution, quadratic in the tile's CM depth.
	if cx.opt.EnergyAware {
		for _, tt := range cx.affectedTiles(cand, t) {
			cm := float64(cx.grid.Tile(tt).CMWords)
			cand.cost += cx.opt.EnergyWeight * cm * cm / 4096
		}
	}
	// Mild load-balance pressure: hot tiles should not absorb everything
	// (the latency-driven spreading of the basic binder).
	cand.cost += 0.015 * float64(p.tiles[t].Ops+p.tiles[t].Moves)
	// Constraint-aware binding steers away from tiles whose context
	// memory is filling up, before the hard pruning filters have to
	// reject, and prefers placements that do not fragment the schedule
	// into extra pnop groups. The plain ACMAP/ECMAP flows bind exactly
	// like the basic flow and rely on pruning alone, which is what
	// separates the paper's Figs 6-8.
	if cx.cab {
		gapDelta := p.tiles[t].wordsIfOccupied(cc, p.maxCycle) -
			p.words(t, p.maxCycle, false) - 1
		if gapDelta > 0 {
			cand.cost += 0.4 * float64(gapDelta)
		}
		for _, tt := range cx.affectedTiles(cand, t) {
			if cx.soft[tt] >= unconstrained {
				continue
			}
			soft := cx.soft[tt]
			if soft < 1 {
				soft = 1
			}
			proj := float64(p.words(tt, p.maxCycle, false) + 1)
			frac := proj / float64(soft)
			if frac > 0.5 {
				cand.cost += 6 * (frac - 0.5)
			}
		}
	}
	return true
}

// affectedTiles lists the tiles receiving an instruction from the
// candidate: the op tile plus every move/recompute hop. The result lives
// in an arena scratch buffer valid until the next affectedTiles call.
func (cx *bbCtx) affectedTiles(cand *candidate, op arch.TileID) []arch.TileID {
	tiles := append(cx.arena.affTiles[:0], op)
	for _, ap := range cand.plans {
		for _, m := range ap.Plan.Moves {
			tiles = append(tiles, m.Tile)
		}
		if ap.Plan.Recomp != nil {
			tiles = append(tiles, ap.Plan.Recomp.Tile)
		}
	}
	cx.arena.affTiles = tiles
	return tiles
}

// apply realizes the candidate on a recycled deep copy of the parent.
func (cx *bbCtx) apply(cand *candidate, st *Stats) *partial {
	p := cx.arena.getPartial()
	cx.arena.cloneInto(p, cand.parent)
	nd := cx.block.Nodes[cand.node]
	var srcs [isa.MaxSrcs]isa.Src
	for i := range cand.plans {
		srcs[i] = cx.applyPlan(p, &cand.plans[i], st)
	}
	// Place the operation itself. (Stores and branches get the same
	// sentinel location so placed() works, though nothing consumes them.)
	ts := &p.tiles[cand.tile]
	slot := ts.slotAt(cand.cycle)
	*slot = Slot{Kind: SlotOp, Node: cand.node, Srcs: srcs, NSrc: len(cand.plans)}
	ts.Ops++
	ts.dirty()
	p.bump(cand.cycle)
	reg := noReg
	if nd.Op.HasResult() && cx.wantsWriteback(cand.node) {
		// Eager writeback: keep the value alive in the register file so
		// later consumers can reach it after the output register is
		// clobbered. Skipped when the file is full.
		if r := p.allocRegAt(cx.grid.RRFSize, cand.tile, cand.cycle, false); r != noReg {
			slot.WB = true
			slot.WReg = uint8(r)
			reg = r
		}
	}
	p.locs[cand.node] = append(p.locs[cand.node], loc{Tile: cand.tile, Cycle: cand.cycle, Reg: reg})
	p.cost += cand.cost
	cx.releaseDeadRegs(p, nd)
	p.touch()
	return p
}

// releaseDeadRegs frees the registers of operand values whose in-block
// consumers are now all placed and which no live-out symbol needs; their
// registers recycle for later values (subject to read/write hazards
// recorded in regLastRead/regLastWrite).
func (cx *bbCtx) releaseDeadRegs(p *partial, nd *cdfg.Node) {
	for _, a := range nd.Args {
		an := cx.block.Nodes[a]
		if an.Op == cdfg.OpConst || an.Op == cdfg.OpSym || cx.liveOutValues[a] {
			continue
		}
		done := true
		for _, u := range cx.users[a] {
			if !p.placed(u) {
				done = false
				break
			}
		}
		if !done {
			continue
		}
		for i := range p.locs[a] {
			l := &p.locs[a][i]
			if l.Reg != noReg {
				p.freeReg(l.Tile, l.Reg)
				l.Reg = noReg
			}
		}
	}
}

// wantsWriteback reports whether a node's value should be retained in the
// register file: it has consumers or defines a live-out symbol.
func (cx *bbCtx) wantsWriteback(n cdfg.NodeID) bool {
	return len(cx.users[n]) > 0 || cx.liveOutValues[n]
}

// applyPlan realizes one operand plan on the cloned partial and returns
// the operand source the consuming instruction uses.
func (cx *bbCtx) applyPlan(p *partial, ap *argPlan, st *Stats) isa.Src {
	pl := &ap.Plan
	src := pl.Src
	if ap.Pin != nil {
		var r int8
		if h, ok := p.newHomes[ap.Pin.Sym]; ok && h.Tile == ap.Pin.Tile {
			// Pinned moments ago by a sibling operand of this candidate.
			r = int8(h.Reg)
		} else {
			r = p.allocRegAt(cx.grid.RRFSize, ap.Pin.Tile, symHomeCycle, true)
			if r == noReg {
				panic("core: pin plan accepted without a fresh register")
			}
			if p.newHomes == nil {
				p.newHomes = map[string]SymLoc{}
			}
			p.newHomes[ap.Pin.Sym] = SymLoc{Tile: ap.Pin.Tile, Reg: uint8(r)}
			p.locs[ap.Pin.Node] = append(p.locs[ap.Pin.Node], loc{Tile: ap.Pin.Tile, Cycle: symHomeCycle, Reg: r})
		}
		src = isa.Reg(uint8(r))
		for _, rd := range pl.Reads {
			reg := rd.Reg
			if reg == -2 {
				reg = r
			}
			p.noteRead(cx.grid.RRFSize, rd.Tile, reg, rd.Cycle)
		}
		return src
	}
	// A retrofitted writeback allocates its register first so placeholder
	// register operands (in moves and in the consumer source) resolve.
	retroReg := noReg
	if pl.Retro != nil {
		ts := &p.tiles[pl.Retro.Tile]
		retroReg = p.allocRegAt(cx.grid.RRFSize, pl.Retro.Tile, pl.Retro.Cycle, false)
		if retroReg == noReg {
			panic("core: retro plan accepted without a free register")
		}
		slot := ts.slotAt(pl.Retro.Cycle)
		slot.WB = true
		slot.WReg = uint8(retroReg)
		// Update the matching location with its new register.
		for i := range p.locs[ap.Arg] {
			l := &p.locs[ap.Arg][i]
			if l.Tile == pl.Retro.Tile && l.Cycle == pl.Retro.Cycle {
				l.Reg = retroReg
			}
		}
	}
	resolveReg := func(s isa.Src) isa.Src {
		if s.Kind == isa.SrcReg && s.Reg == retroPlaceholder {
			if retroReg == noReg {
				panic("core: placeholder register without a retro writeback")
			}
			s.Reg = uint8(retroReg)
		}
		return s
	}
	src = resolveReg(src)
	for _, m := range pl.Moves {
		ts := &p.tiles[m.Tile]
		slot := ts.slotAt(m.Cycle)
		*slot = Slot{Kind: SlotMove, Node: ap.Arg, Srcs: [isa.MaxSrcs]isa.Src{resolveReg(m.Src)}, NSrc: 1}
		ts.Moves++
		ts.dirty()
		p.moves++
		p.bump(m.Cycle)
		p.locs[ap.Arg] = append(p.locs[ap.Arg], loc{Tile: m.Tile, Cycle: m.Cycle, Reg: noReg})
	}
	if pl.Recomp != nil {
		rc := pl.Recomp
		ts := &p.tiles[rc.Tile]
		slot := ts.slotAt(rc.Cycle)
		*slot = Slot{Kind: SlotOp, Node: rc.Node, Srcs: rc.Srcs, NSrc: rc.NSrc, Dup: true}
		ts.Ops++
		ts.dirty()
		p.recomputes++
		if st != nil {
			st.Recomputes++
		}
		p.bump(rc.Cycle)
		p.locs[ap.Arg] = append(p.locs[ap.Arg], loc{Tile: rc.Tile, Cycle: rc.Cycle, Reg: noReg})
	}
	for _, h := range pl.Holds {
		p.tiles[h.Tile].addHold(h.Prod, h.Last)
	}
	for _, rd := range pl.Reads {
		reg := rd.Reg
		if reg == -2 {
			reg = retroReg
		}
		p.noteRead(cx.grid.RRFSize, rd.Tile, reg, rd.Cycle)
	}
	for _, c := range pl.Consts {
		if !p.tiles[c.Tile].internConst(c.Val, cx.opt.MaxCRF) {
			panic("core: const plan accepted without CRF capacity")
		}
	}
	return src
}

// diagnose renders why a node is hard to bind under one representative
// partial: the operand locations and per-tile pressure.
func (cx *bbCtx) diagnose(p *partial, n cdfg.NodeID) string {
	var sb []byte
	add := func(format string, args ...any) { sb = fmt.Appendf(sb, format, args...) }
	add("  earliest=%d maxCycle=%d\n", cx.earliestCycle(p, n), p.maxCycle)
	for _, a := range cx.block.Nodes[n].Args {
		add("  arg n%d (%s): locs", a, cx.block.Nodes[a].Op)
		for _, l := range p.locs[a] {
			add(" (t%d,c%d,r%d)", l.Tile+1, l.Cycle, l.Reg)
		}
		add("\n")
	}
	for t := range p.tiles {
		ts := &p.tiles[t]
		add("  t%d: ops=%d moves=%d regs=%d/%d budget=%d holds=%v\n",
			t+1, ts.Ops, ts.Moves, cx.grid.RRFSize-ts.freeRegs(cx.grid.RRFSize),
			cx.grid.RRFSize, cx.budget[t], ts.Holds)
	}
	return string(sb)
}

// memReport renders per-tile context-word pressure for diagnostics,
// listing the offending instructions of overflowing tiles.
func (cx *bbCtx) memReport(p *partial) string {
	var sb []byte
	for t := range p.tiles {
		w := p.words(arch.TileID(t), p.maxCycle, true)
		sb = fmt.Appendf(sb, "  t%d: words=%d(+trail %d) budget=%d",
			t+1, p.words(arch.TileID(t), p.maxCycle, false), w, cx.budget[t])
		if w > cx.budget[t] {
			for c, sl := range p.tiles[t].Slots {
				if sl.Kind != SlotEmpty {
					sb = fmt.Appendf(sb, " [c%d %d n%d wb=%v]", c, sl.Kind, sl.Node, sl.WB)
				}
			}
		}
		sb = append(sb, '\n')
	}
	return string(sb)
}

// violation names the first tile violating the in-flight memory filters.
func (cx *bbCtx) violation(p *partial) string {
	owed := cx.pendingWB(p)
	for t := range p.tiles {
		w := p.words(arch.TileID(t), p.maxCycle, false)
		if w > 0 {
			w++
		} else if p.maxCycle > 0 {
			w = 1
		}
		if owed != nil {
			w += int(owed[t])
		}
		if w > cx.budget[t] {
			return fmt.Sprintf("t%d=%d/%d", t+1, w, cx.budget[t])
		}
	}
	return "?"
}

// pendingWB returns, per tile, how many live-out symbol writebacks are
// still owed to home registers on that tile — each will need up to one
// more context word at finalize.
func (cx *bbCtx) pendingWB(p *partial) []int8 {
	// The counts live in a single arena scratch buffer: callers consume
	// the result before any further pendingWB call, and only one mapper
	// goroutine ever uses an arena.
	var owed []int8
	for s, def := range cx.block.LiveOut {
		h, ok := cx.lookupHome(p, s)
		if !ok {
			continue
		}
		if p.writeCycle(cx.grid.RRFSize, h.Tile, int8(h.Reg)) != noWrite {
			continue // already written (retrofit or identity carry)
		}
		// The identity carry needs no writeback.
		if nd := cx.block.Nodes[def]; nd.Op == cdfg.OpSym && nd.Sym == s {
			continue
		}
		if owed == nil {
			owed = cx.arena.owedBuf(cx.grid.NumTiles())
		}
		owed[h.Tile]++
	}
	return owed
}

// acmapOK implements the approximate context-memory aware pruning filter
// (§III-D2): per tile, committed instructions plus the approximate pnop
// count (leading and interior gaps of the current partial schedule) must
// fit the remaining budget. The estimate tracks the schedule so far and is
// approximate with respect to the final block schedule in both directions.
// During mapping (reserve set) a word is reserved per pending live-out
// writeback on its home tile.
func (cx *bbCtx) acmapOK(p *partial, reserve bool) bool {
	var owed []int8
	if reserve {
		owed = cx.pendingWB(p)
	}
	for t := range p.tiles {
		w := p.words(arch.TileID(t), p.maxCycle, false)
		if owed != nil {
			w += int(owed[t])
		}
		if w > cx.budget[t] {
			return false
		}
	}
	return true
}

// ecmapOK implements the exact context-memory aware pruning filter
// (§III-D3): per tile, the exact context-word count of the schedule as it
// stands — including the trailing pnop each lagging tile needs to idle to
// the current makespan — must fit the remaining budget. During mapping
// (reserve set) a word is reserved per pending live-out writeback.
func (cx *bbCtx) ecmapOK(p *partial, reserve bool) bool {
	return cx.ecmapOKHeadroom(p, reserve, reserve)
}

// ecmapOKHeadroom lets the caller drop the trailing-headroom and pending-
// writeback charges near the end of a block, where all future
// instructions are known and the finalize check is the authority (a
// writeback can often retrofit into an existing slot at no word cost).
func (cx *bbCtx) ecmapOKHeadroom(p *partial, reserve, headroom bool) bool {
	var owed []int8
	if reserve && headroom {
		owed = cx.pendingWB(p)
	}
	for t := range p.tiles {
		var w int
		if headroom {
			// While mapping, a growing makespan can still hand any active
			// tile a trailing pnop, so one word of headroom is charged
			// beyond the interior count; idle tiles owe their whole-block
			// pnop.
			w = p.words(arch.TileID(t), p.maxCycle, false)
			if w > 0 {
				w++
			} else if p.maxCycle > 0 {
				w = 1
			}
		} else {
			w = p.words(arch.TileID(t), p.maxCycle, true)
		}
		if owed != nil {
			w += int(owed[t])
		}
		if w > cx.budget[t] {
			return false
		}
	}
	return true
}

// stochasticPrune bounds the beam: the best detFraction of the beam is
// kept deterministically by cost, the rest of the slots are filled by
// rank-weighted sampling (the paper's threshold function).
func stochasticPrune(parts []*partial, beam int, detFrac float64, rng *rand.Rand, st *Stats, ar *mapperArena) []*partial {
	// parts aliases the arena's children buffer, so the surviving beam is
	// always copied into a fresh slice; partials that don't survive go
	// straight back to the arena's free list.
	if len(parts) <= beam {
		return append(make([]*partial, 0, len(parts)), parts...)
	}
	sort.Stable(partialsByCost(parts))
	det := int(float64(beam) * detFrac)
	if det > beam {
		det = beam
	}
	kept := append(make([]*partial, 0, beam), parts[:det]...)
	rest := parts[det:]
	need := beam - det
	for need > 0 && len(rest) > 0 {
		// Rank-weighted threshold: earlier (cheaper) partials are
		// exponentially more likely to survive.
		w := ar.weights[:0]
		total := 0.0
		for i := range rest {
			wi := math.Exp(-float64(i) / float64(len(rest)))
			w = append(w, wi)
			total += wi
		}
		ar.weights = w
		x := rng.Float64() * total
		pick := 0
		for i := range w {
			x -= w[i]
			if x <= 0 {
				pick = i
				break
			}
		}
		kept = append(kept, rest[pick])
		rest = append(rest[:pick], rest[pick+1:]...)
		need--
	}
	st.PrunedStochastic += len(rest)
	for _, p := range rest {
		ar.putPartial(p)
	}
	return kept
}

// mapBlock runs the combined scheduling/binding beam search for one basic
// block, returning finalized partials (already filtered by the flow's
// memory constraints). The caller commits the best one.
func (cx *bbCtx) mapBlock(init *partial, rng *rand.Rand, st *Stats) ([]*partial, error) {
	ar := cx.arena
	tSched := time.Now()
	order := cx.scheduleOrder()
	st.Phases.Schedule += time.Since(tSched)
	beam := []*partial{init}
	cands := ar.cands[:0]
	defer func() { ar.cands = cands[:0] }()
	for oi, n := range order {
		// New bind step: the plan chunks from the previous node are dead
		// (children copied what they keep).
		ar.bindReset()
		window := cx.opt.SlackWindow
		cands = cands[:0]
		tail := false
		tRoute := time.Now()
		// Each pass scans only the offsets [lo, window] the previous
		// passes left out; it widens only when the whole beam yielded
		// nothing (see genCandidates).
		lo := 0
		for {
			for _, p := range beam {
				cands = cx.genCandidates(p, n, lo, window, tail, cands)
			}
			if len(cands) > 0 {
				break
			}
			lo = window + 1
			if window >= cx.opt.MaxSlack {
				if !tail {
					// Last resort: bind past the current makespan, where
					// every tile has free slots (the reroute region).
					tail = true
					lo, window = 0, cx.opt.SlackWindow
					st.Retries++
					continue
				}
				return nil, fmt.Errorf("core: no binding for node n%d (%s) in block %q under flow %s\n%s",
					n, cx.block.Nodes[n].Op, cx.block.Name, cx.opt.Flow, cx.diagnose(beam[0], n))
			}
			window *= 2
			if window > cx.opt.MaxSlack {
				window = cx.opt.MaxSlack
			}
			st.Retries++
		}
		st.Phases.Route += time.Since(tRoute)
		// The exact binder can enumerate hundreds of placements; rank by
		// accumulated cost and realize only the most promising.
		tBind := time.Now()
		perm := ar.candIdx[:0]
		for i := range cands {
			perm = append(perm, int32(i))
		}
		ar.candIdx = perm
		sort.Sort(candsByCost{cands: cands, idx: perm})
		// Realize candidates best-first until enough children survive the
		// memory filters (the cap bounds survivors, so a run of filtered
		// placements does not exhaust the binder's patience).
		limit := cx.opt.CandidateCap
		children := ar.children[:0]
		acPruned, ecPruned := 0, 0
		unbound := order[oi+1:]
		var sampleViol []string
		for _, ci := range perm {
			if len(children) >= limit {
				break
			}
			child := cx.apply(&cands[ci], st)
			st.Partials++
			if cx.opt.Flow >= FlowACMAP && !cx.acmapOK(child, true) {
				acPruned++
				if len(sampleViol) < 4 {
					sampleViol = append(sampleViol, "acmap:"+cx.violation(child))
				}
				ar.putPartial(child)
				continue
			}
			if cx.opt.Flow >= FlowECMAP {
				// The paper runs the exact filter at each cycle boundary;
				// checking every binding is equivalent but catches
				// violating partials before they waste beam slots.
				child.checkedTo = cx.frontierOf(child, unbound)
				if !cx.ecmapOKHeadroom(child, true, len(unbound) > 3) {
					ecPruned++
					if len(sampleViol) < 4 {
						sampleViol = append(sampleViol, "ecmap:"+cx.violation(child))
					}
					ar.putPartial(child)
					continue
				}
			}
			children = append(children, child)
		}
		ar.children = children[:0]
		st.PrunedACMAP += acPruned
		st.PrunedECMAP += ecPruned
		st.Phases.Bind += time.Since(tBind)
		if len(children) == 0 {
			return nil, fmt.Errorf("core: all %d bindings of node n%d in block %q violate memory constraints (flow %s) %v\n%s",
				len(cands), n, cx.block.Name, cx.opt.Flow, sampleViol, cx.memReport(cands[perm[0]].parent))
		}
		tPrune := time.Now()
		newBeam := stochasticPrune(children, cx.opt.BeamWidth, cx.opt.DetFraction, rng, st, ar)
		// The old beam (the children's parents) is fully superseded.
		for _, p := range beam {
			ar.putPartial(p)
		}
		beam = newBeam
		st.Phases.Prune += time.Since(tPrune)
	}
	tFin := time.Now()
	// Finalize: symbol writebacks and pnop accounting. The ECMAP and CAB
	// flows verify the finalized block exactly; the ACMAP-only flow keeps
	// its approximate filter here too, so blocks that do not actually fit
	// can be committed — such mappings are rejected by the final
	// whole-program check, reproducing the invalid-mapping abundance the
	// paper reports for the ACMAP-only flow.
	var done []*partial
	var lastErr error
	for _, p := range beam {
		if err := cx.finalize(p); err != nil {
			lastErr = err
			ar.putPartial(p)
			continue
		}
		switch {
		case cx.opt.Flow >= FlowECMAP && !cx.ecmapOK(p, false):
			lastErr = fmt.Errorf("core: finalized block %q overflows context memory\n%s", cx.block.Name, cx.memReport(p))
			ar.putPartial(p)
			continue
		case cx.opt.Flow == FlowACMAP && !cx.acmapOK(p, false):
			lastErr = fmt.Errorf("core: finalized block %q overflows context memory (approximate)\n%s", cx.block.Name, cx.memReport(p))
			ar.putPartial(p)
			continue
		}
		done = append(done, p)
	}
	st.Phases.Finalize += time.Since(tFin)
	if len(done) == 0 {
		if lastErr == nil {
			lastErr = fmt.Errorf("core: no finalized mapping for block %q", cx.block.Name)
		}
		return nil, lastErr
	}
	return done, nil
}
