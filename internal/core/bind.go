package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
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
type candidate struct {
	parent *partial
	node   cdfg.NodeID
	tile   arch.TileID
	cycle  int
	plans  []argPlan
	cost   float64 // delta cost over the parent
}

// recomputes counts the recompute transformations the candidate applies.
func (c *candidate) recomputes() int {
	n := 0
	for i := range c.plans {
		if c.plans[i].Plan.Recomp != nil {
			n++
		}
	}
	return n
}

// scheduleOrder on the context reuses the precomputed user lists and the
// arena's order/ready/pending buffers. The returned slice aliases arena
// memory and stays valid until the next mapBlock call on the same arena.
func (cx *bbCtx) scheduleOrder() []cdfg.NodeID {
	return scheduleOrderInto(cx.block, cx.sched, cx.users, cx.arena)
}

// scheduleOrderInto returns the order in which the block's operations are
// bound: a topological order refined by the paper's list-scheduling
// priority — smaller mobility first, then larger fan-out, then node id.
// A nil arena allocates the result.
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
	for _, l := range p.locsOf(a) {
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
	f := &cx.arena.fp
	cx.footprintOf(p, f)
	for t := range p.tiles {
		if f.headroom(t) >= cx.budget[t] {
			mask |= 1 << uint(t)
		}
	}
	p.blMask = mask
	p.blValid = true
	return mask
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
		if av.Op == cdfg.OpSym && !p.placed(a) {
			// Unpinned symbol: pin its home on the consuming tile. A
			// repeated operand reuses the pin from the earlier operand.
			// A home is a long-lived commitment — every defining block
			// sends a writeback there — so under constraint-aware
			// binding, tiles whose soft context budget is small, or
			// already mostly consumed by this block, cannot host one.
			if cx.cab && (cx.soft[t] < minHomeBudget ||
				cx.soft[t]-p.tiles[t].words(p.maxCycle, false) < minHomeHeadroom) {
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
				Cost:  cx.pinCost(t),
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
	cand.cost += cx.loadCost(p, t)
	// Constraint-aware binding steers away from tiles whose context
	// memory is filling up, before the hard pruning filters have to
	// reject, and prefers placements that do not fragment the schedule
	// into extra pnop groups. The plain ACMAP/ECMAP flows bind exactly
	// like the basic flow and rely on pruning alone, which is what
	// separates the paper's Figs 6-8.
	if cx.cab {
		gapDelta := p.tiles[t].wordsIfOccupied(cc) -
			p.tiles[t].words(p.maxCycle, false) - 1
		if gapDelta > 0 {
			cand.cost += 0.4 * float64(gapDelta)
		}
		for _, tt := range cx.affectedTiles(cand, t) {
			cand.cost += cx.softCost(p, tt)
		}
	}
	return true
}

// pinCost is the plan cost of pinning a symbol home on tile t.
func (cx *bbCtx) pinCost(t arch.TileID) float64 {
	c := costRegAlloc
	if b := cx.soft[t]; cx.cab && b < unconstrained && b < 48 {
		c += 1.5 * (1 - float64(b)/48)
	}
	return c
}

// loadCost is the mild load-balance pressure of tile t: hot tiles should
// not absorb everything (the latency-driven spreading of the basic
// binder).
func (cx *bbCtx) loadCost(p *partial, t arch.TileID) float64 {
	return 0.015 * float64(p.tiles[t].Ops+p.tiles[t].Moves)
}

// softCost is the constraint-aware binding's pressure against giving t
// another instruction once its soft budget is more than half used.
func (cx *bbCtx) softCost(p *partial, t arch.TileID) float64 {
	if !cx.cab || cx.soft[t] >= unconstrained {
		return 0
	}
	frac := float64(p.tiles[t].words(p.maxCycle, false)+1) / float64(max(cx.soft[t], 1))
	if frac <= 0.5 {
		return 0
	}
	return 6 * (frac - 0.5)
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

// apply realizes the candidate on a recycled copy of the parent that
// shares the parent's buffers until it writes them.
func (cx *bbCtx) apply(cand *candidate) *partial {
	p := cx.arena.getPartial()
	cx.arena.cloneInto(p, cand.parent)
	nd := cx.block.Nodes[cand.node]
	var srcs [isa.MaxSrcs]isa.Src
	for i := range cand.plans {
		srcs[i] = cx.applyPlan(p, &cand.plans[i])
	}
	// Place the operation itself. (Stores and branches get the same
	// sentinel location so placed() works, though nothing consumes them.)
	ts := p.tileW(cand.tile)
	slot := ts.occupy(cand.cycle)
	*slot = Slot{Kind: SlotOp, Node: cand.node, Srcs: srcs, NSrc: len(cand.plans)}
	ts.Ops++
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
	p.addLoc(cand.node, loc{Tile: cand.tile, Cycle: cand.cycle, Reg: reg})
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
		var ls []loc // the private copy, made at the first register freed
		for i, l := range p.locsOf(a) {
			if l.Reg == noReg {
				continue
			}
			p.freeReg(l.Tile, l.Reg)
			if ls == nil {
				ls = p.locsW(a)
			}
			ls[i].Reg = noReg
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
func (cx *bbCtx) applyPlan(p *partial, ap *argPlan) isa.Src {
	pl := &ap.Plan
	src := pl.Src
	if ap.Pin != nil {
		var r int8
		if h, ok := p.newHome(ap.Pin.Sym); ok && h.Tile == ap.Pin.Tile {
			// Pinned moments ago by a sibling operand of this candidate.
			r = int8(h.Reg)
		} else {
			r = p.allocRegAt(cx.grid.RRFSize, ap.Pin.Tile, symHomeCycle, true)
			if r == noReg {
				panic("core: pin plan accepted without a fresh register")
			}
			p.pinHome(ap.Pin.Sym, SymLoc{Tile: ap.Pin.Tile, Reg: uint8(r)})
			p.addLoc(ap.Pin.Node, loc{Tile: ap.Pin.Tile, Cycle: symHomeCycle, Reg: r})
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
		retroReg = p.allocRegAt(cx.grid.RRFSize, pl.Retro.Tile, pl.Retro.Cycle, false)
		if retroReg == noReg {
			panic("core: retro plan accepted without a free register")
		}
		slot := p.tileW(pl.Retro.Tile).slotAt(pl.Retro.Cycle)
		slot.WB = true
		slot.WReg = uint8(retroReg)
		// Update the matching location with its new register.
		var ls []loc
		for i, l := range p.locsOf(ap.Arg) {
			if l.Tile == pl.Retro.Tile && l.Cycle == pl.Retro.Cycle {
				if ls == nil {
					ls = p.locsW(ap.Arg)
				}
				ls[i].Reg = retroReg
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
		ts := p.tileW(m.Tile)
		slot := ts.occupy(m.Cycle)
		*slot = Slot{Kind: SlotMove, Node: ap.Arg, Srcs: [isa.MaxSrcs]isa.Src{resolveReg(m.Src)}, NSrc: 1}
		ts.Moves++
		p.moves++
		p.bump(m.Cycle)
		p.addLoc(ap.Arg, loc{Tile: m.Tile, Cycle: m.Cycle, Reg: noReg})
	}
	if pl.Recomp != nil {
		rc := pl.Recomp
		ts := p.tileW(rc.Tile)
		slot := ts.occupy(rc.Cycle)
		*slot = Slot{Kind: SlotOp, Node: rc.Node, Srcs: rc.Srcs, NSrc: rc.NSrc, Dup: true}
		ts.Ops++
		p.recomputes++
		p.bump(rc.Cycle)
		p.addLoc(ap.Arg, loc{Tile: rc.Tile, Cycle: rc.Cycle, Reg: noReg})
	}
	for _, h := range pl.Holds {
		p.addHold(h.Tile, h.Prod, h.Last)
	}
	for _, rd := range pl.Reads {
		reg := rd.Reg
		if reg == -2 {
			reg = retroReg
		}
		p.noteRead(cx.grid.RRFSize, rd.Tile, reg, rd.Cycle)
	}
	for _, c := range pl.Consts {
		if !p.internConst(c.Tile, c.Val, isa.MaxCRF) {
			panic("core: const plan accepted without CRF capacity")
		}
	}
	return src
}

// text builds the mapper's failure messages with strconv rather than fmt.
// fmt keeps its printers in a pool that every GC may empty, so a Map
// whose attempts fail would allocate a different count on every call.
type text []byte

func (b text) s(s string) text { return append(b, s...) }
func (b text) d(v int) text    { return strconv.AppendInt(b, int64(v), 10) }
func (b text) q(s string) text { return strconv.AppendQuote(b, s) }

// diagnose renders why a node is hard to bind under one representative
// partial: the operand locations and per-tile pressure.
func (cx *bbCtx) diagnose(p *partial, n cdfg.NodeID) string {
	b := text(nil).s("  earliest=").d(cx.earliestCycle(p, n)).s(" maxCycle=").d(p.maxCycle).s("\n")
	for _, a := range cx.block.Nodes[n].Args {
		b = b.s("  arg n").d(int(a)).s(" (").s(cx.block.Nodes[a].Op.String()).s("): locs")
		for _, l := range p.locsOf(a) {
			b = b.s(" (t").d(int(l.Tile) + 1).s(",c").d(l.Cycle).s(",r").d(int(l.Reg)).s(")")
		}
		b = b.s("\n")
	}
	for t, ts := range p.tiles {
		b = b.s("  t").d(t + 1).s(": ops=").d(ts.Ops).s(" moves=").d(ts.Moves).
			s(" regs=").d(cx.grid.RRFSize - ts.freeRegs(cx.grid.RRFSize)).s("/").d(cx.grid.RRFSize).
			s(" budget=").d(cx.budget[t]).s(" holds=[")
		for i, h := range ts.Holds {
			if i > 0 {
				b = b.s(" ")
			}
			b = b.s("{").d(h.Prod).s(" ").d(h.Last).s("}")
		}
		b = b.s("]\n")
	}
	return string(b)
}

// memReport renders per-tile context-word pressure for diagnostics,
// listing the offending instructions of overflowing tiles.
func (cx *bbCtx) memReport(p *partial) string {
	var b text
	for t := range p.tiles {
		w := p.tiles[t].words(p.maxCycle, true)
		b = b.s("  t").d(t + 1).s(": words=").d(p.tiles[t].words(p.maxCycle, false)).
			s("(+trail ").d(w).s(") budget=").d(cx.budget[t])
		if w > cx.budget[t] {
			for c, sl := range p.tiles[t].Slots {
				if sl.Kind != SlotEmpty {
					b = b.s(" [c").d(c).s(" ").d(int(sl.Kind)).s(" n").d(int(sl.Node)).
						s(" wb=").s(strconv.FormatBool(sl.WB)).s("]")
				}
			}
		}
		b = b.s("\n")
	}
	return string(b)
}

// memViolation is a pruned candidate's first tile over the in-flight
// memory filters' budget, under the filter (FlowACMAP or FlowECMAP) that
// pruned it: kept as numbers, and rendered only when the bind step fails.
type memViolation struct {
	flow                Flow
	tile, words, budget int // tile < 0: no tile is over
}

// violation finds the first tile of f over its budget under the headroom
// count.
func (cx *bbCtx) violation(f *footprint, flow Flow) memViolation {
	for t, b := range cx.budget {
		if w := f.headroom(t); w > b {
			return memViolation{flow: flow, tile: t, words: w, budget: b}
		}
	}
	return memViolation{flow: flow, tile: -1}
}

// filterTag names a violation's filter in the error text.
var filterTag = [...]string{FlowACMAP: "acmap:", FlowECMAP: "ecmap:"}

// render appends the violation as "acmap:t3=20/19" (tile 1-based), or
// "ecmap:?" when no tile is over.
func (v memViolation) render(b text) text {
	if b = b.s(filterTag[v.flow]); v.tile < 0 {
		return b.s("?")
	}
	return b.s("t").d(v.tile + 1).s("=").d(v.words).s("/").d(v.budget)
}

// wbSym is a live-out symbol of the block whose value is not its own
// entry value (an identity carry needs no writeback). pinned reports
// that a committed block pinned its home, given in home; otherwise a
// partial's own pin, if it has one, is the home.
type wbSym struct {
	sym    string
	home   SymLoc
	pinned bool
}

// liveOutTables fills cx.liveOutValues and cx.wbSyms for cx's block,
// reusing the capacity of vals and wb.
func (cx *bbCtx) liveOutTables(vals []bool, wb []wbSym) {
	n := len(cx.block.Nodes)
	vals = append(vals[:0], make([]bool, n)...)
	wb = wb[:0]
	for s, def := range cx.block.LiveOut {
		vals[def] = true
		if nd := cx.block.Nodes[def]; nd.Op == cdfg.OpSym && nd.Sym == s {
			continue
		}
		h, ok := cx.symHomes[s]
		wb = append(wb, wbSym{sym: s, home: h, pinned: ok})
	}
	slices.SortFunc(wb, func(a, b wbSym) int { return strings.Compare(a.sym, b.sym) })
	cx.liveOutValues, cx.wbSyms = vals, wb
}

// footprint is what the in-flight memory filters read of a partial, or of
// the child a candidate would realize. Per tile: words, the interior
// context words (instructions plus one pnop per leading or interior gap);
// hi, one past the last occupied cycle; owed, the live-out writebacks
// still owed to home registers there, each of which needs up to one more
// word at finalize. maxCycle is the schedule length. claims lists the
// slots a candidate adds (see claim).
type footprint struct {
	words, hi []int
	owed      []int8
	maxCycle  int
	claims    []int64
}

// trailing reports whether tile t idles after its last instruction until
// the schedule's end: its exact count owes a trailing pnop.
func (f *footprint) trailing(t int) bool { return f.hi[t] < f.maxCycle }

// headroom is tile t's word count under the in-flight filters. While
// mapping, a growing makespan can still hand any active tile a trailing
// pnop, so one word of headroom is charged beyond the interior count;
// idle tiles owe their whole-block pnop. The owed writebacks come on top.
func (f *footprint) headroom(t int) int {
	w := f.words[t]
	if w > 0 {
		w++
	} else if f.maxCycle > 0 {
		w = 1
	}
	return w + int(f.owed[t])
}

// footprintOf fills f with partial p's footprint.
func (cx *bbCtx) footprintOf(p *partial, f *footprint) {
	n := len(p.tiles)
	f.words = slices.Grow(f.words[:0], n)[:n]
	f.hi = slices.Grow(f.hi[:0], n)[:n]
	f.owed = slices.Grow(f.owed[:0], n)[:n]
	clear(f.owed)
	for t, ts := range p.tiles {
		f.words[t] = ts.words(p.maxCycle, false)
		f.hi[t] = int(ts.hi)
	}
	f.maxCycle = p.maxCycle
	for i := range cx.wbSyms {
		w := &cx.wbSyms[i]
		h, ok := w.home, w.pinned
		if !ok {
			if h, ok = p.newHome(w.sym); !ok {
				continue
			}
		}
		if p.writeCycle(cx.grid.RRFSize, h.Tile, int8(h.Reg)) == noWrite {
			f.owed[h.Tile]++ // a home already written (retrofit) owes none
		}
	}
}

// candFootprint fills f with the footprint of the child cand would
// realize: its parent's plus the slots the plan claims — the operation,
// every move and any recompute — and one owed writeback per symbol home
// it pins for a live-out symbol. Writebacks are only scheduled at
// finalize, so a home pinned mid-block is always owed one.
func (cx *bbCtx) candFootprint(cand *candidate, f *footprint) {
	p := cand.parent
	cx.footprintOf(p, f)
	f.claims = f.claims[:0]
	for i := range cand.plans {
		pl := &cand.plans[i].Plan
		for _, m := range pl.Moves {
			f.claim(p, m.Tile, m.Cycle)
		}
		if rc := pl.Recomp; rc != nil {
			f.claim(p, rc.Tile, rc.Cycle)
		}
		if pin := cand.plans[i].Pin; pin != nil && cx.owesWriteback(pin.Sym) && !pinnedBefore(cand.plans[:i], pin.Sym) {
			f.owed[pin.Tile]++
		}
	}
	f.claim(p, cand.tile, cand.cycle)
}

// claim adds an instruction at cycle c of tile t, a slot empty in p and
// in every earlier claim, to f: one word, plus the change in t's gap
// count (see tileState.gapDelta).
func (f *footprint) claim(p *partial, t arch.TileID, c int) {
	busy := func(c int) bool {
		return p.tiles[t].occupied(c) || containsKey(f.claims, slotKey(t, c))
	}
	w := 1
	if c > 0 && !busy(c-1) {
		w++
	}
	if busy(c + 1) {
		w--
	}
	f.words[t] += w
	f.hi[t] = max(f.hi[t], c+1)
	f.maxCycle = max(f.maxCycle, c+1)
	f.claims = append(f.claims, slotKey(t, c))
}

// owesWriteback reports whether pinning symbol s's home owes a writeback:
// s is a live-out symbol of the block that is not its own entry value.
func (cx *bbCtx) owesWriteback(s string) bool {
	for i := range cx.wbSyms {
		if cx.wbSyms[i].sym == s {
			return true
		}
	}
	return false
}

// pinnedBefore reports whether an earlier operand plan pins symbol s: a
// repeated operand reuses that pin.
func pinnedBefore(plans []argPlan, s string) bool {
	for i := range plans {
		if plans[i].Pin != nil && plans[i].Pin.Sym == s {
			return true
		}
	}
	return false
}

// memPrune applies the flow's in-flight memory filters to a candidate's
// footprint and returns the one that prunes it: FlowACMAP, FlowECMAP, or
// FlowBasic when it passes. ACMAP (§III-D2) charges, per tile, the
// committed instructions plus the approximate pnop count (leading and
// interior gaps of the schedule so far) and a word per owed writeback;
// the estimate is approximate with respect to the final block schedule
// in both directions. ECMAP (§III-D3) runs on what ACMAP passes and
// charges the headroom count while headroom is set; near the end of a
// block, where all future instructions are known and the finalize check
// is the authority (a writeback can often retrofit into an existing slot
// at no word cost), it charges the exact count, trailing pnop included,
// and nothing owed. The paper runs the exact filter at each cycle
// boundary; checking every binding is equivalent but catches violating
// candidates before they waste beam slots.
func (cx *bbCtx) memPrune(f *footprint, headroom bool) Flow {
	pruned := FlowBasic
	ecmap := cx.opt.Flow >= FlowECMAP
	for t, b := range cx.budget {
		if f.words[t]+int(f.owed[t]) > b {
			return FlowACMAP
		}
		if !ecmap || pruned != FlowBasic {
			continue
		}
		w := f.words[t]
		switch {
		case headroom:
			w = f.headroom(t)
		case f.trailing(t):
			w++
		}
		if w > b {
			pruned = FlowECMAP
		}
	}
	return pruned
}

// acmapOK is the ACMAP filter on a finalized block: per tile, the
// instructions plus leading and interior pnops must fit the budget.
func (cx *bbCtx) acmapOK(p *partial) bool {
	for t := range p.tiles {
		if p.tiles[t].words(p.maxCycle, false) > cx.budget[t] {
			return false
		}
	}
	return true
}

// ecmapOK is the ECMAP filter on a finalized block: per tile, the exact
// context-word count, including the trailing pnop each lagging tile needs
// to idle to the makespan, must fit the budget.
func (cx *bbCtx) ecmapOK(p *partial) bool {
	for t := range p.tiles {
		if p.tiles[t].words(p.maxCycle, true) > cx.budget[t] {
			return false
		}
	}
	return true
}

// survivors cuts the candidates that passed the memory filters, given in
// the stream's (cost, enumeration order) order, to the beam: the best
// detFrac of the beam is kept deterministically, the rest of the slots
// are filled by rank-weighted sampling (the paper's threshold function).
// The draws read only ranks, so the survivors are chosen before any of
// them is realized. They are appended to dst[:0] in beam order; fits is
// consumed.
func survivors(dst, fits []int32, beam int, detFrac float64, rng *rand.Rand, st *Stats, ar *mapperArena) []int32 {
	if len(fits) <= beam {
		return append(dst[:0], fits...)
	}
	det := min(int(float64(beam)*detFrac), beam)
	kept := append(dst[:0], fits[:det]...)
	rest := fits[det:]
	need := beam - det
	for need > 0 && len(rest) > 0 {
		// Rank-weighted threshold: earlier (cheaper) candidates are
		// exponentially more likely to survive.
		w, total := ar.rankWeights(len(rest))
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
	// The beam alternates between the arena's two beam buffers: each bind
	// step realizes the survivors into the one the current beam is not in.
	cur := 0
	beam := append(ar.beams[cur][:0], init)
	cs := &ar.stream
	for oi, n := range order {
		if cx.race != nil && cx.race.lost(cx.attempt) {
			ar.putPartials(beam)
			return nil, errAbandoned
		}
		// New bind step: the plan chunks from the previous node are dead
		// (children copied what they keep).
		ar.bindReset()
		window := cx.opt.SlackWindow
		tail := false
		tRoute := time.Now()
		// Each pass scans only the offsets [lo, window] the previous
		// passes left out; it widens only when the whole beam yielded
		// nothing (see candStream.enumerate).
		lo := 0
		for {
			cs.reset(cx, n, st)
			for _, p := range beam {
				cs.enumerate(p, lo, window, tail)
			}
			if cs.ready() {
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
				err := text(nil).s("core: no binding for node n").d(int(n)).s(" (").s(cx.block.Nodes[n].Op.String()).
					s(") in block ").q(cx.block.Name).s(" under flow ").s(cx.opt.Flow.String()).s("\n").s(cx.diagnose(beam[0], n))
				ar.putPartials(beam)
				return nil, errors.New(string(err))
			}
			window *= 2
			if window > cx.opt.MaxSlack {
				window = cx.opt.MaxSlack
			}
			st.Retries++
		}
		st.Phases.Route += time.Since(tRoute)
		// Take candidates best-first until enough pass the memory filters
		// (the cap bounds the ones that pass, so a run of filtered
		// placements does not exhaust the binder's patience), cut them to
		// the beam, and realize only the survivors. The filters read the
		// candidate's footprint, so no filtered or cut candidate is built.
		// The stream plans lazily; that planning counts as route time.
		tBind := time.Now()
		var planning time.Duration
		limit := cx.opt.CandidateCap
		fits := ar.fits[:0]
		acPruned, ecPruned, realized := 0, 0, 0
		var first *partial
		headroom := len(order)-oi-1 > 3
		fp := &ar.fp
		var viols [4]memViolation // the first few, for the error text
		nViol := 0
		for len(fits) < limit {
			tPlan := time.Now()
			ci := cs.next()
			planning += time.Since(tPlan)
			if ci < 0 {
				break
			}
			cand := &cs.cands[ci]
			if realized == 0 {
				first = cand.parent
			}
			realized++
			st.Partials++
			st.Recomputes += cand.recomputes()
			pruned := FlowBasic
			if cx.opt.Flow >= FlowACMAP {
				cx.candFootprint(cand, fp)
				pruned = cx.memPrune(fp, headroom)
			}
			if seen := cx.opt.candidateSeen; seen != nil {
				seen(cx, cand, realized == 1, headroom, pruned)
			}
			switch pruned {
			case FlowBasic:
				fits = append(fits, ci)
				continue
			case FlowACMAP:
				acPruned++
			default:
				ecPruned++
			}
			if nViol < len(viols) {
				viols[nViol] = cx.violation(fp, pruned)
				nViol++
			}
		}
		ar.fits = fits[:0]
		st.PrunedACMAP += acPruned
		st.PrunedECMAP += ecPruned
		st.Phases.Route += planning
		st.Phases.Bind += time.Since(tBind) - planning
		if len(fits) == 0 {
			err := text(nil).s("core: all ").d(realized).s(" bindings of node n").d(int(n)).s(" in block ").q(cx.block.Name).
				s(" violate memory constraints (flow ").s(cx.opt.Flow.String()).s(") [")
			for i, v := range viols[:nViol] {
				if i > 0 {
					err = err.s(" ")
				}
				err = v.render(err)
			}
			err = err.s("]\n").s(cx.memReport(first))
			ar.putPartials(beam)
			return nil, errors.New(string(err))
		}
		tPrune := time.Now()
		ar.kept = survivors(ar.kept, fits, cx.opt.BeamWidth, cx.opt.DetFraction, rng, st, ar)
		st.Phases.Prune += time.Since(tPrune)
		tApply := time.Now()
		next := 1 - cur
		newBeam := ar.beams[next][:0]
		for _, ci := range ar.kept {
			newBeam = append(newBeam, cx.apply(&cs.cands[ci]))
		}
		ar.beams[cur], ar.beams[next] = beam[:0], newBeam[:0]
		// The old beam (the survivors' parents) is fully superseded.
		ar.putPartials(beam)
		beam, cur = newBeam, next
		st.Phases.Bind += time.Since(tApply)
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
		case cx.opt.Flow >= FlowECMAP && !cx.ecmapOK(p):
			lastErr = errors.New(string(text(nil).s("core: finalized block ").q(cx.block.Name).s(" overflows context memory\n").s(cx.memReport(p))))
			ar.putPartial(p)
			continue
		case cx.opt.Flow == FlowACMAP && !cx.acmapOK(p):
			lastErr = errors.New(string(text(nil).s("core: finalized block ").q(cx.block.Name).s(" overflows context memory (approximate)\n").s(cx.memReport(p))))
			ar.putPartial(p)
			continue
		}
		done = append(done, p)
	}
	st.Phases.Finalize += time.Since(tFin)
	if len(done) == 0 {
		if lastErr == nil {
			lastErr = errors.New(string(text(nil).s("core: no finalized mapping for block ").q(cx.block.Name)))
		}
		return nil, lastErr
	}
	return done, nil
}
