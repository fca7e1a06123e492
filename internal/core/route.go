package core

import (
	"math"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/isa"
)

// Routing cost weights. Moves are real context words; holds and register
// pressure only constrain future freedom, so they cost far less.
const (
	costMove      = 1.0
	costHoldCycle = 0.02
	costRegAlloc  = 0.2
	costNewConst  = 0.05
	costRecompute = 1.1
	costCycle     = 0.35 // schedule-length growth per cycle
)

// moveStep is one routing move a plan will insert.
type moveStep struct {
	Tile  arch.TileID
	Cycle int
	Src   isa.Src
	// Produces the routed value: recorded as a new location on apply.
}

// holdAdd extends an output-register hold on a tile.
type holdAdd struct {
	Tile arch.TileID
	Prod int
	Last int
}

// regRead records a register-file read (for symbol writeback ordering).
type regRead struct {
	Tile  arch.TileID
	Reg   int8
	Cycle int
}

// wbRetro sets a writeback on an already placed slot so later consumers on
// the same tile can read the value from the register file.
type wbRetro struct {
	Tile  arch.TileID
	Cycle int
	// Reg is allocated at apply time.
}

// routePlan is one feasible way to deliver a value to a consumer.
type routePlan struct {
	Src      isa.Src
	Moves    []moveStep
	Holds    []holdAdd
	Retro    *wbRetro
	Reads    []regRead
	Consts   []constAdd
	Recomp   *recompStep
	ValueLoc int // index of the loc served (for diagnostics); -1 for const/recompute
	Cost     float64
}

// constAdd interns an immediate in a tile's constant pool.
type constAdd struct {
	Tile arch.TileID
	Val  int32
}

// recompStep duplicates an all-constant-operand producer on a tile (the
// recompute graph transformation).
type recompStep struct {
	Tile  arch.TileID
	Cycle int
	Node  cdfg.NodeID
	Srcs  [isa.MaxSrcs]isa.Src
	NSrc  int
}

// overlay tracks the tentative effects of sibling operand plans within one
// candidate so that plans don't collide before the candidate is applied.
// An overlay holds at most a handful of entries (one candidate's routing
// side effects), so every set — including the tentative register counts
// and constant-pool additions — is a small slice scanned linearly; the
// single live overlay is owned by the arena and reset per candidate.
type overlay struct {
	claimed []int64 // slots taken by this candidate
	prods   []int64 // productions added at (tile, cycle)
	holds   []holdAdd
	regs    []arch.TileID // tiles with tentative register allocations (with multiplicity)
	retros  []int64       // slots claimed for a retrofitted writeback
	consts  []constAdd
}

func slotKey(t arch.TileID, c int) int64 { return int64(t)<<32 | int64(uint32(c)) }

func containsKey(keys []int64, k int64) bool {
	for _, x := range keys {
		if x == k {
			return true
		}
	}
	return false
}

func (o *overlay) claim(t arch.TileID, c int, produces bool) {
	o.claimed = append(o.claimed, slotKey(t, c))
	if produces {
		o.prods = append(o.prods, slotKey(t, c))
	}
}

// addReg records a tentative register allocation on tile t.
func (o *overlay) addReg(t arch.TileID) {
	o.regs = append(o.regs, t)
}

// regsAt counts the tentative register allocations on tile t.
func (o *overlay) regsAt(t arch.TileID) int {
	n := 0
	for _, x := range o.regs {
		if x == t {
			n++
		}
	}
	return n
}

func (o *overlay) merge(p *routePlan) {
	for _, m := range p.Moves {
		o.claim(m.Tile, m.Cycle, true)
	}
	if p.Recomp != nil {
		o.claim(p.Recomp.Tile, p.Recomp.Cycle, true)
	}
	o.holds = append(o.holds, p.Holds...)
	if p.Retro != nil {
		o.addReg(p.Retro.Tile)
		o.retros = append(o.retros, slotKey(p.Retro.Tile, p.Retro.Cycle))
	}
	o.consts = append(o.consts, p.Consts...)
}

// bbCtx carries the per-block mapping context shared by all partials.
type bbCtx struct {
	grid   *arch.Grid
	block  *cdfg.BasicBlock
	opt    *Options
	budget []int // remaining CM words per tile (committed blocks deducted)
	// soft additionally reserves words on home-hosting tiles; it steers
	// placement pressure and home pinning but never hard-prunes.
	soft  []int
	sched *cdfg.Sched
	users [][]cdfg.NodeID
	// symHomes is the global symbol-home table (shared, extended as homes
	// are pinned; pinning happens between blocks, not inside the beam).
	symHomes map[string]SymLoc
	// liveOutValues marks, by node, the values a live-out symbol
	// publishes; wbSyms lists the live-out symbols that need a writeback
	// (see liveOutTables).
	liveOutValues []bool
	wbSyms        []wbSym
	// cab enables constraint-aware binding (tile blacklisting).
	cab bool
	// arena owns all reusable mapper scratch state (see arena.go); the
	// block mapper is single-goroutine, so sharing is never an issue.
	arena *mapperArena
	// hopsBuf is the scratch hop list reused across planChain calls.
	hopsBuf []arch.TileID
	// race, when set, coordinates this speculative retry attempt (number
	// attempt) with its siblings; mapBlock abandons the attempt once its
	// result can no longer matter.
	race    *retryRace
	attempt int
}

// free reports whether the slot is empty in both the partial and overlay.
func (cx *bbCtx) free(p *partial, o *overlay, t arch.TileID, c int) bool {
	if c < 0 {
		return false
	}
	if o != nil && containsKey(o.claimed, slotKey(t, c)) {
		return false
	}
	return !p.tiles[t].occupied(c)
}

// canProduce reports whether a value-producing instruction may be placed
// at (t, c) without clobbering a held output value.
func (cx *bbCtx) canProduce(p *partial, o *overlay, t arch.TileID, c int) bool {
	if !p.tiles[t].canProduceAt(c) {
		return false
	}
	if o != nil {
		for _, h := range o.holds {
			if h.Tile == t && h.Prod < c && c < h.Last {
				return false
			}
		}
	}
	return true
}

// outputLive reports whether the value produced on t at prod survives to a
// read at cycle `read`, considering overlay productions.
func (cx *bbCtx) outputLive(p *partial, o *overlay, t arch.TileID, prod, read int) bool {
	if !p.tiles[t].outputLive(prod, read, cx.block) {
		return false
	}
	if o != nil {
		for _, k := range o.prods {
			if arch.TileID(k>>32) == t {
				c := int(int32(k))
				if prod < c && c < read {
					return false
				}
			}
		}
	}
	return true
}

// regAvailableAt reports whether tile t can provide a register for a
// value written at the given cycle, after overlay allocations. Freed
// registers recycle when their recorded reads and writes do not come
// after the new write.
func (cx *bbCtx) regAvailableAt(p *partial, o *overlay, t arch.TileID, cycle int) bool {
	extra := 0
	if o != nil {
		extra = o.regsAt(t)
	}
	rrf := cx.grid.RRFSize
	n := 0
	for r := 0; r < rrf; r++ {
		if p.tiles[t].RegMask&(1<<r) != 0 {
			continue
		}
		if int(p.regLastRead[int(t)*rrf+r]) > cycle || int(p.regLastWrite[int(t)*rrf+r]) > cycle {
			continue
		}
		n++
	}
	return n > extra
}

// freshRegAvailable reports whether tile t still has a never-touched
// register for pinning a symbol home readable from cycle 0.
func (cx *bbCtx) freshRegAvailable(p *partial, o *overlay, t arch.TileID) bool {
	extra := 0
	if o != nil {
		extra = o.regsAt(t)
	}
	rrf := cx.grid.RRFSize
	n := 0
	for r := 0; r < rrf; r++ {
		if p.tiles[t].RegMask&(1<<r) == 0 && p.tiles[t].EverUsed&(1<<r) == 0 {
			n++
		}
	}
	return n > extra
}

// constOK reports whether tile t can reference immediate v, and whether it
// is a new pool entry.
func (cx *bbCtx) constOK(p *partial, o *overlay, t arch.TileID, v int32) (ok, isNew bool) {
	ts := p.tiles[t]
	if ts.hasConst(v) {
		return true, false
	}
	n := len(ts.Consts)
	if o != nil {
		for _, ov := range o.consts {
			if ov.Tile != t {
				continue
			}
			if ov.Val == v {
				return true, false
			}
			n++
		}
	}
	return n < isa.MaxCRF, true
}

// retroClaimed reports whether a sibling plan of this candidate already
// claimed the slot for a retrofitted writeback.
func (cx *bbCtx) retroClaimed(o *overlay, t arch.TileID, c int) bool {
	return o != nil && containsKey(o.retros, slotKey(t, c))
}

// dirFromTo returns the direction d such that the neighbor of `at` in
// direction d is `from` (i.e. the source selector the consumer uses).
func (cx *bbCtx) dirFromTo(at, from arch.TileID) (isa.Dir, bool) {
	for i, n := range cx.grid.Neighbors(at) {
		if n == from {
			return isa.Dir(i), true
		}
	}
	return 0, false
}

// planOperand finds the cheapest feasible plan delivering the value of
// node v to a consumer executing on tile tc at cycle cc, writing it into
// *out. Returns false when no plan exists (leaving *out unspecified). The
// out-parameter style keeps the ~140-byte routePlan out of every return
// path of the search tree, which showed up as duffcopy/duffzero in
// profiles.
func (cx *bbCtx) planOperand(p *partial, o *overlay, v cdfg.NodeID, tc arch.TileID, cc int, blacklist uint32, out *routePlan) bool {
	nd := cx.block.Nodes[v]
	// Constants are served from the consumer tile's CRF.
	if nd.Op == cdfg.OpConst {
		ok, isNew := cx.constOK(p, o, tc, nd.Val)
		if !ok {
			return false
		}
		*out = routePlan{Src: isa.Const(nd.Val), ValueLoc: -1}
		if isNew {
			out.Cost += costNewConst
			out.Consts = append(cx.arena.consta.take(1), constAdd{Tile: tc, Val: nd.Val})
		}
		return true
	}

	bestCost := math.Inf(1)
	found := false
	var tmp routePlan
	for li, l := range p.locsOf(v) {
		if cx.planFromLoc(p, o, l, li, tc, cc, blacklist, &tmp) && tmp.Cost < bestCost {
			bestCost = tmp.Cost
			*out = tmp
			found = true
		}
	}
	if cx.opt.Recompute {
		if cx.planRecompute(p, o, v, tc, cc, &tmp) && tmp.Cost < bestCost {
			*out = tmp
			found = true
		}
	}
	return found
}

// planFromLoc plans delivery from one existing location of the value.
func (cx *bbCtx) planFromLoc(p *partial, o *overlay, l loc, li int, tc arch.TileID, cc int, blacklist uint32, out *routePlan) bool {
	bestCost := math.Inf(1)
	found := false
	commit := func(pl *routePlan) {
		pl.ValueLoc = li
		bestCost = pl.Cost
		*out = *pl
		found = true
	}

	if l.Tile == tc {
		// Local register read. A symbol home register must not be read
		// after its writeback has been scheduled.
		if l.Reg != noReg && cc >= l.Cycle+1 && int16(cc) <= p.writeCycle(cx.grid.RRFSize, tc, l.Reg) {
			pl := routePlan{
				Src:   isa.Reg(uint8(l.Reg)),
				Reads: append(cx.arena.reads.take(1), regRead{Tile: tc, Reg: l.Reg, Cycle: cc}),
			}
			if pl.Cost < bestCost {
				commit(&pl)
			}
		}
		if l.Cycle >= 0 {
			// Own output register, if still live and the wait is short.
			if cc > l.Cycle && cc-l.Cycle <= cx.opt.MaxHold && cx.outputLive(p, o, tc, l.Cycle, cc) {
				pl := routePlan{
					Src:   isa.Self(),
					Holds: append(cx.arena.holds.take(1), holdAdd{Tile: tc, Prod: l.Cycle, Last: cc}),
					Cost:  costHoldCycle * float64(cc-l.Cycle),
				}
				if pl.Cost < bestCost {
					commit(&pl)
				}
			}
			// Retrofit a writeback on the producing slot.
			if l.Reg == noReg && cc >= l.Cycle+1 && cx.regAvailableAt(p, o, tc, l.Cycle) &&
				!p.tiles[tc].Slots[l.Cycle].WB && !cx.retroClaimed(o, tc, l.Cycle) {
				retro := append(cx.arena.retros.take(1), wbRetro{Tile: tc, Cycle: l.Cycle})
				pl := routePlan{
					Src:   isa.Reg(retroPlaceholder), // resolved at apply
					Retro: &retro[0],
					Reads: append(cx.arena.reads.take(1), regRead{Tile: tc, Reg: -2, Cycle: cc}),
					Cost:  costRegAlloc,
				}
				if pl.Cost < bestCost {
					commit(&pl)
				}
			}
		}
		return found
	}

	// Neighbor output-register read (not possible from a register home).
	if l.Cycle >= 0 {
		if d, adj := cx.dirFromTo(tc, l.Tile); adj {
			if cc > l.Cycle && cc-l.Cycle <= cx.opt.MaxHold && cx.outputLive(p, o, l.Tile, l.Cycle, cc) {
				pl := routePlan{
					Src:   isa.Nbr(d),
					Holds: append(cx.arena.holds.take(1), holdAdd{Tile: l.Tile, Prod: l.Cycle, Last: cc}),
					Cost:  costHoldCycle * float64(cc-l.Cycle),
				}
				if pl.Cost < bestCost {
					commit(&pl)
				}
			}
		}
	}

	// Move chains along the two canonical shortest paths, trying each
	// first-step access mode.
	var tmp routePlan
	for _, path := range cx.paths(l.Tile, tc) {
		for _, mode := range [...]chainMode{chainOutput, chainReg, chainRetro} {
			if cx.planChain(p, o, l, path, tc, cc, blacklist, mode, &tmp) && tmp.Cost < bestCost {
				commit(&tmp)
			}
		}
	}
	return found
}

// chainMode says how the first move of a chain accesses the value.
type chainMode int

const (
	// chainOutput: the first move executes on a neighbor of the producer
	// and reads the producer's output register.
	chainOutput chainMode = iota
	// chainReg: the first move executes on the value's own tile and reads
	// it from the register file (symbol homes and written-back temps).
	chainReg
	// chainRetro: like chainReg, but the value has no register yet — a
	// writeback is retrofitted onto the producing slot first.
	chainRetro
)

// retroPlaceholder marks a register operand whose index is resolved when
// the plan's retrofit writeback allocates the register.
const retroPlaceholder uint8 = 0xff

// paths returns the row-first and column-first shortest torus paths from a
// to b (deduplicated when they coincide). Paths exclude a, include b. The
// result depends only on the grid topology, so it is cached on the arena
// (keyed by grid shape, surviving across blocks and Map calls) — the
// routing search asks for the same pairs thousands of times per block.
func (cx *bbCtx) paths(a, b arch.TileID) [][]arch.TileID {
	return cx.arena.paths(cx, a, b)
}

func (cx *bbCtx) computePaths(a, b arch.TileID) [][]arch.TileID {
	p1 := cx.grid.Path(a, b)
	// Column-first: route via the intermediate corner.
	ta, tb := cx.grid.Tile(a), cx.grid.Tile(b)
	corner := cx.grid.At(ta.Row, tb.Col).ID
	var p2 []arch.TileID
	if corner != a && corner != b {
		p2 = append(cx.grid.Path(a, corner), cx.grid.Path(corner, b)...)
	}
	if p2 == nil || samePath(p1, p2) {
		return [][]arch.TileID{p1}
	}
	return [][]arch.TileID{p1, p2}
}

func samePath(a, b []arch.TileID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// planChain plans a chain of moves from location l along path (which ends
// at the consumer tile) so the consumer can neighbor-read the last hop's
// output at cycle cc. The chain hops through path[0..len-2]. Depending on
// the mode, the first move reads the producer's output register from a
// neighboring tile (chainOutput), or executes on the value's own tile
// reading the register file (chainReg for homes and written-back temps,
// chainRetro with a retrofitted writeback for register-less values).
func (cx *bbCtx) planChain(p *partial, o *overlay, l loc, path []arch.TileID, tc arch.TileID, cc int, blacklist uint32, mode chainMode, out *routePlan) bool {
	// hops lives in a per-context scratch buffer: the slice is fully
	// consumed before planChain returns (moveSteps copy the tile IDs), so
	// reusing it across the thousands of candidate plans is safe. The
	// buffer is pre-sized to the torus diameter at bbCtx construction, so
	// appends stay in place and no write-back (or defer) is needed.
	hops := cx.hopsBuf[:0]
	var srcReg uint8
	var retro *wbRetro
	minFirst := 0
	switch mode {
	case chainOutput:
		if l.Cycle < 0 {
			return false // register homes have no output value
		}
		for i := 0; i+1 < len(path); i++ {
			hops = append(hops, path[i])
		}
		if len(hops) == 0 {
			// Adjacent: the direct neighbor-read case covers this.
			return false
		}
		minFirst = l.Cycle + 1
	case chainReg:
		if l.Reg == noReg {
			return false
		}
		srcReg = uint8(l.Reg)
		hops = append(hops, l.Tile)
		for i := 0; i+1 < len(path); i++ {
			hops = append(hops, path[i])
		}
		minFirst = l.Cycle + 1 // for homes (Cycle -1) this is 0
	case chainRetro:
		if l.Reg != noReg || l.Cycle < 0 {
			return false
		}
		slot := p.tiles[l.Tile].Slots[l.Cycle]
		if slot.Kind == SlotEmpty || slot.WB || !cx.regAvailableAt(p, o, l.Tile, l.Cycle) ||
			cx.retroClaimed(o, l.Tile, l.Cycle) {
			return false
		}
		srcReg = retroPlaceholder
		rs := append(cx.arena.retros.take(1), wbRetro{Tile: l.Tile, Cycle: l.Cycle})
		retro = &rs[0]
		hops = append(hops, l.Tile)
		for i := 0; i+1 < len(path); i++ {
			hops = append(hops, path[i])
		}
		minFirst = l.Cycle + 1
	}

	// Latest start: the chain runs on consecutive cycles and must finish
	// by cc-1.
	lastStart := cc - len(hops)
	if lastStart < minFirst {
		return false
	}

	try := func(first int) bool {
		pl := out
		*pl = routePlan{}
		cyc := first
		for i, h := range hops {
			if blacklist&(1<<uint(h)) != 0 {
				return false
			}
			if !cx.free(p, o, h, cyc) || !cx.canProduce(p, o, h, cyc) {
				return false
			}
			var src isa.Src
			if i == 0 && mode != chainOutput {
				// Read the value from this tile's register file.
				if mode == chainReg && int16(cyc) > p.writeCycle(cx.grid.RRFSize, l.Tile, l.Reg) {
					return false
				}
				src = isa.Reg(srcReg)
				if mode == chainReg {
					pl.Reads = append(cx.arena.reads.take(1), regRead{Tile: l.Tile, Reg: l.Reg, Cycle: cyc})
				}
			} else {
				from := l.Tile
				prod := l.Cycle
				if i > 0 {
					from = hops[i-1]
					prod = cyc - 1
				}
				d, adj := cx.dirFromTo(h, from)
				if !adj {
					return false
				}
				src = isa.Nbr(d)
				if i == 0 {
					// First hop of an output chain: the producer's value
					// must still be live.
					if cyc-prod > cx.opt.MaxHold || !cx.outputLive(p, o, from, prod, cyc) {
						return false
					}
					if pl.Holds == nil {
						pl.Holds = cx.arena.holds.take(2)
					}
					pl.Holds = append(pl.Holds, holdAdd{Tile: from, Prod: prod, Last: cyc})
				}
			}
			if pl.Moves == nil {
				pl.Moves = cx.arena.moves.take(len(hops))
			}
			pl.Moves = append(pl.Moves, moveStep{Tile: h, Cycle: cyc, Src: src})
			cyc++
		}
		// Consumer neighbor-reads the last hop's output at cc.
		last := hops[len(hops)-1]
		d, adj := cx.dirFromTo(tc, last)
		if !adj {
			return false
		}
		lastCycle := first + len(hops) - 1
		if cc-lastCycle > cx.opt.MaxHold {
			return false
		}
		// The routed value must survive on the last hop's output register
		// until the consumer reads it.
		if cc > lastCycle+1 && !cx.outputLive(p, o, last, lastCycle, cc) {
			return false
		}
		pl.Src = isa.Nbr(d)
		if pl.Holds == nil {
			pl.Holds = cx.arena.holds.take(2)
		}
		pl.Holds = append(pl.Holds, holdAdd{Tile: last, Prod: lastCycle, Last: cc})
		pl.Retro = retro
		pl.Cost = costMove * float64(len(hops))
		pl.Cost += costHoldCycle * float64(cc-lastCycle)
		if retro != nil {
			pl.Cost += costRegAlloc
		}
		return true
	}

	// Prefer the late chain (arriving just in time); fall back to the
	// earliest chain, whose final value waits on the last hop's output.
	if try(lastStart) {
		return true
	}
	if minFirst != lastStart {
		if try(minFirst) {
			return true
		}
	}
	return false
}

// planRecompute duplicates a producer whose operands are all constants on
// the consumer tile the cycle before consumption.
func (cx *bbCtx) planRecompute(p *partial, o *overlay, v cdfg.NodeID, tc arch.TileID, cc int, out *routePlan) bool {
	if !cx.recomputable(v) {
		return false
	}
	nd := cx.block.Nodes[v]
	cyc := cc - 1
	if cyc < 0 || !cx.free(p, o, tc, cyc) || !cx.canProduce(p, o, tc, cyc) {
		return false
	}
	pl := out
	*pl = routePlan{Src: isa.Self(), ValueLoc: -1, Cost: costRecompute}
	rcs := append(cx.arena.recomps.take(1), recompStep{Tile: tc, Cycle: cyc, Node: v, NSrc: len(nd.Args)})
	rc := &rcs[0]
	for i, a := range nd.Args {
		val := cx.block.Nodes[a].Val
		ok, isNew := cx.constOK(p, o, tc, val)
		if !ok {
			return false
		}
		if isNew {
			if pl.Consts == nil {
				pl.Consts = cx.arena.consta.take(len(nd.Args))
			}
			pl.Consts = append(pl.Consts, constAdd{Tile: tc, Val: val})
			pl.Cost += costNewConst
		}
		rc.Srcs[i] = isa.Const(val)
	}
	pl.Recomp = rc
	pl.Holds = append(cx.arena.holds.take(1), holdAdd{Tile: tc, Prod: cyc, Last: cc})
	return true
}

// recomputable reports whether v is a producer whose operands are all
// constants, so a consumer's tile can duplicate it.
func (cx *bbCtx) recomputable(v cdfg.NodeID) bool {
	nd := cx.block.Nodes[v]
	switch nd.Op {
	case cdfg.OpConst, cdfg.OpSym, cdfg.OpLoad, cdfg.OpStore, cdfg.OpBr:
		return false
	}
	for _, a := range nd.Args {
		if cx.block.Nodes[a].Op != cdfg.OpConst {
			return false
		}
	}
	return true
}
