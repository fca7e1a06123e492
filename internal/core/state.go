package core

import (
	"repro/internal/arch"
	"repro/internal/cdfg"
)

// hold reserves a tile's output register: the value produced at cycle Prod
// must survive unclobbered through cycle Last (exclusive of new productions
// strictly between the two).
type hold struct {
	Prod int
	Last int
}

// loc is one place a value is live within the current block: the original
// production, a move's output, or a symbol's register-file home.
type loc struct {
	Tile  arch.TileID
	Cycle int // production cycle; symHomeCycle for a register-file home
	Reg   int8
}

// symHomeCycle marks a loc that exists "before the block starts" (a symbol
// home register). Such locations are readable from cycle 0 but have no
// output-register value to forward.
const symHomeCycle = -1

const noReg int8 = -1

// tileState is the per-tile schedule of the block being mapped, inside one
// partial mapping.
type tileState struct {
	Slots []Slot
	Holds []hold
	// RegMask marks RF registers currently holding a live value (global
	// symbol homes pre-set). EverUsed additionally remembers registers
	// that held any value this block or any committed block, even after
	// being freed: a symbol home pinned mid-block must use a never-touched
	// register since its content must be valid from cycle 0 of every
	// block. GlobalUsed is the immutable committed-blocks portion: a home
	// pinned at finalize (written late, read only by later blocks) may
	// reuse this block's dead temps but never another block's.
	RegMask    uint16
	EverUsed   uint16
	GlobalUsed uint16
	Ops        int
	Moves      int
	// Consts are the distinct immediates this tile references in already
	// committed blocks plus the current one (CRF pressure).
	Consts []int32
	// cacheHorizon/cacheWords memoize the last interior words() result
	// (trailing=false); the memory filters ask for the same horizon over
	// and over between mutations. cacheHorizon -1 means invalid. The
	// cache is a pure function of the tile's contents, so words() may
	// fill it in on a shared tile; only the owned copy ever invalidates.
	cacheHorizon int32
	cacheWords   int32
	// refs counts the partials sharing this buffer (see arena.go).
	refs int32
}

// copyFrom overwrites t with the contents of s, reusing t's slice
// capacity. t becomes a private buffer of one partial.
func (t *tileState) copyFrom(s *tileState) {
	slots := append(t.Slots[:0], s.Slots...)
	holds := append(t.Holds[:0], s.Holds...)
	consts := append(t.Consts[:0], s.Consts...)
	*t = *s
	t.Slots, t.Holds, t.Consts = slots, holds, consts
	t.refs = 1
}

// reset empties t for a new block, keeping its slice capacity.
func (t *tileState) reset() {
	*t = tileState{Slots: t.Slots[:0], Holds: t.Holds[:0], Consts: t.Consts[:0], cacheHorizon: -1, refs: t.refs}
}

// dirty invalidates the cached interior word count. It must be called on
// every mutation that changes the tile's Ops, Moves or occupied cycles.
func (t *tileState) dirty() { t.cacheHorizon = -1 }

// slotAt returns the slot at the cycle, growing the schedule as needed.
func (t *tileState) slotAt(c int) *Slot {
	for len(t.Slots) <= c {
		t.Slots = append(t.Slots, Slot{})
	}
	return &t.Slots[c]
}

// occupied reports whether the tile executes an instruction at cycle c.
func (t *tileState) occupied(c int) bool {
	return c >= 0 && c < len(t.Slots) && t.Slots[c].Kind != SlotEmpty
}

// producesAt reports whether the tile writes its output register at c.
func (t *tileState) producesAt(c int, b *cdfg.BasicBlock) bool {
	if c < 0 || c >= len(t.Slots) {
		return false
	}
	s := t.Slots[c]
	switch s.Kind {
	case SlotMove:
		return true
	case SlotOp:
		return b.Nodes[s.Node].Op.HasResult()
	}
	return false
}

// canProduceAt reports whether placing a value-producing instruction at
// cycle c respects all output-register holds.
func (t *tileState) canProduceAt(c int) bool {
	for _, h := range t.Holds {
		if h.Prod < c && c < h.Last {
			return false
		}
	}
	return true
}

// outputLive reports whether the value produced at cycle prod is still on
// the output register at cycle read (no intervening production).
func (t *tileState) outputLive(prod, read int, b *cdfg.BasicBlock) bool {
	if prod < 0 || read <= prod {
		return false
	}
	for c := prod + 1; c < read; c++ {
		if t.producesAt(c, b) {
			return false
		}
	}
	return true
}

// addHold extends (or records) the output hold for the value produced at
// prod so it survives through read.
func (t *tileState) addHold(prod, read int) {
	for i := range t.Holds {
		if t.Holds[i].Prod == prod {
			if read > t.Holds[i].Last {
				t.Holds[i].Last = read
			}
			return
		}
	}
	t.Holds = append(t.Holds, hold{Prod: prod, Last: read})
}

// freeRegs returns how many RF registers remain.
func (t *tileState) freeRegs(size int) int {
	n := 0
	for r := 0; r < size; r++ {
		if t.RegMask&(1<<r) == 0 {
			n++
		}
	}
	return n
}

// hasConst reports whether v is already in the tile's constant pool.
func (t *tileState) hasConst(v int32) bool {
	for _, c := range t.Consts {
		if c == v {
			return true
		}
	}
	return false
}

// internConst adds v to the tile's constant pool if capacity allows.
func (t *tileState) internConst(v int32, maxCRF int) bool {
	if t.hasConst(v) {
		return true
	}
	if len(t.Consts) >= maxCRF {
		return false
	}
	t.Consts = append(t.Consts, v)
	return true
}

// gapGroups counts the pnop words of the schedule so far. Leading and
// interior runs of empty slots each cost one pnop; future insertions can
// only keep or grow the total word count, so this is a safe lower bound
// (the ECMAP filter). With trailing set, the run after the last
// instruction up to the horizon is also charged — the pessimistic ACMAP
// estimate, which can over- or under-shoot the final count.
func (t *tileState) gapGroups(horizon int, trailing bool) int {
	limit := len(t.Slots)
	if horizon < limit {
		limit = horizon
	}
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

// wordsIfOccupied counts the tile's words (interior accounting) as if
// cycle c additionally held an instruction — used to price the pnop
// fragmentation a placement would cause.
func (t *tileState) wordsIfOccupied(c, horizon int) int {
	limit := len(t.Slots)
	if c+1 > limit {
		limit = c + 1
	}
	if horizon > limit {
		limit = horizon
	}
	n := t.Ops + t.Moves + 1
	gaps := 0
	prevOcc := -1
	any := false
	occ := func(i int) bool {
		if i == c {
			return true
		}
		return i < len(t.Slots) && t.Slots[i].Kind != SlotEmpty
	}
	for i := 0; i < limit; i++ {
		if !occ(i) {
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
	return n + gaps
}

// locBuf is one node's location list: where the value is live. l[0] is
// the production (or symbol home).
type locBuf struct {
	l []loc
	// refs counts the partials sharing this buffer (see arena.go).
	refs int32
}

// partial is one partial mapping of the block being mapped: a point of the
// design space the beam search explores. Its tile schedules and location
// lists are buffers shared copy-on-write with the partials it was cloned
// from or into: read them freely, write them only through tileW and locsW.
type partial struct {
	// ar is the arena whose buffers the partial holds.
	ar    *mapperArena
	tiles []*tileState
	// locs[n] lists where node n's value is live; nil means unplaced.
	locs []*locBuf
	// regLastRead[t*rrf+r] is the last cycle tile t's register r was read,
	// used to order symbol writebacks after all reads and to recycle
	// registers safely.
	regLastRead []int16
	// regLastWrite[t*rrf+r] is the last cycle register r is written, so a
	// recycled register is never clobbered by an earlier-scheduled
	// writeback placed at a later wall-clock step.
	regLastWrite []int16
	// regWriteCycle[t*rrf+r] is the cycle a symbol home register is
	// written back (noWrite when not yet written). Reads of a home
	// register must not occur after its writeback.
	regWriteCycle []int16
	// newHomes records symbol homes pinned while mapping this block; the
	// winning partial's pins are promoted to the global table on commit.
	newHomes map[string]SymLoc

	maxCycle   int // schedule length so far (last occupied cycle + 1)
	moves      int
	recomputes int
	cost       float64
	checkedTo  int // ECMAP frontier already verified

	// blMask caches the CAB blacklist while blValid; any mutation of the
	// binding state clears blValid via touch.
	blMask  uint32
	blValid bool
}

// touch marks the partial as mutated: the cached CAB blacklist no longer
// applies.
func (p *partial) touch() { p.blValid = false }

// noWrite marks a home register with no writeback scheduled yet.
const noWrite = int16(0x7fff)

// writeCycle returns the writeback cycle of tile t's register r.
func (p *partial) writeCycle(rrf int, t arch.TileID, r int8) int16 {
	return p.regWriteCycle[int(t)*rrf+int(r)]
}

// setWriteCycle records the writeback cycle of tile t's register r.
func (p *partial) setWriteCycle(rrf int, t arch.TileID, r int8, c int) {
	p.regWriteCycle[int(t)*rrf+int(r)] = int16(c)
}

// tileW returns tile t's schedule for writing, first copying it into a
// private buffer when another partial shares it.
func (p *partial) tileW(t arch.TileID) *tileState {
	ts := p.tiles[t]
	if ts.refs == 1 {
		return ts
	}
	c := p.ar.newTile()
	c.copyFrom(ts)
	ts.refs--
	p.tiles[t] = c
	return c
}

// locsOf returns where node n's value is live; empty means unplaced.
func (p *partial) locsOf(n cdfg.NodeID) []loc {
	if b := p.locs[n]; b != nil {
		return b.l
	}
	return nil
}

// locsW returns node n's location list for writing, first copying it
// into a private buffer when another partial shares it (or taking an
// empty one when n is unplaced).
func (p *partial) locsW(n cdfg.NodeID) *locBuf {
	b := p.locs[n]
	if b != nil && b.refs == 1 {
		return b
	}
	c := p.ar.newLocs()
	if b != nil {
		c.l = append(c.l, b.l...)
		b.refs--
	}
	p.locs[n] = c
	return c
}

// addLoc records a new place node n's value is live.
func (p *partial) addLoc(n cdfg.NodeID, l loc) {
	b := p.locsW(n)
	b.l = append(b.l, l)
}

// addHold extends (or records) tile t's output hold for the value
// produced at prod so it survives through read, leaving a shared tile
// shared when its hold already covers read.
func (p *partial) addHold(t arch.TileID, prod, read int) {
	for _, h := range p.tiles[t].Holds {
		if h.Prod == prod && read <= h.Last {
			return
		}
	}
	p.tileW(t).addHold(prod, read)
}

// internConst adds v to tile t's constant pool if capacity allows,
// leaving a shared tile shared when v is already in the pool.
func (p *partial) internConst(t arch.TileID, v int32, maxCRF int) bool {
	if p.tiles[t].hasConst(v) {
		return true
	}
	return p.tileW(t).internConst(v, maxCRF)
}

// placed reports whether node n has been bound.
func (p *partial) placed(n cdfg.NodeID) bool { return len(p.locsOf(n)) > 0 }

// allocRegAt claims a register of tile t for a value written at the given
// cycle. When fresh is set, only never-touched registers qualify (symbol
// homes readable from cycle 0); otherwise freed registers are recycled
// when their last recorded read and write do not come after the new write.
func (p *partial) allocRegAt(rrf int, t arch.TileID, cycle int, fresh bool) int8 {
	ts := p.tiles[t]
	for r := 0; r < rrf; r++ {
		bit := uint16(1) << r
		if ts.RegMask&bit != 0 {
			continue
		}
		if fresh {
			if ts.EverUsed&bit != 0 {
				continue
			}
		} else if int(p.regLastRead[int(t)*rrf+r]) > cycle || int(p.regLastWrite[int(t)*rrf+r]) > cycle {
			continue
		}
		ts = p.tileW(t)
		ts.RegMask |= bit
		ts.EverUsed |= bit
		if !fresh {
			p.noteWrite(rrf, t, int8(r), cycle)
		}
		return int8(r)
	}
	return noReg
}

// allocRegHome claims a register for a symbol home pinned at finalize:
// free now, never used by any other committed block (whose temp writes
// would clobber the symbol at runtime), with write-hazard ordering against
// this block's dead temps handled by the writeback placement.
func (p *partial) allocRegHome(rrf int, t arch.TileID) int8 {
	ts := p.tiles[t]
	for r := 0; r < rrf; r++ {
		bit := uint16(1) << r
		if ts.RegMask&bit == 0 && ts.GlobalUsed&bit == 0 {
			ts = p.tileW(t)
			ts.RegMask |= bit
			ts.EverUsed |= bit
			return int8(r)
		}
	}
	return noReg
}

// freeReg releases a register whose value has no remaining readers.
func (p *partial) freeReg(t arch.TileID, r int8) {
	p.tileW(t).RegMask &^= 1 << uint(r)
}

// noteWrite records that tile t's register r is written at cycle c.
func (p *partial) noteWrite(rrf int, t arch.TileID, r int8, c int) {
	idx := int(t)*rrf + int(r)
	if int16(c) > p.regLastWrite[idx] {
		p.regLastWrite[idx] = int16(c)
	}
}

// noteRead records that tile t's register r was read at cycle c.
func (p *partial) noteRead(rrf int, t arch.TileID, r int8, c int) {
	idx := int(t)*rrf + int(r)
	if int16(c) > p.regLastRead[idx] {
		p.regLastRead[idx] = int16(c)
	}
}

// lastRead returns the last cycle tile t's register r was read.
func (p *partial) lastRead(rrf int, t arch.TileID, r int8) int {
	return int(p.regLastRead[int(t)*rrf+int(r)])
}

// bump extends the schedule-length watermark.
func (p *partial) bump(c int) {
	if c+1 > p.maxCycle {
		p.maxCycle = c + 1
	}
}

// words returns the context words tile t consumes for the current block so
// far: committed instructions plus the chosen pnop estimate. The interior
// (trailing=false) count is cached per horizon until the tile mutates.
func (p *partial) words(t arch.TileID, horizon int, trailing bool) int {
	ts := p.tiles[t]
	if trailing {
		return ts.Ops + ts.Moves + ts.gapGroups(horizon, true)
	}
	if ts.cacheHorizon == int32(horizon) {
		return int(ts.cacheWords)
	}
	w := ts.Ops + ts.Moves + ts.gapGroups(horizon, false)
	ts.cacheHorizon = int32(horizon)
	ts.cacheWords = int32(w)
	return w
}
