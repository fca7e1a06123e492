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
	// hi is one past the last occupied cycle (0: no instruction yet) and
	// gaps counts the runs of empty slots before it, the leading run and
	// the interior ones, one pnop word each. occupy keeps both, so words
	// is O(1). Slots are never vacated, and every occupy is followed by a
	// bump of the partial's maxCycle, so no count depends on the horizon.
	hi, gaps int32
	// hopGen and hopOff stamp the tile's hop mask in the candidate
	// stream's pool (see candStream.screen): valid while hopGen is the
	// stream's generation for the window asked about. Every write that
	// can change the mask clears hopGen; the stream never hands out 0.
	// Like a word count, the stamp describes only the buffer's contents,
	// so screen may set it on a shared buffer.
	hopGen uint64
	hopOff int32
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
	t.hopGen, t.refs = 0, 1
}

// reset empties t for a new block, keeping its slice capacity.
func (t *tileState) reset() {
	*t = tileState{Slots: t.Slots[:0], Holds: t.Holds[:0], Consts: t.Consts[:0], refs: t.refs}
}

// occupy returns the slot at empty cycle c for the caller to fill with an
// instruction, growing the schedule as needed and updating hi and the gap
// count. The caller counts the instruction in Ops or Moves.
func (t *tileState) occupy(c int) *Slot {
	t.gaps += t.gapDelta(c)
	t.hi = max(t.hi, int32(c)+1)
	t.hopGen = 0
	return t.slotAt(c)
}

// gapDelta returns how the gap count changes if cycle c takes an
// instruction. Each gap ends just before an occupied cycle, so the count
// is the number of occupied cycles above 0 with an empty cycle before
// them: only c itself and c+1 can change it.
func (t *tileState) gapDelta(c int) int32 {
	if t.occupied(c) {
		return 0
	}
	var d int32
	if c > 0 && !t.occupied(c-1) {
		d++
	}
	if t.occupied(c + 1) {
		d--
	}
	return d
}

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
	t.hopGen = 0
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

// words returns the tile's context words for the block so far: its
// instructions plus one pnop per leading or interior gap. Future
// insertions can only keep or grow that count, so it is a safe lower
// bound (the ECMAP filter). With trailing set, the idle run after the
// last instruction up to horizon is also charged — the pessimistic ACMAP
// estimate, which can over- or under-shoot the final count; an idle tile
// then owes one pnop for the whole block. horizon must not lie below hi.
func (t *tileState) words(horizon int, trailing bool) int {
	w := t.Ops + t.Moves + int(t.gaps)
	if trailing && int(t.hi) < horizon {
		w++
	}
	return w
}

// wordsIfOccupied counts the tile's interior words as if cycle c
// additionally held an instruction — used to price the pnop
// fragmentation a placement would cause.
func (t *tileState) wordsIfOccupied(c int) int {
	return t.Ops + t.Moves + 1 + int(t.gaps+t.gapDelta(c))
}

// locRef is one node's location list, locPool[off:off+n] of the arena
// holding the partial; n == 0 means unplaced. l[0] is the production (or
// symbol home).
type locRef struct{ off, n int32 }

// partial is one partial mapping of the block being mapped: a point of the
// design space the beam search explores. Its tile schedules and location
// lists are shared copy-on-write with the partials it was cloned from or
// into: read them freely, write tiles only through tileW and locations
// only through addLoc and locsW.
type partial struct {
	// ar is the arena whose buffers and location pool the partial holds.
	ar    *mapperArena
	tiles []*tileState
	// locs[n] locates where node n's value is live in ar.locPool.
	locs []locRef
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
	// newHomes records symbol homes pinned while mapping this block, one
	// entry per symbol; the winning partial's pins are promoted to the
	// global table on commit.
	newHomes []symHome

	maxCycle   int // schedule length so far (last occupied cycle + 1)
	moves      int
	recomputes int
	cost       float64

	// blMask caches the CAB blacklist while blValid; any mutation of the
	// binding state clears blValid via touch.
	blMask  uint32
	blValid bool
}

// symHome is a symbol home pinned in the block being mapped.
type symHome struct {
	sym string
	at  SymLoc
}

// newHome returns the home pinned for symbol s in this block, if any.
func (p *partial) newHome(s string) (SymLoc, bool) {
	for _, h := range p.newHomes {
		if h.sym == s {
			return h.at, true
		}
	}
	return SymLoc{}, false
}

// pinHome records symbol s's home, replacing an earlier pin.
func (p *partial) pinHome(s string, at SymLoc) {
	for i := range p.newHomes {
		if p.newHomes[i].sym == s {
			p.newHomes[i].at = at
			return
		}
	}
	p.newHomes = append(p.newHomes, symHome{sym: s, at: at})
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

// locsOf returns where node n's value is live; empty means unplaced. The
// slice reads the pool, whose entries are never rewritten in place, so it
// stays valid across later writes.
func (p *partial) locsOf(n cdfg.NodeID) []loc {
	r := p.locs[n]
	return p.ar.locPool[r.off : r.off+r.n : r.off+r.n]
}

// addLoc records a new place node n's value is live. A list that ends the
// pool grows in place: a partial sharing the old reference still reads
// only its own entries. Any other list is first copied to the pool's end.
func (p *partial) addLoc(n cdfg.NodeID, l loc) {
	ar, r := p.ar, &p.locs[n]
	if int(r.off+r.n) != len(ar.locPool) {
		p.locsW(n)
	}
	ar.locPool = append(ar.locPool, l)
	r.n++
}

// locsW copies node n's location list to the end of the pool and returns
// the private copy for rewriting. The slice is valid until the next
// location write.
func (p *partial) locsW(n cdfg.NodeID) []loc {
	ar, r := p.ar, &p.locs[n]
	off := int32(len(ar.locPool))
	ar.locPool = append(ar.locPool, ar.locPool[r.off:r.off+r.n]...)
	r.off = off
	return ar.locPool[off : off+r.n]
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
