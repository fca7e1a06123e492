package core

import (
	"sync"

	"repro/internal/arch"
	"repro/internal/cdfg"
)

// This file owns the mapper's reusable scratch state. The schedule/bind/
// route cycle used to re-make every overlay slice, candidate list, visited
// set and partial mapping per candidate, which made the search
// allocation-bound (a single CAB map of NonSepFilter allocated 7M times).
// A mapperArena keeps all of that memory alive across candidates, blocks,
// Map calls and portfolio seeds; partial mappings are recycled through a
// free list the moment the beam drops them.
//
// Invariants:
//   - An arena is single-goroutine: Map never shares one, MapPortfolio
//     hands each worker its own, and the sync.Pool hands an arena to at
//     most one Map at a time.
//   - Recycled memory is always fully overwritten before reuse
//     (cloneInto / reset), so arena reuse cannot change mapping results:
//     identical Options + seed produce byte-identical mappings (pinned by
//     testdata/golden_mappings.txt).
//   - Plan chunks are reset at each bind step; committed partials copy
//     everything they keep out of plan memory, so no chunk pointer
//     survives a reset.

// chunk is a bump allocator for plan scratch ([]moveStep, []holdAdd, …).
// take carves a zero-length slice with exact capacity; appending past the
// capacity spills to the regular heap, which keeps correctness independent
// of the carve sizes. reset retains the largest block seen so far.
type chunk[T any] struct{ buf []T }

func (c *chunk[T]) take(n int) []T {
	if len(c.buf)+n > cap(c.buf) {
		sz := 2 * cap(c.buf)
		if sz < 1024 {
			sz = 1024
		}
		if sz < n {
			sz = n
		}
		// The old block stays alive through the slices already handed
		// out; it is garbage once the current bind step ends.
		c.buf = make([]T, 0, sz)
	}
	s := c.buf[len(c.buf) : len(c.buf) : len(c.buf)+n]
	c.buf = c.buf[:len(c.buf)+n]
	return s
}

func (c *chunk[T]) reset() { c.buf = c.buf[:0] }

// mapperArena owns every reusable buffer of one mapper goroutine.
type mapperArena struct {
	// free is the partial-mapping free list.
	free []*partial

	// Map-level scratch (one Map call at a time).
	used     []int
	usedRegs []uint16
	consts   [][]int32
	homesOn  []int
	budget   []int
	soft     []int

	// Block-level scratch.
	cands    []candidate
	candIdx  []int32
	children []*partial
	weights  []float64
	order    []cdfg.NodeID
	ready    []cdfg.NodeID
	pending  []int
	owed     []int8

	// frontierOf's per-node earliest-cycle estimates, a stamped array
	// standing in for the map the hot path used to allocate per child.
	est     []int
	estMark []uint32
	estGen  uint32

	// overlay is the single in-flight candidate overlay (planCandidate
	// never nests) and affTiles the affected-tile scratch list.
	overlay  overlay
	affTiles []arch.TileID

	// Plan scratch chunks, reset per bind step.
	moves   chunk[moveStep]
	holds   chunk[holdAdd]
	reads   chunk[regRead]
	consta  chunk[constAdd]
	plans   chunk[argPlan]
	pins    chunk[pinStep]
	retros  chunk[wbRetro]
	recomps chunk[recompStep]

	// pathCache memoizes the canonical torus routes per (from, to) pair.
	// It depends only on the grid topology, so it survives across Map
	// calls and is invalidated when the arena sees a different grid shape.
	pathCache [][][]arch.TileID
	pathRows  int
	pathCols  int
	hopsBuf   []arch.TileID
}

var arenaPool = sync.Pool{New: func() any { return new(mapperArena) }}

func getArena() *mapperArena  { return arenaPool.Get().(*mapperArena) }
func putArena(a *mapperArena) { arenaPool.Put(a) }

// Arena is a reusable bundle of mapper scratch state. Callers that map
// many graphs on one goroutine (the experiment runner's workers, long
// sweeps) can allocate one Arena and thread it through Options.WithArena
// so every Map call reuses the same memory; Map calls without an explicit
// arena draw one from an internal sync.Pool. An Arena must not be used by
// two goroutines at once.
type Arena struct{ a *mapperArena }

// NewArena returns a fresh arena.
func NewArena() *Arena { return &Arena{a: new(mapperArena)} }

// WithArena returns a copy of the options that runs the mapper on the
// given arena. A nil arena leaves the options unchanged.
func (o Options) WithArena(ar *Arena) Options {
	if ar != nil {
		o.arena = ar.a
	}
	return o
}

// bindReset starts a new bind step: every plan chunk dies (committed
// partials have already copied what they keep).
func (a *mapperArena) bindReset() {
	a.moves.reset()
	a.holds.reset()
	a.reads.reset()
	a.consta.reset()
	a.plans.reset()
	a.pins.reset()
	a.retros.reset()
	a.recomps.reset()
}

// getPartial returns a recycled (or new) partial. The caller must fully
// initialize it via resetPartial or cloneInto before use.
func (a *mapperArena) getPartial() *partial {
	if n := len(a.free); n > 0 {
		p := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		return p
	}
	return &partial{}
}

// putPartial returns a dead partial to the free list. The caller must
// guarantee nothing references it anymore.
func (a *mapperArena) putPartial(p *partial) {
	if p != nil {
		a.free = append(a.free, p)
	}
}

// intsBuf resizes buf to n, zero-filled.
func intsBuf(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// resetPartial prepares a recycled partial as the empty initial state for
// a block on nTiles tiles, nNodes nodes and rrf registers per tile.
func (a *mapperArena) resetPartial(p *partial, nTiles, nNodes, rrf int) {
	for cap(p.tiles) < nTiles {
		p.tiles = append(p.tiles[:cap(p.tiles)], tileState{})
	}
	p.tiles = p.tiles[:nTiles]
	for t := range p.tiles {
		ts := &p.tiles[t]
		slots, holds, consts := ts.Slots[:0], ts.Holds[:0], ts.Consts[:0]
		*ts = tileState{Slots: slots, Holds: holds, Consts: consts, cacheHorizon: -1}
	}
	if cap(p.locs) < nNodes {
		p.locs = make([][]loc, nNodes)
	}
	p.locs = p.locs[:nNodes]
	for i := range p.locs {
		p.locs[i] = p.locs[i][:0]
	}
	n := nTiles * rrf
	if cap(p.regLastRead) < n {
		p.regLastRead = make([]int16, n)
		p.regLastWrite = make([]int16, n)
		p.regWriteCycle = make([]int16, n)
	}
	p.regLastRead = p.regLastRead[:n]
	p.regLastWrite = p.regLastWrite[:n]
	p.regWriteCycle = p.regWriteCycle[:n]
	for i := 0; i < n; i++ {
		p.regLastRead[i] = -1
		p.regLastWrite[i] = -1
		p.regWriteCycle[i] = noWrite
	}
	if p.newHomes != nil {
		clear(p.newHomes)
	}
	p.maxCycle, p.moves, p.recomputes, p.checkedTo = 0, 0, 0, 0
	p.cost = 0
	p.touch()
}

// cloneInto deep-copies src into the recycled dst, reusing every slice
// capacity dst already owns. It replaces the allocating partial.clone on
// the bind hot path.
func (a *mapperArena) cloneInto(dst, src *partial) {
	for cap(dst.tiles) < len(src.tiles) {
		dst.tiles = append(dst.tiles[:cap(dst.tiles)], tileState{})
	}
	dst.tiles = dst.tiles[:len(src.tiles)]
	for i := range src.tiles {
		s, d := &src.tiles[i], &dst.tiles[i]
		slots := append(d.Slots[:0], s.Slots...)
		holds := append(d.Holds[:0], s.Holds...)
		consts := append(d.Consts[:0], s.Consts...)
		*d = *s
		d.Slots, d.Holds, d.Consts = slots, holds, consts
	}
	if cap(dst.locs) < len(src.locs) {
		dst.locs = make([][]loc, len(src.locs))
	}
	dst.locs = dst.locs[:len(src.locs)]
	for i := range src.locs {
		dst.locs[i] = append(dst.locs[i][:0], src.locs[i]...)
	}
	dst.regLastRead = append(dst.regLastRead[:0], src.regLastRead...)
	dst.regLastWrite = append(dst.regLastWrite[:0], src.regLastWrite...)
	dst.regWriteCycle = append(dst.regWriteCycle[:0], src.regWriteCycle...)
	if src.newHomes != nil {
		if dst.newHomes == nil {
			dst.newHomes = make(map[string]SymLoc, len(src.newHomes))
		} else {
			clear(dst.newHomes)
		}
		for k, v := range src.newHomes {
			dst.newHomes[k] = v
		}
	} else if dst.newHomes != nil {
		clear(dst.newHomes)
	}
	dst.maxCycle = src.maxCycle
	dst.moves = src.moves
	dst.recomputes = src.recomputes
	dst.cost = src.cost
	dst.checkedTo = src.checkedTo
	dst.touch()
}

// frontierBegin hands out the stamped estimate arrays frontierOf uses in
// place of a per-call map. gen identifies valid entries.
func (a *mapperArena) frontierBegin(n int) (est []int, mark []uint32, gen uint32) {
	if cap(a.est) < n {
		a.est = make([]int, n)
		a.estMark = make([]uint32, n)
	}
	a.est = a.est[:n]
	a.estMark = a.estMark[:n]
	a.estGen++
	if a.estGen == 0 { // wrapped: every stale mark looks current
		for i := range a.estMark {
			a.estMark[i] = 0
		}
		a.estGen = 1
	}
	return a.est, a.estMark, a.estGen
}

// owedBuf returns the pendingWB scratch, zeroed. Only one pendingWB result
// is ever alive at a time.
func (a *mapperArena) owedBuf(n int) []int8 {
	if cap(a.owed) < n {
		a.owed = make([]int8, n)
	}
	a.owed = a.owed[:n]
	for i := range a.owed {
		a.owed[i] = 0
	}
	return a.owed
}

// overlayReset clears and returns the single in-flight overlay.
func (a *mapperArena) overlayReset() *overlay {
	o := &a.overlay
	o.claimed = o.claimed[:0]
	o.prods = o.prods[:0]
	o.holds = o.holds[:0]
	o.retros = o.retros[:0]
	o.regs = o.regs[:0]
	o.consts = o.consts[:0]
	return o
}

// paths returns the row-first and column-first shortest torus paths from a
// to b (deduplicated when they coincide), memoized per grid shape. Paths
// exclude a, include b. The cache survives across blocks and Map calls:
// the routing search asks for the same pairs thousands of times.
func (a *mapperArena) paths(cx *bbCtx, from, to arch.TileID) [][]arch.TileID {
	n := cx.grid.NumTiles()
	if a.pathCache == nil || a.pathRows != cx.grid.Rows || a.pathCols != cx.grid.Cols {
		a.pathCache = make([][][]arch.TileID, n*n)
		a.pathRows, a.pathCols = cx.grid.Rows, cx.grid.Cols
	}
	key := int(from)*n + int(to)
	if ps := a.pathCache[key]; ps != nil {
		return ps
	}
	ps := cx.computePaths(from, to)
	a.pathCache[key] = ps
	return ps
}
