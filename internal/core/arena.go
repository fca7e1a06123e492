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
//   - An arena is single-goroutine. Map and ExactBackend.Map take one
//     from the process-wide free list (getArena) and put it back when
//     they return; each MapPortfolio worker holds one for its whole
//     lifetime and hands it to its jobs in Options.arena, as the exact
//     backend does to its warm-start Map. Map's side-by-side retry
//     attempts run one worker on the Map's arena and every other worker
//     on a child arena that arena owns (child), so children come and go
//     with their parent.
//   - The free list is LIFO and the GC never empties it: a caller that
//     maps on one goroutine gets back the arena it just returned, so its
//     allocation count stays at steady state across GCs. The list holds
//     at most the peak number of arenas held at once (one per concurrent
//     Map, exact search or portfolio worker), and keeps them for the life
//     of the process.
//   - Partials share buffers copy-on-write. A partial owns only its
//     headers: the tile and location pointer arrays, the three register
//     hazard arrays, its symbol-home map and scalars. Each tile schedule
//     (tileState) and each node's location list (locBuf) is a buffer
//     that every partial pointing at it shares; its refs field counts
//     them. cloneInto copies the headers and takes one more reference to
//     every buffer. tileW and locsW hand out a buffer for writing only at
//     refs == 1; a shared one is first copied into a private buffer and
//     the shared one loses a reference. So a write to one partial can
//     never show in another, and every write goes through those two
//     accessors.
//   - putPartial drops one reference per buffer; a buffer reaching zero
//     goes on the arena's free list, and only then is it handed out
//     again. Buffers never leave the arena whose partials hold them, so
//     the counts need no atomics. A recycled buffer is fully overwritten
//     before any partial reads it (reset for a new block, copyFrom for a
//     copy, a cleared location list), and a fresh partial's headers are
//     fully rewritten (resetPartial, cloneInto), so reuse cannot change
//     mapping results: identical Options + seed produce byte-identical
//     mappings (pinned by testdata/golden_mappings.txt).
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
	// free, tileFree and locFree are the free lists of partials and of
	// the tile and location buffers partials share; tilesMade and
	// locsMade count the buffers the arena ever made.
	free      []*partial
	tileFree  []*tileState
	locFree   []*locBuf
	tilesMade int
	locsMade  int

	// Map-level scratch (one Map call at a time).
	used     []int
	usedRegs []uint16
	consts   [][]int32
	homesOn  []int
	budget   []int
	soft     []int

	// Block-level scratch.
	stream   candStream
	children []*partial
	weights  []float64
	order    []cdfg.NodeID
	ready    []cdfg.NodeID
	pending  []int
	owed     []int8

	// frontierHeads' unbound-node membership, a stamped array standing
	// in for a per-step map, and its result.
	mark    []uint32
	markGen uint32
	heads   []cdfg.NodeID

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

	// attempts is Map's per-block attempt table and sub the child arenas
	// of its retry workers (see mapAttempts).
	attempts []blockAttempt
	sub      []*mapperArena
}

// arenas is the process-wide free list of idle arenas.
var arenas struct {
	mu   sync.Mutex
	free []*mapperArena
}

// getArena takes the most recently returned arena off the free list, or
// makes a fresh one when the list is empty.
func getArena() *mapperArena {
	arenas.mu.Lock()
	defer arenas.mu.Unlock()
	n := len(arenas.free)
	if n == 0 {
		return new(mapperArena)
	}
	a := arenas.free[n-1]
	arenas.free = arenas.free[:n-1]
	return a
}

// putArena returns an arena its holder is done with to the free list.
func putArena(a *mapperArena) {
	arenas.mu.Lock()
	arenas.free = append(arenas.free, a)
	arenas.mu.Unlock()
}

// child returns the i-th child arena, creating it on first use.
func (a *mapperArena) child(i int) *mapperArena {
	for len(a.sub) <= i {
		a.sub = append(a.sub, new(mapperArena))
	}
	return a.sub[i]
}

// hops returns the planChain hop scratch, empty. Its capacity covers the
// longest route a chain can take on g, the two-leg corner path, so hops
// never outgrow it and planChain can skip the capacity write-back.
func (a *mapperArena) hops(g *arch.Grid) []arch.TileID {
	if n := g.Rows + g.Cols + 2; cap(a.hopsBuf) < n {
		a.hopsBuf = make([]arch.TileID, 0, n)
	}
	return a.hopsBuf[:0]
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

// getPartial returns a recycled (or new) partial holding no buffers. The
// caller must fully initialize it via resetPartial or cloneInto before
// use.
func (a *mapperArena) getPartial() *partial {
	if n := len(a.free); n > 0 {
		p := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		return p
	}
	return &partial{ar: a}
}

// putPartial returns a dead partial to the free list and drops its
// references to the buffers it shares. The caller must guarantee nothing
// references it anymore.
func (a *mapperArena) putPartial(p *partial) {
	if p == nil {
		return
	}
	for _, ts := range p.tiles {
		ts.refs--
		if ts.refs == 0 {
			a.tileFree = append(a.tileFree, ts)
		}
	}
	for _, b := range p.locs {
		if b == nil {
			continue
		}
		b.refs--
		if b.refs == 0 {
			a.locFree = append(a.locFree, b)
		}
	}
	p.tiles, p.locs = p.tiles[:0], p.locs[:0]
	a.free = append(a.free, p)
}

// putPartials returns every partial of a dead list to the free list.
func (a *mapperArena) putPartials(ps []*partial) {
	for _, p := range ps {
		a.putPartial(p)
	}
}

// newTile returns a tile buffer with one reference and stale contents.
func (a *mapperArena) newTile() *tileState {
	n := len(a.tileFree)
	if n == 0 {
		a.tilesMade++
		return &tileState{refs: 1}
	}
	ts := a.tileFree[n-1]
	a.tileFree = a.tileFree[:n-1]
	ts.refs = 1
	return ts
}

// newLocs returns an empty location buffer with one reference.
func (a *mapperArena) newLocs() *locBuf {
	n := len(a.locFree)
	if n == 0 {
		a.locsMade++
		return &locBuf{refs: 1}
	}
	b := a.locFree[n-1]
	a.locFree = a.locFree[:n-1]
	b.l, b.refs = b.l[:0], 1
	return b
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
// a block on nTiles tiles, nNodes nodes and rrf registers per tile. Every
// tile gets a private empty buffer; every node is unplaced.
func (a *mapperArena) resetPartial(p *partial, nTiles, nNodes, rrf int) {
	for range nTiles {
		ts := a.newTile()
		ts.reset()
		p.tiles = append(p.tiles, ts)
	}
	if cap(p.locs) < nNodes {
		p.locs = make([]*locBuf, nNodes)
	}
	p.locs = p.locs[:nNodes]
	clear(p.locs)
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

// cloneInto makes the recycled dst a copy of src that shares every tile
// and location buffer with it: only the headers are copied.
func (a *mapperArena) cloneInto(dst, src *partial) {
	dst.tiles = append(dst.tiles[:0], src.tiles...)
	for _, ts := range src.tiles {
		ts.refs++
	}
	dst.locs = append(dst.locs[:0], src.locs...)
	for _, b := range src.locs {
		if b != nil {
			b.refs++
		}
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

// markBegin hands out the stamped membership array frontierHeads uses
// in place of a per-call map. gen identifies valid entries.
func (a *mapperArena) markBegin(n int) (mark []uint32, gen uint32) {
	if cap(a.mark) < n {
		a.mark = make([]uint32, n)
	}
	a.mark = a.mark[:n]
	a.markGen++
	if a.markGen == 0 { // wrapped: every stale mark looks current
		clear(a.mark)
		a.markGen = 1
	}
	return a.mark, a.markGen
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
