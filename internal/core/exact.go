package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/obs"
)

// DefaultExactNodeBudget bounds the exact backend's search when
// Options.ExactNodeBudget does not set one. The unit is candidate partial
// mappings — the same work unit Stats.Partials counts for the heuristic —
// so equal budgets mean comparable wall time across backends.
const DefaultExactNodeBudget = 200_000

const intMax = int(^uint(0) >> 1)

// ExactBackend is the branch-and-bound mapper: a depth-first search over
// the same binder move set as the heuristic (every feasible placement and
// routing of each node in the canonical list-schedule order), pruned by
// an admissible context-word lower bound and a conflict cache of
// fully-refuted search states, with no stochastic sampling and no beam.
//
// The search is warm-started from the heuristic's mapping, which becomes
// the initial incumbent: the exact backend therefore never returns a
// mapping costlier than the heuristic's (the invariant the differential
// oracle and the optimality golden tests pin). Within the node budget the
// search is exhaustive over its move space; when it completes without
// exhausting the budget, the result is optimal within that space and
// Stats.Exact.Proven is set.
type ExactBackend struct{}

// Name implements Backend.
func (ExactBackend) Name() string { return "exact" }

// Capabilities implements Backend. The exact backend is exhaustive: one
// portfolio job regardless of the seed count, since the seed only moves
// its warm start. Budget exhaustion or cancellation returns the best
// mapping found so far.
func (ExactBackend) Capabilities() Capabilities {
	return Capabilities{Exhaustive: true}
}

// resolveExactBudget picks the node budget: the explicit option, else the
// default.
func resolveExactBudget(opt *Options) int {
	if opt.ExactNodeBudget > 0 {
		return opt.ExactNodeBudget
	}
	return DefaultExactNodeBudget
}

// Map implements Backend.
func (ExactBackend) Map(ctx context.Context, g *cdfg.Graph, grid *arch.Grid, opt Options) (*Mapping, error) {
	start := time.Now()
	if ctx != nil {
		opt.ctx = ctx
	}
	opt.sanitize()
	if err := cdfg.Verify(g); err != nil {
		return nil, fmt.Errorf("core: invalid graph: %w", err)
	}
	if err := grid.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid grid: %w", err)
	}
	ar := opt.arena
	if ar == nil {
		ar = getArena()
		defer putArena(ar)
	}
	var sp obs.Span
	if opt.Obs.Enabled() {
		opt.Obs.Counter("core.backend.exact.maps").Inc()
		sp = opt.Obs.StartSpan("core.map.exact", "core", opt.ObsTID)
	}

	// Warm start: the heuristic's mapping is the incumbent the search must
	// strictly beat. Its cost is also the exact backend's worst case.
	warmOpt := opt
	warmOpt.arena = ar
	incumbent, warmErr := Map(g, grid, warmOpt)
	warmWords := intMax
	if incumbent != nil {
		warmWords = incumbent.TotalWords()
	}

	var searchStats Stats
	s := &exactSearch{
		g:         g,
		grid:      grid,
		opt:       &opt,
		ar:        ar,
		order:     cdfg.Traversal(g, opt.Traversal),
		numTiles:  grid.NumTiles(),
		budget:    resolveExactBudget(&opt),
		bestWords: warmWords,
		mst:       &searchStats,
		nogood:    map[uint64]struct{}{},
	}
	s.st.NodeBudget = s.budget
	s.st.WarmWords = -1
	if incumbent != nil {
		s.st.WarmWords = warmWords
	}
	// suffixFloor[i] is an admissible lower bound on the words the blocks
	// at traversal positions >= i must still add: any block scheduling at
	// least one operation ends with schedule length >= 1, which costs
	// every tile at least one word (an instruction or a whole-block pnop).
	s.suffixFloor = make([]int, len(s.order)+1)
	s.blockFloor = make([]int, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		for _, nd := range g.Blocks[s.order[i]].Nodes {
			if nd.Op != cdfg.OpConst && nd.Op != cdfg.OpSym {
				s.blockFloor[i] = s.numTiles
				break
			}
		}
		s.suffixFloor[i] = s.suffixFloor[i+1] + s.blockFloor[i]
	}

	complete := s.run()
	s.st.Proven = complete && !s.stopped

	// Strict improvement replaces the incumbent; otherwise the warm-start
	// mapping (already dataflow-checked and memory-checked by Map) stands.
	result := incumbent
	resultStats := Stats{}
	if incumbent != nil {
		resultStats = incumbent.Stats
	}
	if s.best != nil {
		result = s.best
		resultStats = searchStats
	}
	if s.st.WarmWords >= 0 || s.best != nil {
		w := s.bestWords
		if s.best == nil {
			w = warmWords
		}
		s.st.BestWords = w
	} else {
		s.st.BestWords = -1
	}
	if opt.Obs.Enabled() {
		recordExactStats(opt.Obs, &s.st)
		sp.End(map[string]any{
			"kernel": g.Name, "grid": grid.Name, "flow": opt.Flow.String(),
			"expanded": s.st.Expanded, "proven": s.st.Proven,
			"warm": s.st.WarmWords, "best": s.st.BestWords,
		})
	}
	if result == nil {
		if cerr := opt.ctxErr(); cerr != nil {
			return nil, fmt.Errorf("core: exact mapping of %q onto %s: %w", g.Name, grid.Name, cerr)
		}
		return nil, fmt.Errorf("core: exact backend found no mapping of %q onto %s (warm start: %w)",
			g.Name, grid.Name, warmErr)
	}
	result.Stats = resultStats
	result.Stats.CompileTime = time.Since(start)
	result.Stats.Exact = s.st
	return result, nil
}

// exactSearch carries one branch-and-bound run. It is single-goroutine
// and borrows the same mapperArena machinery as the heuristic; every
// candidate that fits is realized into a self-contained partial before
// the search recurses, because candidate plans live in arena chunks that
// die at the next bind step.
type exactSearch struct {
	g        *cdfg.Graph
	grid     *arch.Grid
	opt      *Options
	ar       *mapperArena
	order    []cdfg.BBID
	numTiles int

	// suffixFloor/blockFloor: admissible remaining-block word floors, by
	// traversal position (see Map).
	suffixFloor []int
	blockFloor  []int

	budget  int  // node expansions remaining; exhaustion sets stopped
	stopped bool // budget exhausted or ctx cancelled: unwind without recording

	best      *Mapping // strict improvements over the warm start only
	bestWords int      // incumbent cost (warm start until beaten)

	// nogood records fingerprints of fully-explored search states. The
	// incumbent cost only tightens over the run, so a state whose subtree
	// was once exhausted without improving it can never improve it later —
	// revisits are pruned (the conflict-driven half of the pruning). A
	// 64-bit fingerprint collision can at worst suppress a subtree that
	// was not actually explored, costing completeness of the search (the
	// Proven flag), never legality and never the <=-heuristic guarantee,
	// which the warm-start incumbent carries unconditionally.
	nogood map[uint64]struct{}

	st  ExactStats
	mst *Stats // plumbed into bbCtx for the shared binder machinery
}

// run explores every block in traversal order; the return value reports
// whether the whole space was explored (vs cut by budget/ctx).
func (s *exactSearch) run() bool {
	acc := &exactAcc{
		blocks:   make([]*BlockMapping, len(s.g.Blocks)),
		used:     make([]int, s.numTiles),
		consts:   make([][]int32, s.numTiles),
		usedRegs: make([]uint16, s.numTiles),
		symHomes: map[string]SymLoc{},
	}
	if len(s.order) == 0 {
		return true
	}
	// The warm start's partials are all back on the arena: the search
	// starts on an empty location pool.
	s.ar.resetLocs()
	return s.searchBlock(0, acc)
}

// exactAcc is the committed cross-block state at one point of the search:
// the mirror of Map's used/consts/usedRegs/SymHomes accumulators, copied
// per branch so sibling subtrees cannot observe each other's commits.
type exactAcc struct {
	blocks   []*BlockMapping // indexed by BBID; nil while unmapped
	used     []int
	consts   [][]int32
	usedRegs []uint16
	symHomes map[string]SymLoc
	words    int    // total context words committed so far
	sig      uint64 // deterministic fingerprint of the committed prefix
}

// searchBlock builds the block's binder context exactly like Map does and
// starts the in-block DFS. Budget and soft slices are freshly allocated —
// unlike the heuristic's single-block-at-a-time loop, the exact search
// holds contexts for several blocks alive at once (the recursion), so the
// arena's shared per-block buffers would alias.
func (s *exactSearch) searchBlock(bi int, acc *exactAcc) bool {
	if s.cutoff() {
		return false
	}
	block := s.g.Blocks[s.order[bi]]
	n := s.numTiles
	reserve := len(s.order) - bi - 1
	cx := &bbCtx{
		grid:     s.grid,
		block:    block,
		opt:      s.opt,
		arena:    s.ar,
		budget:   make([]int, n),
		soft:     make([]int, n),
		sched:    cdfg.Analyze(block),
		users:    cdfg.Users(block),
		symHomes: acc.symHomes,
		cab:      s.opt.Flow >= FlowCAB,
		hopsBuf:  make([]arch.TileID, 0, s.grid.Rows+s.grid.Cols+2),
	}
	cx.liveOutTables(nil, nil)
	homesOn := make([]int, n)
	for _, h := range acc.symHomes {
		homesOn[h.Tile] += 2
	}
	for t := range cx.budget {
		if s.opt.Flow.memoryAware() {
			cx.budget[t] = s.grid.Tile(arch.TileID(t)).CMWords - acc.used[t] - reserve
			cx.soft[t] = cx.budget[t] - homesOn[t]
		} else {
			cx.budget[t] = unconstrained
			cx.soft[t] = unconstrained
		}
	}
	// nil arena: the order must survive the whole subtree, not just until
	// the next mapBlock on this arena.
	order := scheduleOrderInto(block, cx.sched, cx.users, nil)
	init := cx.initialPartial(acc.consts, acc.usedRegs)
	complete := s.dfs(cx, bi, acc, order, 0, init)
	s.ar.putPartial(init)
	return complete
}

// cutoff reports whether the search must unwind (ctx cancelled or budget
// exhausted) and latches the condition.
func (s *exactSearch) cutoff() bool {
	if s.stopped {
		return true
	}
	if s.budget <= 0 || s.opt.ctxErr() != nil {
		s.stopped = true
		return true
	}
	return false
}

// boundedOut applies the admissible lower bound: words already committed,
// plus the current partial's interior word count per tile (monotone
// non-decreasing under further bindings — see gapGroups), plus one word
// per tile that is still idle in a block that will have length >= 1, plus
// the remaining blocks' floors. When the bound reaches the incumbent the
// subtree cannot contain a strict improvement.
func (s *exactSearch) boundedOut(bi int, acc *exactAcc, p *partial) bool {
	lb := acc.words + s.suffixFloor[bi+1]
	horizon := p.maxCycle
	idle := horizon > 0 || s.blockFloor[bi] > 0
	for t := range p.tiles {
		w := p.tiles[t].words(horizon, false)
		if w == 0 && idle {
			w = 1
		}
		lb += w
	}
	return lb >= s.bestWords
}

// childFits is the only in-flight memory filter the exact search uses:
// the interior word count of the child cand would realize against the
// hard budget. It is monotone (a violating child can never finalize
// within budget), unlike the heuristic's headroom/pending-writeback
// variants, which are calibrated to prune eagerly and would cut feasible
// leaves from an exact search.
func (s *exactSearch) childFits(cx *bbCtx, cand *candidate) bool {
	if !s.opt.Flow.memoryAware() {
		return true
	}
	f := &s.ar.fp
	cx.candFootprint(cand, f)
	for t, b := range cx.budget {
		if f.words[t] > b {
			return false
		}
	}
	return true
}

// dfs binds order[oi] in every feasible way and recurses. The return
// value reports whether the subtree was fully explored — the condition
// for recording its root as a nogood.
func (s *exactSearch) dfs(cx *bbCtx, bi int, acc *exactAcc, order []cdfg.NodeID, oi int, p *partial) bool {
	if s.cutoff() {
		return false
	}
	if oi == len(order) {
		return s.finishBlock(cx, bi, acc, p)
	}
	if s.boundedOut(bi, acc, p) {
		s.st.BoundPruned++
		return true // provably no improvement below: counts as explored
	}
	key := s.fingerprint(bi, oi, acc, p)
	if _, dup := s.nogood[key]; dup {
		s.st.ConflictPruned++
		return true
	}
	s.st.Expanded++

	n := order[oi]
	// New bind step: the plan chunks reset. Every candidate that fits must
	// be realized into a self-contained child before any recursion, which
	// resets the chunks again.
	s.ar.bindReset()
	cs := &s.ar.stream
	cs.reset(cx, n, s.mst)
	cs.enumerate(p, 0, s.opt.MaxSlack, false)
	if !cs.ready() {
		// Last-resort reroute region past the current makespan, exactly
		// like the heuristic's tail escalation (it skips the cycles the
		// pass above already found empty).
		cs.reset(cx, n, s.mst)
		cs.enumerate(p, 0, s.opt.MaxSlack, true)
	}

	var children []*partial
	for ci := cs.next(); ci >= 0; ci = cs.next() {
		if s.budget <= 0 {
			s.stopped = true
			break
		}
		cand := &cs.cands[ci]
		s.budget--
		s.mst.Partials++
		s.mst.Recomputes += cand.recomputes()
		if !s.childFits(cx, cand) {
			s.st.MemPruned++
			continue
		}
		children = append(children, cx.apply(cand))
	}
	// The stream is done with before any recursion (drained, or abandoned
	// with the search stopped): deeper dfs levels reuse it.
	complete := !s.stopped
	for _, child := range children {
		if !s.stopped && !s.dfs(cx, bi, acc, order, oi+1, child) {
			complete = false
		}
		s.ar.putPartial(child)
	}
	if complete && !s.stopped {
		// Fully explored without improvement potential left: any later
		// visit of the same state faces an equal-or-tighter incumbent.
		s.nogood[key] = struct{}{}
	}
	return complete && !s.stopped
}

// finishBlock finalizes a fully-bound block (symbol writebacks), applies
// the flow's end-of-block memory check exactly as mapBlock does, commits
// the block and recurses into the next one on an extended accumulator.
func (s *exactSearch) finishBlock(cx *bbCtx, bi int, acc *exactAcc, p *partial) bool {
	if s.cutoff() {
		return false
	}
	s.budget--
	s.st.Leaves++
	clone := s.ar.getPartial()
	s.ar.cloneInto(clone, p)
	if err := cx.finalize(clone); err != nil {
		s.ar.putPartial(clone)
		return true // infeasible leaf: explored
	}
	switch {
	case s.opt.Flow >= FlowECMAP && !cx.ecmapOK(clone):
		s.ar.putPartial(clone)
		return true
	case s.opt.Flow == FlowACMAP && !cx.acmapOK(clone):
		s.ar.putPartial(clone)
		return true
	}
	bm := cx.commit(clone)
	next := acc.extend(s, bi, bm, clone)
	s.ar.putPartial(clone)
	if next == nil {
		s.st.BoundPruned++
		return true
	}
	if bi+1 == len(s.order) {
		return s.recordComplete(next)
	}
	return s.searchBlock(bi+1, next)
}

// extend returns the accumulator for the next block after committing bm,
// or nil when the committed words already reach the incumbent (bound).
func (acc *exactAcc) extend(s *exactSearch, bi int, bm *BlockMapping, win *partial) *exactAcc {
	n := s.numTiles
	next := &exactAcc{
		blocks:   append([]*BlockMapping(nil), acc.blocks...),
		used:     append([]int(nil), acc.used...),
		consts:   make([][]int32, n),
		usedRegs: append([]uint16(nil), acc.usedRegs...),
		symHomes: make(map[string]SymLoc, len(acc.symHomes)+len(win.newHomes)),
		words:    acc.words,
	}
	next.blocks[s.order[bi]] = bm
	for t := 0; t < n; t++ {
		w := bm.Words(arch.TileID(t))
		next.used[t] += w
		next.words += w
		next.consts[t] = append([]int32(nil), win.tiles[t].Consts...)
		next.usedRegs[t] |= win.tiles[t].EverUsed
	}
	for k, v := range acc.symHomes {
		next.symHomes[k] = v
	}
	for _, h := range win.newHomes {
		next.symHomes[h.sym] = h.at
	}
	if next.words+s.suffixFloor[bi+1] >= s.bestWords {
		return nil
	}
	next.sig = next.fingerprintAcc()
	return next
}

// recordComplete runs the same whole-program post-conditions as Map on a
// complete candidate mapping and installs it as the incumbent when it is
// a strict improvement. Leaves the checks reject are skipped, keeping the
// backend's output verifier-clean by construction.
func (s *exactSearch) recordComplete(acc *exactAcc) bool {
	m := &Mapping{
		Graph:    s.g,
		Grid:     s.grid,
		Flow:     s.opt.Flow,
		Blocks:   append([]*BlockMapping(nil), acc.blocks...),
		SymHomes: make(map[string]SymLoc, len(acc.symHomes)),
	}
	for k, v := range acc.symHomes {
		m.SymHomes[k] = v
	}
	if s.opt.Flow.memoryAware() {
		if ok, _ := m.FitsMemory(); !ok {
			return true
		}
	}
	if dataflowCheck != nil {
		if err := dataflowCheck(m); err != nil {
			// A nonzero count means the committing machinery accepted a
			// schedule the symbolic checker refutes — worth surfacing in
			// the stats, but never worth returning.
			s.st.DataflowRejected++
			return true
		}
	}
	if acc.words < s.bestWords {
		s.best, s.bestWords = m, acc.words
		s.st.Improved++
	}
	return true
}

// fnv1a is a tiny deterministic accumulator for search-state
// fingerprints. hash/maphash would be faster but is seeded per process,
// and the nogood cache must behave identically across runs for the
// backend's output to be reproducible.
type fnv1a uint64

const fnvOffset fnv1a = 14695981039346656037
const fnvPrime uint64 = 1099511628211

func (h *fnv1a) u64(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= fnvPrime
		v >>= 8
	}
	*h = fnv1a(x)
}

func (h *fnv1a) i(v int) { h.u64(uint64(int64(v))) }
func (h *fnv1a) b(v bool) {
	if v {
		h.u64(1)
	} else {
		h.u64(0)
	}
}
func (h *fnv1a) str(s string) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= fnvPrime
	}
	*h = fnv1a(x)
}

// fingerprintAcc hashes the committed cross-block state. Symbol homes are
// walked in sorted order: map iteration order must never leak into the
// fingerprint, or the nogood cache (and with it the search under a
// budget) would differ between runs.
func (acc *exactAcc) fingerprintAcc() uint64 {
	h := fnvOffset
	h.i(acc.words)
	for _, u := range acc.used {
		h.i(u)
	}
	for _, r := range acc.usedRegs {
		h.u64(uint64(r))
	}
	for _, cs := range acc.consts {
		h.i(len(cs))
		for _, c := range cs {
			h.u64(uint64(uint32(c)))
		}
	}
	syms := make([]string, 0, len(acc.symHomes))
	for s := range acc.symHomes {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	for _, s := range syms {
		loc := acc.symHomes[s]
		h.str(s)
		h.i(int(loc.Tile))
		h.i(int(loc.Reg))
	}
	return uint64(h)
}

// fingerprint hashes the full semantic state of one search node: the
// committed prefix, the position, and everything in the partial a future
// binding decision can observe (schedule slots, value locations, register
// hazards, holds, constants, freshly pinned homes).
func (s *exactSearch) fingerprint(bi, oi int, acc *exactAcc, p *partial) uint64 {
	h := fnv1a(acc.sig)
	if h == 0 {
		h = fnvOffset
	}
	h.i(bi)
	h.i(oi)
	h.i(p.maxCycle)
	h.i(p.moves)
	for t, ts := range p.tiles {
		h.i(t)
		h.u64(uint64(ts.RegMask))
		h.u64(uint64(ts.EverUsed))
		h.i(ts.Ops)
		h.i(ts.Moves)
		for c := range ts.Slots {
			sl := &ts.Slots[c]
			if sl.Kind == SlotEmpty {
				continue
			}
			h.i(c)
			h.i(int(sl.Kind))
			h.i(int(sl.Node))
			h.i(sl.NSrc)
			h.b(sl.WB)
			h.i(int(sl.WReg))
			h.b(sl.Dup)
			for i := 0; i < sl.NSrc; i++ {
				src := sl.Srcs[i]
				h.i(int(src.Kind))
				h.i(int(src.Dir))
				h.i(int(src.Reg))
				h.u64(uint64(uint32(src.Val)))
			}
		}
		for _, hd := range ts.Holds {
			h.i(hd.Prod)
			h.i(hd.Last)
		}
		h.i(len(ts.Consts))
		for _, c := range ts.Consts {
			h.u64(uint64(uint32(c)))
		}
	}
	for n := range p.locs {
		ls := p.locsOf(cdfg.NodeID(n))
		if len(ls) == 0 {
			continue
		}
		h.i(n)
		h.i(len(ls))
		for _, l := range ls {
			h.i(int(l.Tile))
			h.i(l.Cycle)
			h.i(int(l.Reg))
		}
	}
	for _, v := range p.regLastRead {
		h.i(int(v))
	}
	for _, v := range p.regLastWrite {
		h.i(int(v))
	}
	for _, v := range p.regWriteCycle {
		h.i(int(v))
	}
	if len(p.newHomes) > 0 {
		homes := slices.Clone(p.newHomes)
		slices.SortFunc(homes, func(a, b symHome) int { return strings.Compare(a.sym, b.sym) })
		for _, sh := range homes {
			h.str(sh.sym)
			h.i(int(sh.at.Tile))
			h.i(int(sh.at.Reg))
		}
	}
	return uint64(h)
}
