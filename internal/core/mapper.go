package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/obs"
)

// unconstrained is the per-tile budget used by the basic flow, which
// ignores context-memory sizes entirely.
const unconstrained = 1 << 30

// Map maps the CDFG onto the CGRA configuration under the given options.
// It returns an error when the flow cannot find a mapping satisfying its
// constraints — the "no mapping solution" outcomes of the paper's Figs
// 6–8.
func Map(g *cdfg.Graph, grid *arch.Grid, opt Options) (*Mapping, error) {
	start := time.Now()
	opt.sanitize()
	if err := cdfg.Verify(g); err != nil {
		return nil, fmt.Errorf("core: invalid graph: %w", err)
	}
	if err := grid.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid grid: %w", err)
	}

	// The arena owns every reusable scratch buffer of the search. The
	// exact backend and portfolio workers hand over theirs; otherwise one
	// comes off the process-wide free list for the duration of the call.
	ar := opt.arena
	if ar == nil {
		ar = getArena()
		defer putArena(ar)
	}

	m := &Mapping{
		Graph:    g,
		Grid:     grid,
		Flow:     opt.Flow,
		Blocks:   make([]*BlockMapping, len(g.Blocks)),
		SymHomes: map[string]SymLoc{},
	}
	if opt.Obs.Enabled() {
		sp := opt.Obs.StartSpan("core.map", "core", opt.ObsTID)
		defer func() {
			sp.End(map[string]any{"kernel": g.Name, "grid": grid.Name, "flow": opt.Flow.String()})
			recordMapStats(opt.Obs, &m.Stats, ar)
		}()
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	n := grid.NumTiles()
	used := intsBuf(ar.used, n)
	ar.used = used
	if cap(ar.consts) < n {
		ar.consts = make([][]int32, n)
	}
	consts := ar.consts[:n]
	for t := range consts {
		consts[t] = consts[t][:0]
	}
	// usedRegs accumulates every register any committed block touched:
	// symbol homes pinned later must avoid them, since an earlier block's
	// temp writeback executing between the symbol's definition and use
	// would clobber the home.
	if cap(ar.usedRegs) < n {
		ar.usedRegs = make([]uint16, n)
	}
	usedRegs := ar.usedRegs[:n]
	for i := range usedRegs {
		usedRegs[i] = 0
	}

	order := cdfg.Traversal(g, opt.Traversal)
	// floorSuffix[i] is the admissible word floor of the blocks still
	// unmapped when block order[i] starts (see WordLowerBound). Only
	// portfolio jobs carry an incumbent and pay for this.
	var floorSuffix []int
	if opt.incumbent != nil {
		floorSuffix = make([]int, len(order)+1)
		for i := len(order) - 1; i >= 0; i-- {
			floorSuffix[i] = floorSuffix[i+1] + blockWordFloor(g.Blocks[order[i]], n)
		}
	}
	for oi, bbid := range order {
		if err := opt.ctxErr(); err != nil {
			m.Stats.CompileTime = time.Since(start)
			return nil, &mapError{g.Name, grid.Name, err}
		}
		// Incumbent abort: once the words already committed plus the floor
		// of everything left provably cannot beat the portfolio's best
		// completed mapping, the rest of the search is wasted work. Checked
		// only between blocks (oi > 0: the portfolio already screened the
		// whole-graph bound before starting the job), and never after the
		// final block, so a mapping that runs to completion always reports
		// its real score.
		if opt.incumbent != nil && oi > 0 {
			committed := 0
			for _, w := range used {
				committed += w
			}
			if v, ok := opt.incumbent.prune(committed+floorSuffix[oi], opt.Seed, opt.incJob); ok {
				opt.Obs.Counter("core.map.incumbent_aborts").Inc()
				m.Stats.CompileTime = time.Since(start)
				return nil, fmt.Errorf("core: mapping %q onto %s: %w: committed %d + floor %d words vs incumbent %d",
					g.Name, grid.Name, ErrPrunedByIncumbent, committed, floorSuffix[oi], v)
			}
		}
		block := g.Blocks[bbid]
		// Every still-unmapped block will occupy at least one word (a
		// pnop) on every tile; the memory-aware flows reserve that floor
		// so early blocks cannot consume the entire context memory.
		reserve := len(order) - oi - 1
		cx := &bbCtx{
			grid:     grid,
			block:    block,
			opt:      &opt,
			arena:    ar,
			budget:   intsBuf(ar.budget, n),
			sched:    cdfg.Analyze(block),
			users:    cdfg.Users(block),
			symHomes: m.SymHomes,
			cab:      opt.Flow >= FlowCAB,
		}
		ar.budget = cx.budget
		cx.liveOutTables(ar.liveOut, ar.wbSyms)
		ar.liveOut, ar.wbSyms = cx.liveOutValues, cx.wbSyms
		// Tiles hosting symbol homes receive writeback and read-out moves
		// in later blocks; the soft budget (used for placement pressure
		// and home-pinning eligibility, not for the hard pruning filters)
		// additionally reserves two words per home.
		homesOn := intsBuf(ar.homesOn, n)
		ar.homesOn = homesOn
		for _, h := range m.SymHomes {
			homesOn[h.Tile] += 2
		}
		cx.soft = intsBuf(ar.soft, n)
		ar.soft = cx.soft
		for t := range cx.budget {
			if opt.Flow.memoryAware() {
				cx.budget[t] = grid.Tile(arch.TileID(t)).CMWords - used[t] - reserve
				cx.soft[t] = cx.budget[t] - homesOn[t]
			} else {
				cx.budget[t] = unconstrained
				cx.soft[t] = unconstrained
			}
		}

		// The exact flows retry a cornered block with a wider beam and
		// deeper candidate list: the stochastic pruning then explores a
		// different region of the space. This is part of the extra
		// compilation time the memory-aware flow pays (the paper's Fig 9).
		attempts := 2
		switch {
		case opt.Flow == FlowECMAP:
			attempts = 4
		case opt.Flow == FlowCAB:
			attempts = 6
		}
		var blockSpan obs.Span
		if opt.Obs.Enabled() {
			blockSpan = opt.Obs.StartSpan("core.map.block", "core", opt.ObsTID)
		}
		at, err := cx.mapAttempts(attempts, rng, consts, usedRegs, &m.Stats)
		if opt.Obs.Enabled() {
			blockSpan.End(map[string]any{"block": block.Name, "ok": err == nil})
		}
		if err != nil {
			m.Stats.CompileTime = time.Since(start)
			return nil, &mapError{g.Name, grid.Name, err}
		}
		// The winner's rng carries on into the later blocks.
		rng = at.rng
		win := selectBest(at.done)
		m.Blocks[bbid] = cx.commit(win)
		for t := range used {
			used[t] += m.Blocks[bbid].Words(arch.TileID(t))
			consts[t] = append(consts[t][:0], win.tiles[t].Consts...)
			usedRegs[t] |= win.tiles[t].EverUsed
		}
		for _, h := range win.newHomes {
			m.SymHomes[h.sym] = h.at
		}
		// Everything the winner contributes is copied out above; the
		// finalized partials go back to the arena that produced them.
		at.cx.arena.putPartials(at.done)
		*at = blockAttempt{}
	}
	m.Stats.CompileTime = time.Since(start)
	if opt.Flow.memoryAware() {
		if ok, t := m.FitsMemory(); !ok {
			return nil, fmt.Errorf("core: mapping of %q overflows context memory of tile %d on %s",
				g.Name, t+1, grid.Name)
		}
	}
	// The symbolic dataflow check is a hard post-condition: a mapping that
	// fails it would compute wrong values on the array. It runs whenever
	// internal/verify is linked (see RegisterDataflowCheck); sim.RunVerified
	// remains the dynamic backstop in binaries that omit the verifier.
	if dataflowCheck != nil {
		if err := dataflowCheck(m); err != nil {
			return nil, fmt.Errorf("core: mapping of %q is not dataflow-consistent: %w", g.Name, err)
		}
	}
	return m, nil
}

// mapError is a Map failure on one graph and grid. It formats only when
// read, so a failing Map allocates the same count on every call (see text).
type mapError struct {
	graph, grid string
	err         error
}

func (e *mapError) Unwrap() error { return e.err }
func (e *mapError) Error() string {
	return fmt.Sprintf("core: mapping %q onto %s: %v", e.graph, e.grid, e.err)
}

// blockAttempt is one try at mapping a block. Attempt a runs on a
// private copy of the block context whose beam width and candidate cap
// are widened by 2^min(a, 2) and whose seed moves by a*7919. Attempt 0
// continues the Map's rng; every later attempt reseeds.
type blockAttempt struct {
	cx   bbCtx
	opt  Options
	rng  *rand.Rand
	st   Stats
	done []*partial
	err  error
	ran  bool
}

// start prepares attempt a of cx's block on arena ar. A nil rng reseeds.
func (at *blockAttempt) start(cx *bbCtx, a int, ar *mapperArena, rng *rand.Rand) {
	*at = blockAttempt{cx: *cx, opt: *cx.opt, rng: rng, ran: true}
	grow := min(a, 2)
	at.opt.BeamWidth <<= grow
	at.opt.CandidateCap <<= grow
	at.opt.Seed += int64(a) * 7919
	if rng == nil {
		at.rng = rand.New(rand.NewSource(at.opt.Seed))
	}
	at.cx.opt = &at.opt
	at.cx.arena = ar
	at.cx.hopsBuf = ar.hops(cx.grid)
	at.cx.attempt = a
}

// run maps the attempt's block from a fresh initial partial. No partial
// of the attempt's arena is alive yet, so the location pool starts empty.
func (at *blockAttempt) run(consts [][]int32, usedRegs []uint16) {
	at.cx.arena.resetLocs()
	init := at.cx.initialPartial(consts, usedRegs)
	at.done, at.err = at.cx.mapBlock(init, at.rng, &at.st)
}

// runAttempts is one retry worker: on arena ar it runs attempts first,
// first+stride, … until none is left or the next one can no longer
// matter. The fixed stride keeps each attempt on the same arena from
// call to call.
func (cx *bbCtx) runAttempts(r *retryRace, res []blockAttempt, ar *mapperArena, first, stride int, consts [][]int32, usedRegs []uint16) {
	for a := first; a < len(res) && !r.lost(a); a += stride {
		at := &res[a]
		at.start(cx, a, ar, nil)
		at.cx.race = r
		at.run(consts, usedRegs)
		if at.err == nil {
			r.succeed(a)
		}
	}
}

// retryRace coordinates a block's speculative attempts 1..n-1.
type retryRace struct {
	opt *Options     // the Map's options, for cancellation
	won atomic.Int32 // the lowest attempt that succeeded so far; n if none
}

// errAbandoned ends a speculative attempt whose result can no longer
// matter. It never leaves mapAttempts.
var errAbandoned = errors.New("core: retry attempt abandoned")

// lost reports whether attempt a can no longer matter: a lower attempt
// succeeded, or the Map's context was cancelled.
func (r *retryRace) lost(a int) bool {
	return int(r.won.Load()) < a || r.opt.ctxErr() != nil
}

// succeed records that attempt a found a mapping.
func (r *retryRace) succeed(a int) {
	for {
		w := r.won.Load()
		if int(w) <= a || r.won.CompareAndSwap(w, int32(a)) {
			return
		}
	}
}

// mapAttempts maps cx's block in up to n attempts and returns the
// lowest-index attempt that succeeds. Attempt 0 runs on the caller's
// goroutine, arena and rng. Once it fails, attempts 1..n-1 run side by
// side on W = min(GOMAXPROCS, n-1) workers: worker 0 is the caller, on
// its own arena; worker w > 0 is a goroutine on a child arena; worker w
// runs attempts w+1, w+1+W, …. The attempts are independent (DESIGN.md
// §10), so the outcome is that of running them in order: st gains the
// counters of attempts 0..winner plus one Retries per failed attempt,
// and if all fail the last attempt's error is returned. An attempt above
// the lowest success so far is abandoned between bind steps, as is every
// speculative attempt once the Map's context is cancelled.
func (cx *bbCtx) mapAttempts(n int, rng *rand.Rand, consts [][]int32, usedRegs []uint16, st *Stats) (*blockAttempt, error) {
	ar := cx.arena
	if cap(ar.attempts) < n {
		ar.attempts = make([]blockAttempt, n)
	}
	res := ar.attempts[:n]
	for a := range res {
		res[a] = blockAttempt{}
	}
	res[0].start(cx, 0, ar, rng)
	res[0].run(consts, usedRegs)
	if res[0].err != nil && n > 1 {
		race := &retryRace{opt: cx.opt}
		race.won.Store(int32(n))
		workers := min(runtime.GOMAXPROCS(0), n-1)
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func(war *mapperArena) {
				defer wg.Done()
				cx.runAttempts(race, res, war, 1+w, workers, consts, usedRegs)
			}(ar.child(w - 1))
		}
		cx.runAttempts(race, res, ar, 1, workers, consts, usedRegs)
		wg.Wait()
	}

	// Replay the sequential loop over the results. Every attempt but the
	// winner is cleared, so the arena keeps no graph alive.
	win, counted, started := -1, 0, 0
	var err error
	stopped := false
	for a := range res {
		at := &res[a]
		if at.ran {
			started++
		}
		switch {
		case stopped:
			// Finished or cut short after the sequential loop stopped.
			at.cx.arena.putPartials(at.done)
		case !at.ran || at.err == errAbandoned:
			// Only cancellation stops an attempt below the lowest success.
			if err = cx.opt.ctxErr(); err == nil {
				panic("core: retry attempt abandoned with no lower success and no cancellation")
			}
			stopped = true
		default:
			counted++
			st.add(&at.st)
			if at.err == nil {
				win, stopped = a, true
				continue
			}
			st.Retries++
			err = at.err
		}
		*at = blockAttempt{}
	}
	if r := cx.opt.Obs; r.Enabled() {
		r.Counter("core.map.attempts").Add(int64(counted))
		r.Counter("core.map.attempts_abandoned").Add(int64(started - counted))
	}
	if win < 0 {
		return nil, err
	}
	return &res[win], nil
}

// initialPartial builds the block's starting state: symbol homes pinned in
// earlier blocks occupy their registers and provide initial locations for
// this block's symbol reads; each tile's constant pool continues from the
// committed blocks.
func (cx *bbCtx) initialPartial(consts [][]int32, usedRegs []uint16) *partial {
	ar := cx.arena
	p := ar.getPartial()
	ar.resetPartial(p, cx.grid.NumTiles(), len(cx.block.Nodes), cx.grid.RRFSize)
	for t := range p.tiles {
		ts := p.tileW(arch.TileID(t))
		ts.Consts = append(ts.Consts[:0], consts[t]...)
		ts.EverUsed = usedRegs[t]
		ts.GlobalUsed = usedRegs[t]
	}
	for _, h := range cx.symHomes {
		ts := p.tileW(h.Tile)
		ts.RegMask |= 1 << h.Reg
		ts.EverUsed |= 1 << h.Reg
	}
	for _, nd := range cx.block.Nodes {
		if nd.Op != cdfg.OpSym {
			continue
		}
		if h, ok := cx.symHomes[nd.Sym]; ok {
			p.addLoc(nd.ID, loc{Tile: h.Tile, Cycle: symHomeCycle, Reg: int8(h.Reg)})
		}
	}
	return p
}
