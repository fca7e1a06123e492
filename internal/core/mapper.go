package core

import (
	"fmt"
	"math/rand"
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

	// The arena owns every reusable scratch buffer of the search. Callers
	// can thread their own (Options.WithArena, MapPortfolio workers);
	// otherwise one is borrowed from the pool for the duration of the call.
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
			return nil, fmt.Errorf("core: mapping %q onto %s: %w", g.Name, grid.Name, err)
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
			// Longest route a chain can take is bounded by the two-leg
			// corner path, so hops never outgrow this and planChain can
			// skip the capacity write-back.
			hopsBuf: make([]arch.TileID, 0, grid.Rows+grid.Cols+2),
		}
		ar.budget = cx.budget
		cx.liveOutValues = map[cdfg.NodeID]bool{}
		for _, id := range block.LiveOut {
			cx.liveOutValues[id] = true
		}
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
		var done []*partial
		var err error
		for a := 0; a < attempts; a++ {
			if cerr := opt.ctxErr(); cerr != nil {
				err = cerr
				break
			}
			attemptOpt := opt
			grow := a
			if grow > 2 {
				grow = 2
			}
			attemptOpt.BeamWidth = opt.BeamWidth << grow
			attemptOpt.CandidateCap = opt.CandidateCap << grow
			attemptOpt.Seed = opt.Seed + int64(a)*7919
			cx.opt = &attemptOpt
			if a > 0 {
				rng = rand.New(rand.NewSource(attemptOpt.Seed))
			}
			init := cx.initialPartial(consts, usedRegs)
			done, err = cx.mapBlock(init, rng, &m.Stats)
			if err == nil {
				break
			}
			m.Stats.Retries++
		}
		if opt.Obs.Enabled() {
			blockSpan.End(map[string]any{"block": block.Name, "ok": err == nil})
		}
		if err != nil {
			m.Stats.CompileTime = time.Since(start)
			return nil, fmt.Errorf("core: mapping %q onto %s: %w", g.Name, grid.Name, err)
		}
		win := selectBest(done)
		m.Blocks[bbid] = cx.commit(win)
		for t := range used {
			used[t] += m.Blocks[bbid].Words(arch.TileID(t))
			consts[t] = append(consts[t][:0], win.tiles[t].Consts...)
			usedRegs[t] |= win.tiles[t].EverUsed
		}
		for s, h := range win.newHomes {
			m.SymHomes[s] = h
		}
		// Everything the winner contributes is copied out above; the
		// finalized partials can be recycled for the next block.
		for _, p := range done {
			ar.putPartial(p)
		}
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

// initialPartial builds the block's starting state: symbol homes pinned in
// earlier blocks occupy their registers and provide initial locations for
// this block's symbol reads; each tile's constant pool continues from the
// committed blocks.
func (cx *bbCtx) initialPartial(consts [][]int32, usedRegs []uint16) *partial {
	ar := cx.arena
	p := ar.getPartial()
	ar.resetPartial(p, cx.grid.NumTiles(), len(cx.block.Nodes), cx.grid.RRFSize)
	for t := range p.tiles {
		ts := &p.tiles[t]
		ts.Consts = append(ts.Consts[:0], consts[t]...)
		ts.EverUsed = usedRegs[t]
		ts.GlobalUsed = usedRegs[t]
	}
	for _, h := range cx.symHomes {
		p.tiles[h.Tile].RegMask |= 1 << h.Reg
		p.tiles[h.Tile].EverUsed |= 1 << h.Reg
	}
	for _, nd := range cx.block.Nodes {
		if nd.Op != cdfg.OpSym {
			continue
		}
		if h, ok := cx.symHomes[nd.Sym]; ok {
			p.locs[nd.ID] = append(p.locs[nd.ID], loc{Tile: h.Tile, Cycle: symHomeCycle, Reg: int8(h.Reg)})
		}
	}
	return p
}
