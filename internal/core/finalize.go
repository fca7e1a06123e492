package core

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/isa"
)

// finalize completes a partial after all operations of the block are
// bound: every live-out symbol value is delivered to its home register —
// by retrofitting a writeback on a producing slot when possible, otherwise
// by appending a writeback move — and unpinned homes of defined-only
// symbols are pinned. Writebacks are ordered after the last read of each
// home register so loop-carried symbols keep their entry value for all
// in-block readers.
func (cx *bbCtx) finalize(p *partial) error {
	var err error
	cx.block.LiveOuts(func(s string, def cdfg.NodeID) bool {
		err = cx.writebackSym(p, s, def)
		return err == nil
	})
	return err
}

// homeOf resolves the symbol's home, pinning one if needed. Pinning
// prefers the tile already holding the defining value, then nearby tiles.
func (cx *bbCtx) homeOf(p *partial, s string, def cdfg.NodeID) (SymLoc, error) {
	if h, ok := cx.symHomes[s]; ok {
		return h, nil
	}
	if h, ok := p.newHome(s); ok {
		return h, nil
	}
	// Pin now: try the defining value's tiles first, then all tiles by
	// distance from the first location (or tile 0 for constants).
	var prefer []arch.TileID
	seen := map[arch.TileID]bool{}
	for _, l := range p.locsOf(def) {
		if !seen[l.Tile] {
			prefer = append(prefer, l.Tile)
			seen[l.Tile] = true
		}
	}
	from := arch.TileID(0)
	if len(prefer) > 0 {
		from = prefer[0]
	}
	rest := []arch.TileID{}
	for _, t := range cx.grid.TilesByDistance(from) {
		if !seen[t] {
			rest = append(rest, t)
		}
	}
	// Fallback tiles ordered by remaining context-memory budget first: a
	// home attracts writeback traffic in every defining block, so it
	// belongs on a roomy tile.
	sort.SliceStable(rest, func(i, j int) bool {
		return cx.soft[rest[i]] > cx.soft[rest[j]]
	})
	prefer = append(prefer, rest...)
	pin := func(t arch.TileID) (SymLoc, bool) {
		r := p.allocRegHome(cx.grid.RRFSize, t)
		if r == noReg {
			return SymLoc{}, false
		}
		h := SymLoc{Tile: t, Reg: uint8(r)}
		p.pinHome(s, h)
		p.touch()
		return h, true
	}
	// First pass: only tiles keeping headroom in their register file and
	// context budget, so symbol homes don't starve one tile; fall back to
	// any free register.
	for _, t := range prefer {
		if p.tiles[t].freeRegs(cx.grid.RRFSize) >= 3 && cx.soft[t] >= minHomeBudget {
			if h, ok := pin(t); ok {
				return h, nil
			}
		}
	}
	for _, t := range prefer {
		if h, ok := pin(t); ok {
			return h, nil
		}
	}
	return SymLoc{}, fmt.Errorf("core: no free register to pin symbol %q in block %q", s, cx.block.Name)
}

// writebackSym delivers the value of def into symbol s's home register.
func (cx *bbCtx) writebackSym(p *partial, s string, def cdfg.NodeID) error {
	home, err := cx.homeOf(p, s, def)
	if err != nil {
		return err
	}
	rrf := cx.grid.RRFSize
	hr := int8(home.Reg)

	// Already satisfied: the value is the home register's current content
	// (e.g. `s <- sym s`, the identity carry).
	nd := cx.block.Nodes[def]
	if nd.Op == cdfg.OpSym {
		if h2, ok := cx.lookupHome(p, nd.Sym); ok && h2 == home {
			return nil
		}
	}
	for _, l := range p.locsOf(def) {
		if l.Tile == home.Tile && l.Reg == hr && l.Cycle >= 0 {
			p.setWriteCycle(rrf, home.Tile, hr, l.Cycle)
			p.touch()
			return nil
		}
	}

	// The writeback must come after every read of the home register (both
	// symbol reads and reads of a recycled temp) and after any earlier
	// write a recycled register received.
	earliest := p.lastRead(rrf, home.Tile, hr)
	if w := int(p.regLastWrite[int(home.Tile)*rrf+int(hr)]); w+1 > earliest {
		earliest = w + 1
	}
	if earliest < 0 {
		earliest = 0
	}

	// Try retrofitting the writeback onto a slot already producing the
	// value on the home tile, provided it runs at or after the last read.
	for _, l := range p.locsOf(def) {
		if l.Tile != home.Tile || l.Cycle < 0 || l.Cycle < earliest {
			continue
		}
		if slot := p.tiles[home.Tile].Slots[l.Cycle]; slot.Kind == SlotEmpty || slot.WB {
			continue
		}
		slot := &p.tileW(home.Tile).Slots[l.Cycle]
		slot.WB = true
		slot.WReg = home.Reg
		p.setWriteCycle(rrf, home.Tile, hr, l.Cycle)
		p.noteWrite(rrf, home.Tile, hr, l.Cycle)
		p.touch()
		return nil
	}

	// Append a writeback move on the home tile.
	avail := cx.argAvail(p, def)
	start := earliest
	if avail > start {
		start = avail
	}
	limit := p.maxCycle + cx.opt.MaxSlack
	if limit < start+cx.opt.MaxSlack {
		limit = start + cx.opt.MaxSlack
	}
	for w := start; w <= limit; w++ {
		if !cx.free(p, nil, home.Tile, w) || !cx.canProduce(p, nil, home.Tile, w) {
			continue
		}
		// The blacklist is cached on the partial until its next mutation,
		// so re-walking the window after failed cycles only pays for the
		// routing search itself.
		ap := argPlan{Arg: def}
		if !cx.planOperand(p, nil, def, home.Tile, w, cx.cabBlacklist(p), &ap.Plan) {
			continue
		}
		src := cx.applyPlan(p, &ap)
		ts := p.tileW(home.Tile)
		slot := ts.occupy(w)
		*slot = Slot{
			Kind: SlotMove,
			Node: def,
			Srcs: [isa.MaxSrcs]isa.Src{src},
			NSrc: 1,
			WB:   true,
			WReg: home.Reg,
		}
		ts.Moves++
		p.moves++
		p.bump(w)
		p.addLoc(def, loc{Tile: home.Tile, Cycle: w, Reg: hr})
		p.setWriteCycle(rrf, home.Tile, hr, w)
		p.noteWrite(rrf, home.Tile, hr, w)
		p.cost += costMove
		p.touch()
		return nil
	}
	var locs []string
	for _, l := range p.locsOf(def) {
		locs = append(locs, fmt.Sprintf("(t%d,c%d,r%d)", l.Tile+1, l.Cycle, l.Reg))
	}
	return fmt.Errorf("core: cannot write symbol %q back to tile %d reg %d in block %q (def n%d %s locs %v, lastRead %d, start %d, maxCycle %d)",
		s, home.Tile+1, home.Reg, cx.block.Name, def, nd.Op, locs, earliest, start, p.maxCycle)
}

// lookupHome returns the home of a symbol from the global or per-partial
// tables.
func (cx *bbCtx) lookupHome(p *partial, s string) (SymLoc, bool) {
	if h, ok := cx.symHomes[s]; ok {
		return h, true
	}
	return p.newHome(s)
}

// commit converts the winning partial into the block's final mapping.
func (cx *bbCtx) commit(p *partial) *BlockMapping {
	n := cx.grid.NumTiles()
	bm := &BlockMapping{
		BB:         cx.block.ID,
		Len:        p.maxCycle,
		Tiles:      make([][]Slot, n),
		BranchTile: -1,
		Ops:        make([]int, n),
		Moves:      make([]int, n),
		Pnops:      make([]int, n),
	}
	for t := 0; t < n; t++ {
		row := make([]Slot, bm.Len)
		copy(row, p.tiles[t].Slots)
		bm.Tiles[t] = row
		bm.Ops[t] = p.tiles[t].Ops
		bm.Moves[t] = p.tiles[t].Moves
		bm.Pnops[t] = countPnops(row)
		for _, s := range row {
			if s.Kind == SlotOp && cx.block.Nodes[s.Node].Op == cdfg.OpBr {
				bm.BranchTile = arch.TileID(t)
			}
		}
	}
	return bm
}

// selectBest picks the winning finalized partial: shortest schedule, then
// fewest context words, then fewest moves, then lowest cost.
func selectBest(parts []*partial) *partial {
	sort.SliceStable(parts, func(i, j int) bool {
		a, b := parts[i], parts[j]
		if a.maxCycle != b.maxCycle {
			return a.maxCycle < b.maxCycle
		}
		wa, wb := totalWords(a), totalWords(b)
		if wa != wb {
			return wa < wb
		}
		if a.moves != b.moves {
			return a.moves < b.moves
		}
		return a.cost < b.cost
	})
	return parts[0]
}

func totalWords(p *partial) int {
	n := 0
	for t := range p.tiles {
		n += p.tiles[t].words(p.maxCycle, true)
	}
	return n
}
