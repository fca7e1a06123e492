package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/isa"
)

// SlotKind classifies one (tile, cycle) slot of a block schedule.
type SlotKind uint8

const (
	// SlotEmpty means the tile idles that cycle (assembled into pnops).
	SlotEmpty SlotKind = iota
	// SlotOp executes a CDFG node.
	SlotOp
	// SlotMove executes a routing move inserted by the mapper (a
	// "transformed operation" n(To) in the paper's accounting).
	SlotMove
)

// Slot is one cycle of one tile within a block schedule, carrying
// everything the assembler needs to emit the context word.
type Slot struct {
	Kind SlotKind
	// Node is the CDFG node executed (SlotOp) or whose value is routed
	// (SlotMove).
	Node cdfg.NodeID
	// Srcs are the resolved operand sources.
	Srcs [isa.MaxSrcs]isa.Src
	// NSrc is the operand count.
	NSrc int
	// WB/WReg request a register-file writeback of the slot's result.
	WB   bool
	WReg uint8
	// Dup marks a recomputed duplicate of a node already placed elsewhere
	// (the recompute graph transformation).
	Dup bool
}

// BlockMapping is the complete mapping of one basic block: a dense
// (tile × cycle) schedule grid.
type BlockMapping struct {
	BB cdfg.BBID
	// Len is the block's schedule length in cycles.
	Len int
	// Tiles[t][c] is what tile t does in cycle c; len(Tiles[t]) == Len.
	Tiles [][]Slot
	// BranchTile is the tile evaluating the block's branch (None if the
	// block has no branch).
	BranchTile arch.TileID
	// Ops, Moves, Pnops count the block's context words per tile.
	Ops, Moves, Pnops []int
}

// Words returns the context words block b occupies on tile t.
func (b *BlockMapping) Words(t arch.TileID) int {
	return b.Ops[t] + b.Moves[t] + b.Pnops[t]
}

// SymLoc is a symbol variable's home: the register-file location the
// mapper pinned it to (the paper's location constraint).
type SymLoc struct {
	Tile arch.TileID
	Reg  uint8
}

// PhaseTimes breaks the mapper's wall clock down by binder phase. The
// phases partition mapBlock: list scheduling, candidate routing (operand
// route planning across the slack windows), binding (realizing candidates
// and running the memory filters), stochastic pruning, and finalization
// (symbol writebacks plus the exact fit check).
type PhaseTimes struct {
	Schedule time.Duration
	Route    time.Duration
	Bind     time.Duration
	Prune    time.Duration
	Finalize time.Duration
}

// Stats aggregates mapping-quality metrics used by the experiments.
type Stats struct {
	// CompileTime is the wall-clock mapping duration.
	CompileTime time.Duration
	// Phases splits the search time across the binder's phases, summed
	// over the block attempts that count (see Map). Retry attempts run
	// side by side, so the sum can exceed CompileTime.
	Phases PhaseTimes
	// Partials counts partial mappings created over the whole run.
	Partials int
	// PrunedACMAP/PrunedECMAP/PrunedStochastic count partials discarded by
	// each pruning stage.
	PrunedACMAP      int
	PrunedECMAP      int
	PrunedStochastic int
	// Retries counts slack-window widenings (reroute transformations)
	// plus one per failed block attempt: Map retries a cornered block
	// with a wider beam, and each attempt that finds no mapping adds one.
	Retries int
	// Recomputes counts recompute transformations applied.
	Recomputes int
	// Planned counts the (partial, tile, cycle) slots the binder
	// route-planned. Screened counts the legal slots (free, on an
	// allowed tile) the reach screen dropped unplanned because no route
	// could deliver some operand there at that cycle.
	Planned  int
	Screened int
	// MemoHits and MemoMisses are always zero. They counted lookups of a
	// route memo the mapper no longer has (widened slack windows scan
	// only new cycles, so no route is planned twice); they remain only
	// because the benchmark command in bench/ still reads them.
	MemoHits   int
	MemoMisses int

	// Exact describes the branch-and-bound run when the mapping came from
	// the exact backend; zero for heuristic mappings.
	Exact ExactStats
}

// add folds another block attempt's search counters into s: the phase
// times and every counter mapBlock maintains. CompileTime, the always-zero
// memo counters and Exact are left alone; a heuristic attempt never sets
// them.
func (s *Stats) add(o *Stats) {
	s.Phases.Schedule += o.Phases.Schedule
	s.Phases.Route += o.Phases.Route
	s.Phases.Bind += o.Phases.Bind
	s.Phases.Prune += o.Phases.Prune
	s.Phases.Finalize += o.Phases.Finalize
	s.Partials += o.Partials
	s.PrunedACMAP += o.PrunedACMAP
	s.PrunedECMAP += o.PrunedECMAP
	s.PrunedStochastic += o.PrunedStochastic
	s.Retries += o.Retries
	s.Recomputes += o.Recomputes
	s.Planned += o.Planned
	s.Screened += o.Screened
}

// ExactStats describes one exact-backend search.
type ExactStats struct {
	// NodeBudget is the resolved expansion budget the search ran under.
	NodeBudget int
	// Expanded counts DFS nodes whose candidate set was enumerated.
	Expanded int
	// Leaves counts fully-bound blocks reached (finalize attempts).
	Leaves int
	// BoundPruned counts subtrees cut by the admissible word lower bound;
	// ConflictPruned counts revisits of fully-refuted states (the nogood
	// cache); MemPruned counts children over a tile's hard word budget.
	BoundPruned    int
	ConflictPruned int
	MemPruned      int
	// DataflowRejected counts complete mappings the symbolic dataflow
	// checker refused; nonzero values are worth investigating (the search
	// committed a schedule the checker refutes) but never escape the
	// backend.
	DataflowRejected int
	// Improved counts strict improvements over the warm-start incumbent.
	Improved int
	// Proven is set when the search exhausted its move space within the
	// budget: the result is optimal within that space, not just the best
	// found so far.
	Proven bool
	// WarmWords is the heuristic warm start's total context words (-1 if
	// the heuristic found no mapping); BestWords is the returned
	// mapping's.
	WarmWords int
	BestWords int
}

// Mapping is a complete mapping of a CDFG onto a CGRA configuration.
type Mapping struct {
	Graph *cdfg.Graph
	Grid  *arch.Grid
	Flow  Flow

	// Blocks is indexed by cdfg.BBID.
	Blocks []*BlockMapping

	// SymHomes pins each symbol variable to a register-file location.
	SymHomes map[string]SymLoc

	Stats Stats
}

// TileWords returns the total context words used per tile over all blocks.
// This is the quantity the paper's per-tile constraint bounds by n(I).
func (m *Mapping) TileWords() []int {
	words := make([]int, m.Grid.NumTiles())
	for _, b := range m.Blocks {
		for t := range words {
			words[t] += b.Words(arch.TileID(t))
		}
	}
	return words
}

// TotalOps, TotalMoves, TotalPnops sum the respective context words over
// all tiles and blocks.
func (m *Mapping) TotalOps() int { return m.sum(func(b *BlockMapping, t int) int { return b.Ops[t] }) }
func (m *Mapping) TotalMoves() int {
	return m.sum(func(b *BlockMapping, t int) int { return b.Moves[t] })
}
func (m *Mapping) TotalPnops() int {
	return m.sum(func(b *BlockMapping, t int) int { return b.Pnops[t] })
}

func (m *Mapping) sum(f func(*BlockMapping, int) int) int {
	n := 0
	for _, b := range m.Blocks {
		for t := 0; t < m.Grid.NumTiles(); t++ {
			n += f(b, t)
		}
	}
	return n
}

// FitsMemory reports whether every tile's context fits its context memory,
// and the first violating tile if not.
func (m *Mapping) FitsMemory() (bool, arch.TileID) {
	for t, w := range m.TileWords() {
		if w > m.Grid.Tile(arch.TileID(t)).CMWords {
			return false, arch.TileID(t)
		}
	}
	return true, 0
}

// StaticCycles estimates execution cycles as the profile-weighted sum of
// block lengths (weight 1 without a profile). The simulator refines this
// with memory-stall cycles.
func (m *Mapping) StaticCycles(profile map[cdfg.BBID]int) int {
	total := 0
	for _, b := range m.Blocks {
		w := 1
		if profile != nil {
			if f, ok := profile[b.BB]; ok {
				w = f
			}
		}
		total += w * b.Len
	}
	return total
}

// Validate cross-checks the mapping's internal consistency: schedule grid
// shapes, per-slot source validity, and word counts. The simulator is the
// deeper functional check; Validate catches structural bugs early.
func (m *Mapping) Validate() error {
	if len(m.Blocks) != len(m.Graph.Blocks) {
		return fmt.Errorf("core: mapping has %d blocks, graph has %d", len(m.Blocks), len(m.Graph.Blocks))
	}
	for _, bm := range m.Blocks {
		if bm == nil {
			return fmt.Errorf("core: missing block mapping")
		}
		b := m.Graph.Blocks[bm.BB]
		if len(bm.Tiles) != m.Grid.NumTiles() {
			return fmt.Errorf("core: block %q has %d tile rows", b.Name, len(bm.Tiles))
		}
		placed := map[cdfg.NodeID]bool{}
		for t, row := range bm.Tiles {
			if len(row) != bm.Len {
				return fmt.Errorf("core: block %q tile %d row length %d != %d", b.Name, t, len(row), bm.Len)
			}
			ops, moves := 0, 0
			for c, s := range row {
				switch s.Kind {
				case SlotEmpty:
				case SlotOp:
					ops++
					nd := b.Nodes[s.Node]
					if nd.Op.IsMem() && !m.Grid.Tile(arch.TileID(t)).HasLSU {
						return fmt.Errorf("core: block %q: %s on non-LSU tile %d", b.Name, nd.Op, t+1)
					}
					if !s.Dup {
						if placed[s.Node] {
							return fmt.Errorf("core: block %q node n%d placed twice", b.Name, s.Node)
						}
						placed[s.Node] = true
					}
					if s.NSrc != nd.Op.NumArgs() {
						return fmt.Errorf("core: block %q n%d: %d sources for %s", b.Name, s.Node, s.NSrc, nd.Op)
					}
				case SlotMove:
					moves++
					if s.NSrc != 1 {
						return fmt.Errorf("core: block %q move at tile %d cycle %d has %d sources", b.Name, t, c, s.NSrc)
					}
				}
			}
			if ops != bm.Ops[t] || moves != bm.Moves[t] {
				return fmt.Errorf("core: block %q tile %d counts op=%d/%d move=%d/%d",
					b.Name, t, ops, bm.Ops[t], moves, bm.Moves[t])
			}
			if p := countPnops(row); p != bm.Pnops[t] {
				return fmt.Errorf("core: block %q tile %d pnops %d != %d", b.Name, t, p, bm.Pnops[t])
			}
		}
		for _, n := range b.Nodes {
			if n.Op == cdfg.OpConst || n.Op == cdfg.OpSym {
				continue
			}
			if !placed[n.ID] {
				return fmt.Errorf("core: block %q node n%d (%s) not placed", b.Name, n.ID, n.Op)
			}
		}
	}
	// Walk homes in sorted order so the reported symbol is deterministic.
	syms := make([]string, 0, len(m.SymHomes))
	for s := range m.SymHomes {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	for _, s := range syms {
		loc := m.SymHomes[s]
		if int(loc.Tile) >= m.Grid.NumTiles() || int(loc.Reg) >= m.Grid.RRFSize {
			return fmt.Errorf("core: symbol %q home out of range: %+v", s, loc)
		}
	}
	return nil
}

// countPnops counts the pnop words a slot row assembles into: one per
// maximal run of empty slots (including a trailing run, which must idle
// until the block's last cycle).
func countPnops(row []Slot) int {
	n := 0
	inGap := false
	for _, s := range row {
		if s.Kind == SlotEmpty {
			if !inGap {
				n++
				inGap = true
			}
		} else {
			inGap = false
		}
	}
	return n
}
