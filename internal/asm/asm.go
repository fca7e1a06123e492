// Package asm assembles a core.Mapping into per-tile context programs:
// the instruction streams loaded into each tile's context memory, with
// consecutive idle cycles folded into programmable nops (pnops) and
// per-tile constant register files populated.
package asm

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/isa"
)

// Segment is the context-memory region one tile holds for one basic block.
type Segment struct {
	BB cdfg.BBID
	// Instrs are the context words, in execution order.
	Instrs []isa.Instr
	// Cycles is the block schedule length the instructions span.
	Cycles int
}

// Words returns the context words the segment occupies.
func (s *Segment) Words() int { return len(s.Instrs) }

// Expand unrolls the segment's pnop words into idle (nil) cycles,
// appending one cell per cycle to grid, an empty slice whose capacity is
// the block's length. The simulator and the static analyzer decode
// context words through it.
func (s *Segment) Expand(grid []*isa.Instr) ([]*isa.Instr, error) {
	blockLen := cap(grid)
	for i := range s.Instrs {
		in := &s.Instrs[i]
		if in.Kind == isa.KPnop {
			for k := 0; k < in.Count; k++ {
				grid = append(grid, nil)
			}
		} else {
			grid = append(grid, in)
		}
	}
	if len(grid) != blockLen {
		return nil, fmt.Errorf("segment spans %d cycles, block is %d", len(grid), blockLen)
	}
	return grid, nil
}

// TileContext is everything loaded into one tile before execution.
type TileContext struct {
	Tile arch.TileID
	// Segments are indexed by cdfg.BBID.
	Segments []Segment
	// CRF is the tile's constant register file contents.
	CRF *isa.CRF
	// Binary is the encoded context-memory image (one word per Instr,
	// segments concatenated in block order).
	Binary []uint64
}

// Words returns the total context words the tile uses.
func (t *TileContext) Words() int { return len(t.Binary) }

// Program is the fully assembled CGRA executable.
type Program struct {
	Graph *cdfg.Graph
	Grid  *arch.Grid
	Tiles []TileContext
	// BlockLens[b] is the schedule length of block b in cycles.
	BlockLens []int
	// BranchTiles[b] is the tile resolving block b's branch (-1 if none).
	BranchTiles []arch.TileID

	// memo caches one immutable derived view of the program (currently the
	// simulator's decoded context grid) so repeated consumers skip
	// re-deriving it. Kept opaque to avoid a dependency on the consumer.
	memo atomic.Value
}

// Memo returns the derived view published by SetMemo, or nil.
func (p *Program) Memo() any { return p.memo.Load() }

// SetMemo publishes a derived view of the program. The view must be
// immutable (it may be shared by concurrent readers) and must be derived
// from the program alone, since later callers will trust it over
// re-deriving. Concurrent SetMemo calls race benignly: both values are
// valid, one wins.
func (p *Program) SetMemo(v any) { p.memo.Store(v) }

// TotalWords returns the context words used over all tiles — the
// program's total context-memory footprint.
func (p *Program) TotalWords() int {
	n := 0
	for i := range p.Tiles {
		n += p.Tiles[i].Words()
	}
	return n
}

// FitsMemory reports whether every tile's context fits its context memory.
func (p *Program) FitsMemory() (bool, arch.TileID) {
	for i := range p.Tiles {
		if p.Tiles[i].Words() > p.Grid.Tile(arch.TileID(i)).CMWords {
			return false, arch.TileID(i)
		}
	}
	return true, 0
}

// Assemble lowers a mapping to per-tile contexts. It verifies the mapping
// structurally first and re-checks that the emitted word counts match the
// mapper's accounting.
func Assemble(m *core.Mapping) (*Program, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("asm: %w", err)
	}
	p := &Program{
		Graph:       m.Graph,
		Grid:        m.Grid,
		Tiles:       make([]TileContext, m.Grid.NumTiles()),
		BlockLens:   make([]int, len(m.Blocks)),
		BranchTiles: make([]arch.TileID, len(m.Blocks)),
	}
	for _, bm := range m.Blocks {
		p.BlockLens[bm.BB] = bm.Len
		p.BranchTiles[bm.BB] = bm.BranchTile
	}
	for t := range p.Tiles {
		tc := &p.Tiles[t]
		tc.Tile = arch.TileID(t)
		tc.CRF = isa.NewCRF()
		tc.Segments = make([]Segment, len(m.Blocks))
		for bbid := range m.Graph.Blocks {
			bm := m.Blocks[bbid]
			seg, err := assembleSegment(m.Graph.Blocks[bbid], bm, arch.TileID(t))
			if err != nil {
				return nil, err
			}
			if got, want := seg.Words(), bm.Words(arch.TileID(t)); got != want {
				return nil, fmt.Errorf("asm: tile %d block %q emitted %d words, mapper counted %d",
					t+1, m.Graph.Blocks[bbid].Name, got, want)
			}
			tc.Segments[bbid] = seg
			for _, in := range seg.Instrs {
				w, err := isa.Encode(in, tc.CRF)
				if err != nil {
					return nil, fmt.Errorf("asm: tile %d block %q: %w", t+1, m.Graph.Blocks[bbid].Name, err)
				}
				tc.Binary = append(tc.Binary, w)
			}
		}
	}
	return p, nil
}

// assembleSegment lowers one tile row of one block schedule.
func assembleSegment(b *cdfg.BasicBlock, bm *core.BlockMapping, t arch.TileID) (Segment, error) {
	seg := Segment{BB: b.ID, Cycles: bm.Len}
	row := bm.Tiles[t]
	gap := 0
	flush := func() {
		if gap > 0 {
			seg.Instrs = append(seg.Instrs, isa.Pnop(gap))
			gap = 0
		}
	}
	for c := 0; c < bm.Len; c++ {
		s := row[c]
		switch s.Kind {
		case core.SlotEmpty:
			gap++
		case core.SlotOp:
			flush()
			in := isa.Op(b.Nodes[s.Node].Op, s.Srcs[:s.NSrc]...)
			if s.WB {
				in = in.WithWB(s.WReg)
			}
			if err := in.Validate(); err != nil {
				return Segment{}, fmt.Errorf("asm: tile %d block %q cycle %d: %w", t+1, b.Name, c, err)
			}
			seg.Instrs = append(seg.Instrs, in)
		case core.SlotMove:
			flush()
			in := isa.Move(s.Srcs[0])
			if s.WB {
				in = in.WithWB(s.WReg)
			}
			seg.Instrs = append(seg.Instrs, in)
		}
	}
	flush()
	return seg, nil
}

// Listing renders a human-readable per-tile disassembly of the program.
func Listing(p *Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program %s on %s\n", p.Graph.Name, p.Grid.Name)
	for t := range p.Tiles {
		tc := &p.Tiles[t]
		fmt.Fprintf(&sb, "tile %d (%d words):\n", t+1, tc.Words())
		for bbid, seg := range tc.Segments {
			if len(seg.Instrs) == 0 {
				continue
			}
			fmt.Fprintf(&sb, "  .%s:\n", p.Graph.Blocks[bbid].Name)
			for _, in := range seg.Instrs {
				fmt.Fprintf(&sb, "    %s\n", in)
			}
		}
		if tc.CRF.Len() > 0 {
			fmt.Fprintf(&sb, "  .crf: %v\n", tc.CRF.Values())
		}
	}
	return sb.String()
}
