package static

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/isa"
)

// BlockCode is one basic block's expanded context: the per-tile,
// per-cycle instruction grid the lockstep array executes, with pnop
// words unrolled into nil (idle) cells — the same shape the simulator
// decodes segments into.
type BlockCode struct {
	BB  cdfg.BBID
	Len int
	// Grid[t][c] is tile t's instruction in cycle c, nil when idle. The
	// pointers alias the program's segment storage; the grid is
	// read-only.
	Grid [][]*isa.Instr
	// HasBranch mirrors the graph block: control leaves through the
	// branch condition (Succs[0] taken, Succs[1] not taken).
	HasBranch bool
	// Succs are the CFG successors control can flow to: both branch arms
	// for a branching block, the single fallthrough for a jump, nothing
	// for a halting block.
	Succs []cdfg.BBID
}

// CFG is the bitstream's control-flow graph in executable form: what
// the dataflow solver iterates over.
type CFG struct {
	Prog     *asm.Program
	Entry    cdfg.BBID
	NumTiles int
	RRFSize  int
	Blocks   []BlockCode
	Preds    [][]cdfg.BBID
}

// BuildCFG expands the program's segments into per-block instruction
// grids and derives the successor/predecessor edges from the graph's
// block structure, exactly as the simulator's dispatch walks them.
func BuildCFG(p *asm.Program) (*CFG, error) {
	nb := len(p.Graph.Blocks)
	n := p.Grid.NumTiles()
	if len(p.BlockLens) != nb || len(p.BranchTiles) != nb {
		return nil, fmt.Errorf("program tables cover %d/%d blocks, graph has %d",
			len(p.BlockLens), len(p.BranchTiles), nb)
	}
	cfg := &CFG{
		Prog:     p,
		Entry:    p.Graph.Entry,
		NumTiles: n,
		RRFSize:  p.Grid.RRFSize,
		Blocks:   make([]BlockCode, nb),
		Preds:    make([][]cdfg.BBID, nb),
	}
	for bb := 0; bb < nb; bb++ {
		b := p.Graph.Blocks[bb]
		bc := &cfg.Blocks[bb]
		bc.BB = cdfg.BBID(bb)
		bc.Len = p.BlockLens[bb]
		bc.HasBranch = b.HasBranch()
		switch {
		case bc.HasBranch:
			if len(b.Succs) < 2 {
				return nil, fmt.Errorf("block %q branches with %d successors", b.Name, len(b.Succs))
			}
			bc.Succs = b.Succs[:2]
		case len(b.Succs) == 1:
			bc.Succs = b.Succs[:1]
		}
		bc.Grid = make([][]*isa.Instr, n)
		for t := 0; t < n; t++ {
			if bb >= len(p.Tiles[t].Segments) {
				return nil, fmt.Errorf("tile %d holds %d segments, graph has %d blocks",
					t+1, len(p.Tiles[t].Segments), nb)
			}
			row, err := p.Tiles[t].Segments[bb].Expand(make([]*isa.Instr, 0, bc.Len))
			if err != nil {
				return nil, fmt.Errorf("tile %d block %q: %w", t+1, b.Name, err)
			}
			bc.Grid[t] = row
		}
		for _, s := range bc.Succs {
			if int(s) < 0 || int(s) >= nb {
				return nil, fmt.Errorf("block %q successor %d out of range", b.Name, s)
			}
		}
	}
	for bb := range cfg.Blocks {
		for _, s := range cfg.Blocks[bb].Succs {
			cfg.Preds[s] = append(cfg.Preds[s], cdfg.BBID(bb))
		}
	}
	return cfg, nil
}
