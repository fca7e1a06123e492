package static

import (
	"fmt"
	"sort"

	"repro/internal/cdfg"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/sim"
)

// Static activity and cost bounds. Every TileCounters field the
// simulator reports is a pure function of the context words — one
// execution of a block always fetches, computes and touches the RF the
// same way — so the per-block activity table is *exact*, not a bound.
// The only execution-dependent quantity is the stall count: how many
// extra service cycles the banked memory needs depends on the addresses
// the program computes. Those are bracketed per cycle from the access
// count alone:
//
//	lower: accesses spread perfectly across banks — max(⌈n/ports⌉, ⌈n/banks⌉) − 1
//	upper: every access falls into one bank — n − 1
//
// Multiplying by a run's block-execution counts turns the tables into a
// pair of synthetic sim.ActivityReports whose power.ActivityEnergy
// evaluations bracket the true energy (energy is monotone in cycles:
// only the leakage term varies, and it scales with cycle count).

// BlockBounds is the static cost table of one block.
type BlockBounds struct {
	// Len is the block's stall-free cycle count.
	Len int
	// StallLB and StallUB bound the stall cycles one execution of the
	// block inflicts.
	StallLB, StallUB int64
	// Tiles is the exact per-tile activity of one execution.
	Tiles []sim.TileCounters
}

// Bounds holds every block's table plus the program's config footprint.
type Bounds struct {
	PerBlock    []BlockBounds
	ConfigWords int
	numTiles    int
}

// buildBounds derives the per-block tables by replaying the
// simulator's counting rules over the expanded grids.
func buildBounds(cfg *CFG) *Bounds {
	b := &Bounds{
		PerBlock:    make([]BlockBounds, len(cfg.Blocks)),
		ConfigWords: cfg.Prog.TotalWords(),
		numTiles:    cfg.NumTiles,
	}
	ports, banks := cfg.Prog.Grid.MemPorts, cfg.Prog.Grid.MemBanks
	for bb := range cfg.Blocks {
		bc := &cfg.Blocks[bb]
		tb := &b.PerBlock[bb]
		tb.Len = bc.Len
		tb.Tiles = blockCounters(bc, cfg.NumTiles)
		for c := 0; c < bc.Len; c++ {
			na := 0
			for t := 0; t < cfg.NumTiles; t++ {
				if in := bc.Grid[t][c]; in != nil && in.Kind == isa.KOp && in.Op.IsMem() {
					na++
				}
			}
			if na == 0 {
				continue
			}
			lb := (na + ports - 1) / ports
			if spread := (na + banks - 1) / banks; spread > lb {
				lb = spread
			}
			if lb < 1 {
				lb = 1
			}
			tb.StallLB += int64(lb - 1)
			tb.StallUB += int64(na - 1)
		}
	}
	return b
}

// blockCounters replays the simulator's counting rules over one
// block's expanded grid: the per-execution activity constant table.
func blockCounters(bc *BlockCode, n int) []sim.TileCounters {
	st := make([]sim.TileCounters, n)
	for t := 0; t < n; t++ {
		tc := &st[t]
		prevIdle := false
		for c := 0; c < bc.Len; c++ {
			in := bc.Grid[t][c]
			if in == nil {
				if !prevIdle {
					tc.Fetches++
					tc.PnopFetches++
				}
				prevIdle = true
				tc.IdleCycles++
				continue
			}
			prevIdle = false
			tc.Fetches++
			for i := 0; i < in.NSrc; i++ {
				switch in.Srcs[i].Kind {
				case isa.SrcConst:
					tc.CRFReads++
				case isa.SrcReg:
					tc.RFReads++
				}
			}
			hasOut := false
			switch {
			case in.Kind == isa.KMove:
				tc.MoveCycles++
				hasOut = true
			case in.Op == cdfg.OpLoad:
				tc.OpCycles++
				tc.MemOps++
				tc.MemReads++
				hasOut = true
			case in.Op == cdfg.OpStore:
				tc.OpCycles++
				tc.MemOps++
				tc.MemWrites++
			case in.Op == cdfg.OpBr:
				tc.OpCycles++
				tc.BranchOps++
			default:
				tc.OpCycles++
				tc.ALUOps++
				hasOut = true
			}
			if hasOut && in.WB {
				tc.RFWrites++
			}
		}
	}
	return st
}

// addScaled accumulates k executions' worth of src into dst.
func addScaled(dst *sim.TileCounters, src *sim.TileCounters, k int64) {
	dst.Fetches += src.Fetches * k
	dst.OpCycles += src.OpCycles * k
	dst.MoveCycles += src.MoveCycles * k
	dst.IdleCycles += src.IdleCycles * k
	dst.ALUOps += src.ALUOps * k
	dst.MemOps += src.MemOps * k
	dst.BranchOps += src.BranchOps * k
	dst.PnopFetches += src.PnopFetches * k
	dst.RFReads += src.RFReads * k
	dst.RFWrites += src.RFWrites * k
	dst.CRFReads += src.CRFReads * k
	dst.MemReads += src.MemReads * k
	dst.MemWrites += src.MemWrites * k
}

// sortedExecs returns the executed blocks in id order for deterministic
// accumulation and error reporting.
func sortedExecs(execs map[cdfg.BBID]int64) []cdfg.BBID {
	bbs := make([]cdfg.BBID, 0, len(execs))
	for bb := range execs {
		bbs = append(bbs, bb)
	}
	sort.Slice(bbs, func(i, j int) bool { return bbs[i] < bbs[j] })
	return bbs
}

// ActivityBounds scales the tables by a run's block-execution counts
// into a bracketing pair of activity reports: identical exact counters,
// cycle counts at the stall lower/upper bound. It rebuilds the tables
// on each call; Analyze does not keep them.
func (a *Analysis) ActivityBounds(execs map[cdfg.BBID]int64) (lo, hi *sim.ActivityReport, err error) {
	return buildBounds(a.CFG).activity(execs)
}

func (b *Bounds) activity(execs map[cdfg.BBID]int64) (lo, hi *sim.ActivityReport, err error) {
	lo = &sim.ActivityReport{ConfigWords: b.ConfigWords, Tiles: make([]sim.TileCounters, b.numTiles)}
	hi = &sim.ActivityReport{ConfigWords: b.ConfigWords, Tiles: make([]sim.TileCounters, b.numTiles)}
	for _, bb := range sortedExecs(execs) {
		k := execs[bb]
		if k == 0 {
			continue
		}
		if int(bb) < 0 || int(bb) >= len(b.PerBlock) {
			return nil, nil, fmt.Errorf("static: executed block %d outside the program", bb)
		}
		tb := &b.PerBlock[bb]
		lo.Cycles += k * (int64(tb.Len) + tb.StallLB)
		hi.Cycles += k * (int64(tb.Len) + tb.StallUB)
		lo.StallCycles += k * tb.StallLB
		hi.StallCycles += k * tb.StallUB
		for t := 0; t < b.numTiles; t++ {
			addScaled(&lo.Tiles[t], &tb.Tiles[t], k)
			addScaled(&hi.Tiles[t], &tb.Tiles[t], k)
		}
	}
	return lo, hi, nil
}

// EnergyBounds brackets the energy of a run with the given block
// execution counts: lower.Total() ≤ actual ≤ upper.Total(), where
// actual is power.ActivityEnergy of the run's true activity report.
func (a *Analysis) EnergyBounds(pr power.Params, execs map[cdfg.BBID]int64) (lower, upper power.EnergyBreakdown, err error) {
	lo, hi, err := a.ActivityBounds(execs)
	if err != nil {
		return power.EnergyBreakdown{}, power.EnergyBreakdown{}, err
	}
	return pr.ActivityEnergy(a.Prog.Grid, lo), pr.ActivityEnergy(a.Prog.Grid, hi), nil
}

// CheckRun cross-checks the analyzer's claims against one simulated
// run of the same program: executed blocks must be claimed reachable,
// the exact counter tables must reproduce the run's per-tile activity,
// and the run's cycle/stall totals must land inside the static bounds.
// A non-nil error means the analysis is unsound for this program — the
// oracle turns it into the static-unsound outcome.
func (a *Analysis) CheckRun(res *sim.Result) error {
	b := buildBounds(a.CFG)
	if res.ConfigWords != b.ConfigWords {
		return fmt.Errorf("static: run reports %d config words, program holds %d",
			res.ConfigWords, b.ConfigWords)
	}
	for _, bb := range sortedExecs(res.BlockExecs) {
		if res.BlockExecs[bb] > 0 && (int(bb) >= len(a.Reachable) || !a.Reachable[bb]) {
			return fmt.Errorf("static: block %d executed %d times but claimed unreachable",
				bb, res.BlockExecs[bb])
		}
	}
	lo, hi, err := b.activity(res.BlockExecs)
	if err != nil {
		return err
	}
	if res.Cycles < lo.Cycles || res.Cycles > hi.Cycles {
		return fmt.Errorf("static: run took %d cycles, static bounds [%d, %d]",
			res.Cycles, lo.Cycles, hi.Cycles)
	}
	if res.StallCycles < lo.StallCycles || res.StallCycles > hi.StallCycles {
		return fmt.Errorf("static: run stalled %d cycles, static bounds [%d, %d]",
			res.StallCycles, lo.StallCycles, hi.StallCycles)
	}
	if len(res.Tiles) != len(lo.Tiles) {
		return fmt.Errorf("static: run reports %d tiles, program has %d", len(res.Tiles), len(lo.Tiles))
	}
	for t := range res.Tiles {
		if res.Tiles[t] != lo.Tiles[t] {
			return fmt.Errorf("static: tile %d activity %+v differs from static table %+v",
				t+1, res.Tiles[t], lo.Tiles[t])
		}
	}
	return nil
}
