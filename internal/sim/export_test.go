package sim

// The tile-major reference interpreter. It is test code: the engine
// (engine.go) is the only simulator the package ships, and the
// differential tests compare it against this interpreter bit for bit.

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/interconnect"
	"repro/internal/isa"
	"repro/internal/obs"
)

// tileState is a tile's architectural state.
type tileState struct {
	rf  []int32
	out int32
}

// RunScalar executes the program with the reference tile-major
// interpreter: one input set, context words re-decoded as they execute,
// the interconnect model serving each cycle's accesses. It is the
// differential baseline the engine is tested against (Run, RunBatch,
// and the fault-class table); it panics on a writeback register or
// neighbor direction out of range, which the engine reports as errors.
func (s *Sim) RunScalar(mem cdfg.Memory) (*Result, error) { return s.runScalar(mem, 0) }

// runScalar is RunScalar with an explicit timeline TID.
func (s *Sim) runScalar(mem cdfg.Memory, tid int) (*Result, error) {
	p := s.prog
	net := interconnect.New(p.Grid)
	n := p.Grid.NumTiles()
	res := &Result{
		BlockExecs:  map[cdfg.BBID]int64{},
		Tiles:       make([]TileCounters, n),
		ConfigWords: p.TotalWords(),
	}
	// One flat register-file backing for all tiles: n*RRF small slices
	// showed up as the run loop's dominant allocation.
	tiles := make([]tileState, n)
	rfAll := make([]int32, n*p.Grid.RRFSize)
	for t := range tiles {
		tiles[t].rf = rfAll[t*p.Grid.RRFSize : (t+1)*p.Grid.RRFSize]
	}
	// Count the one-time fetch per pnop word and every op/move fetch as
	// the block executes; configuration fetches are ConfigWords.

	cur := p.Graph.Entry
	newOut := make([]int32, n)
	hasOut := make([]bool, n)
	prevIdle := make([]bool, n)
	var srcBuf [isa.MaxSrcs]int32
	var accs []interconnect.Access
	type memOp struct {
		tile  int
		load  bool
		addr  int32
		value int32 // store data
	}
	var memOps []memOp

	tracing := s.obs.Enabled()
	blockEvents := 0
	var blockEventsDropped int64

	for {
		if res.Cycles > MaxCycles {
			return res, fmt.Errorf("sim: exceeded %d cycles in %q", MaxCycles, p.Graph.Name)
		}
		b := p.Graph.Blocks[cur]
		res.BlockExecs[cur]++
		blockStart := res.Cycles
		grid := s.expanded[cur]
		blockLen := p.BlockLens[cur]
		branchTaken := false
		// Track pnop entry: a tile fetches the pnop word on its first
		// idle cycle after an instruction (or at block start).
		for t := range prevIdle {
			prevIdle[t] = false
		}

		for c := 0; c < blockLen; c++ {
			accs = accs[:0]
			memOps = memOps[:0]
			for t := 0; t < n; t++ {
				hasOut[t] = false
				in := grid[t][c]
				tc := &res.Tiles[t]
				if in == nil {
					if !prevIdle[t] {
						tc.Fetches++ // the pnop word itself
						tc.PnopFetches++
					}
					prevIdle[t] = true
					tc.IdleCycles++
					continue
				}
				prevIdle[t] = false
				tc.Fetches++
				vals, err := s.readSrcs(p, tiles, t, in, tc, srcBuf[:in.NSrc])
				if err != nil {
					return res, fmt.Errorf("sim: block %q cycle %d tile %d: %w", b.Name, c, t+1, err)
				}
				switch {
				case in.Kind == isa.KMove:
					tc.MoveCycles++
					newOut[t] = vals[0]
					hasOut[t] = true
				case in.Op == cdfg.OpLoad:
					tc.OpCycles++
					tc.MemOps++
					memOps = append(memOps, memOp{tile: t, load: true, addr: vals[0]})
					accs = append(accs, interconnect.Access{Tile: arch.TileID(t), Addr: vals[0]})
				case in.Op == cdfg.OpStore:
					tc.OpCycles++
					tc.MemOps++
					memOps = append(memOps, memOp{tile: t, addr: vals[0], value: vals[1]})
					accs = append(accs, interconnect.Access{Tile: arch.TileID(t), Addr: vals[0], Store: true})
				case in.Op == cdfg.OpBr:
					tc.OpCycles++
					tc.BranchOps++
					branchTaken = vals[0] != 0
				default:
					tc.OpCycles++
					tc.ALUOps++
					var args [isa.MaxSrcs]int32
					copy(args[:], vals)
					v, ok := cdfg.EvalOp(in.Op, args[0], args[1], args[2])
					if !ok {
						return res, fmt.Errorf("sim: block %q cycle %d tile %d: %w", b.Name, c, t+1, cdfg.NoALUError(in.Op))
					}
					newOut[t] = v
					hasOut[t] = true
				}
			}
			// Memory service: loads observe pre-cycle memory, stores
			// commit at end of cycle; conflicts stall the whole array.
			stalls := net.Stalls(accs)
			res.StallCycles += int64(stalls)
			res.Cycles += int64(1 + stalls)
			for _, mo := range memOps {
				tc := &res.Tiles[mo.tile]
				if mo.load {
					v, err := mem.Load(mo.addr)
					if err != nil {
						return res, fmt.Errorf("sim: block %q cycle %d tile %d: %w", b.Name, c, mo.tile+1, err)
					}
					newOut[mo.tile] = v
					hasOut[mo.tile] = true
					tc.MemReads++
				} else {
					tc.MemWrites++
				}
			}
			for _, mo := range memOps {
				if !mo.load {
					if err := mem.Store(mo.addr, mo.value); err != nil {
						return res, fmt.Errorf("sim: block %q cycle %d tile %d: %w", b.Name, c, mo.tile+1, err)
					}
				}
			}
			// Commit output registers and writebacks.
			for t := 0; t < n; t++ {
				in := grid[t][c]
				if in == nil {
					continue
				}
				if hasOut[t] {
					tiles[t].out = newOut[t]
					if in.WB {
						tiles[t].rf[in.WReg] = newOut[t]
						res.Tiles[t].RFWrites++
					}
				}
			}
		}
		if tracing {
			// Block executions land on the simulator's cycle-domain track:
			// the timestamp is the block's starting cycle, the duration its
			// cycle count including stalls.
			if blockEvents < blockEventCap {
				blockEvents++
				s.obs.EmitEvent(obs.Event{
					Name: b.Name, Cat: "sim.block", Ph: obs.PhaseComplete,
					TS: float64(blockStart), Dur: float64(res.Cycles - blockStart),
					PID: obs.PIDSim, TID: tid,
				})
			} else {
				blockEventsDropped++
			}
		}
		switch {
		case b.HasBranch():
			if branchTaken {
				cur = b.Succs[0]
			} else {
				cur = b.Succs[1]
			}
		case len(b.Succs) == 1:
			cur = b.Succs[0]
		default:
			s.recordRun(res, blockEventsDropped)
			return res, nil
		}
	}
}

// readSrcs resolves an instruction's operands against pre-cycle state
// into the caller's scratch buffer (len must equal in.NSrc). The result
// aliases that buffer and is consumed before the next instruction.
func (s *Sim) readSrcs(p *asm.Program, tiles []tileState, t int, in *isa.Instr, tc *TileCounters, vals []int32) ([]int32, error) {
	for i := 0; i < in.NSrc; i++ {
		src := in.Srcs[i]
		switch src.Kind {
		case isa.SrcConst:
			vals[i] = src.Val
			tc.CRFReads++
		case isa.SrcReg:
			if int(src.Reg) >= len(tiles[t].rf) {
				return nil, fmt.Errorf("register r%d out of range", src.Reg)
			}
			vals[i] = tiles[t].rf[src.Reg]
			tc.RFReads++
		case isa.SrcSelf:
			vals[i] = tiles[t].out
		case isa.SrcNbr:
			nb := p.Grid.Neighbors(arch.TileID(t))[src.Dir]
			vals[i] = tiles[nb].out
		default:
			return nil, fmt.Errorf("operand %d unset", i)
		}
	}
	return vals, nil
}

// EdgeRows counts the rows the program's CFG edges broadcast (see
// lblock.edge), so a test can check that its graph exercises them.
func EdgeRows(s *Sim) int {
	n := 0
	for _, lb := range s.low.blocks {
		n += len(lb.edge[0]) + len(lb.edge[1])
	}
	return n
}
