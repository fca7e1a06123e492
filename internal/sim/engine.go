// Batched struct-of-arrays execution engine: the simulator.
//
// The engine lowers the expanded per-cycle instruction grid once into
// flat cycle-major op tables with fully resolved operand indices (the
// struct-of-arrays "lowered" form below, published on the program memo
// next to the decoded contexts), and then executes B independent input
// sets per bitstream in one pass: the batch dimension is the innermost
// loop, so decode, context fetch, stall analysis and branch resolution
// are amortized across all lanes that follow the same control path.
//
// Its semantics are pinned against a tile-major reference interpreter
// that lives in this package's tests (export_test.go): results, cycle
// counts, per-tile activity counters, the obs event stream, and error
// behavior must be bit-identical (see batch_diff_test.go,
// fault_test.go and FuzzBatchVsScalar). Two design decisions make that
// tractable:
//
//   - Activity counters are static per (block, tile): every TileCounters
//     field except the run totals is a pure function of the context
//     words, so the engine precomputes one table per block and
//     reconstructs a lane's counters as execCount × table at the end.
//     The inner loop does no counter work at all.
//
//   - A lane stops where the reference interpreter stops. Every fault
//     but an out-of-range data address is a property of the context
//     words (bad operand kinds, out-of-range registers or neighbor
//     directions, opcodes without ALU semantics), so lowering finds each
//     block's first faulting op, ends the block's op tables at its cycle
//     and counts the block's table only up to that op: every lane that
//     enters the block stops there. Data addresses are bounds-checked
//     per lane; a lane whose load or store leaves memory stops in that
//     cycle's memory phase, and its counters for the block are counted
//     up to that access by the same counting function (countBlock).
package sim

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/isa"
	"repro/internal/obs"
)

// Lowered op kinds.
const (
	lkALU uint8 = iota
	lkMove
	lkLoad
	lkStore
	lkBr
)

// Lowered operand kinds: a constant value, a flat register-file index,
// or a tile whose output register is read (self and neighbor reads both
// lower to lsOut — the torus is resolved at predecode time).
const (
	lsConst uint8 = iota
	lsReg
	lsOut
)

// lblock is one basic block in lowered form: cycle-major op tables plus
// the static per-tile activity of one execution.
type lblock struct {
	bb     cdfg.BBID
	name   string
	cycles int

	// cyc[c] .. cyc[c+1] index the ops issued in cycle c.
	cyc []int32
	// accs[c] counts the data-memory accesses issued in cycle c. Its
	// length is the number of cycles lowered: the block length, or the
	// cycle of the block's fault.
	accs []int16

	kind []uint8
	op   []cdfg.Opcode
	tile []int32
	nsrc []uint8
	// res marks ops that commit an output-register value (moves, ALU ops,
	// loads); wb is the flat register-file index of a writeback, -1 if
	// none.
	res []bool
	wb  []int32
	// mslot is the op's slot among its cycle's memory accesses, -1 for
	// non-memory ops.
	mslot []int32

	srcKind [isa.MaxSrcs][]uint8
	srcIdx  [isa.MaxSrcs][]int32
	srcVal  [isa.MaxSrcs][]int32

	// static is the per-tile activity of one execution of this block, up
	// to the fault when the block has one.
	static []TileCounters
	// maxAcc is the largest same-cycle access count; fast marks blocks
	// that can never stall (≤ 1 access per cycle).
	maxAcc int
	fast   bool

	// fault, when non-nil, is the error of the block's first faulting
	// op, which issues in cycle len(accs): every lane entering the block
	// stops there.
	fault error

	hasBranch bool
	succs     []cdfg.BBID
}

// lowered is the whole program in pre-decoded struct-of-arrays form.
type lowered struct {
	numTiles int
	rrf      int
	ports    int
	banks    int
	maxAcc   int
	blocks   []lblock
}

// lower pre-decodes the expanded instruction grids into the
// struct-of-arrays form. It never fails: a block whose context words
// fault at execution time is lowered up to its first faulting op.
func lower(p *asm.Program, expanded [][][]*isa.Instr) *lowered {
	grid := p.Grid
	n := grid.NumTiles()
	rrf := grid.RRFSize
	low := &lowered{
		numTiles: n, rrf: rrf,
		ports: grid.MemPorts, banks: grid.MemBanks,
		blocks: make([]lblock, len(p.Graph.Blocks)),
	}
	for bi, b := range p.Graph.Blocks {
		lb := &low.blocks[bi]
		lb.bb = cdfg.BBID(bi)
		lb.name = b.Name
		lb.cycles = p.BlockLens[bi]
		lb.hasBranch = b.HasBranch()
		lb.succs = b.Succs
		stop := firstFault(lb, expanded[bi], grid)
		lb.static = countBlock(expanded[bi], n, stop)
		lb.cyc = make([]int32, stop.cycle+1)
		lb.accs = make([]int16, stop.cycle)
		for c := 0; c < stop.cycle; c++ {
			lb.cyc[c] = int32(len(lb.kind))
			nacc := 0
			for t := 0; t < n; t++ {
				in := expanded[bi][t][c]
				if in == nil {
					continue
				}
				k := kindOf(in)
				lb.kind = append(lb.kind, k)
				lb.op = append(lb.op, in.Op)
				lb.tile = append(lb.tile, int32(t))
				lb.nsrc = append(lb.nsrc, uint8(in.NSrc))
				hasOut := k == lkALU || k == lkMove || k == lkLoad
				lb.res = append(lb.res, hasOut)
				wb := int32(-1)
				if hasOut && in.WB {
					wb = int32(t*rrf + int(in.WReg))
				}
				lb.wb = append(lb.wb, wb)
				for i := 0; i < isa.MaxSrcs; i++ {
					sk, si, sv := lsConst, int32(0), int32(0)
					if i < in.NSrc {
						switch src := in.Srcs[i]; src.Kind {
						case isa.SrcConst:
							sv = src.Val
						case isa.SrcReg:
							sk, si = lsReg, int32(t*rrf+int(src.Reg))
						case isa.SrcSelf:
							sk, si = lsOut, int32(t)
						case isa.SrcNbr:
							sk, si = lsOut, int32(grid.Neighbors(arch.TileID(t))[src.Dir])
						}
					}
					lb.srcKind[i] = append(lb.srcKind[i], sk)
					lb.srcIdx[i] = append(lb.srcIdx[i], si)
					lb.srcVal[i] = append(lb.srcVal[i], sv)
				}
				mslot := int32(-1)
				if k == lkLoad || k == lkStore {
					mslot = int32(nacc)
					nacc++
				}
				lb.mslot = append(lb.mslot, mslot)
			}
			lb.accs[c] = int16(nacc)
			if nacc > lb.maxAcc {
				lb.maxAcc = nacc
			}
		}
		lb.cyc[stop.cycle] = int32(len(lb.kind))
		lb.fast = lb.maxAcc <= 1
		if lb.maxAcc > low.maxAcc {
			low.maxAcc = lb.maxAcc
		}
	}
	return low
}

// firstFault scans one block's expanded grid in execution order (cycle,
// then tile) for the first op that faults, records its error on lb and
// returns where an execution of the block stops: at that op, or at the
// block's end.
func firstFault(lb *lblock, grid [][]*isa.Instr, g *arch.Grid) stopPoint {
	nbrs := len(g.Neighbors(0))
	for c := 0; c < lb.cycles; c++ {
		for t := range grid {
			in := grid[t][c]
			if in == nil {
				continue
			}
			if srcs, class, err := opFault(in, nbrs, g.RRFSize); err != nil {
				lb.fault = fmt.Errorf("sim: block %q cycle %d tile %d: %w", lb.name, c, t+1, err)
				return stopPoint{cycle: c, tile: t, srcs: srcs, class: class}
			}
		}
	}
	return stopPoint{cycle: lb.cycles}
}

// kindOf maps an instruction to its lowered kind the way the reference
// interpreter dispatches it: moves by word kind, the rest by opcode.
func kindOf(in *isa.Instr) uint8 {
	switch {
	case in.Kind == isa.KMove:
		return lkMove
	case in.Op == cdfg.OpLoad:
		return lkLoad
	case in.Op == cdfg.OpStore:
		return lkStore
	case in.Op == cdfg.OpBr:
		return lkBr
	}
	return lkALU
}

// opFault reports whether executing in faults whatever the data, in the
// order the op executes: its operands are read one by one (a fault
// there stops after srcs operands), then its op class is counted
// (class) and its value computed and written back. A nil error means
// the op is clean.
func opFault(in *isa.Instr, nbrs, rrf int) (srcs int, class bool, err error) {
	if in.NSrc < 0 || in.NSrc > isa.MaxSrcs {
		return 0, false, fmt.Errorf("operand count %d out of range", in.NSrc)
	}
	for i := 0; i < in.NSrc; i++ {
		switch src := in.Srcs[i]; src.Kind {
		case isa.SrcConst, isa.SrcSelf:
		case isa.SrcReg:
			if int(src.Reg) >= rrf {
				return i, false, fmt.Errorf("register r%d out of range", src.Reg)
			}
		case isa.SrcNbr:
			if int(src.Dir) >= nbrs {
				return i, false, fmt.Errorf("neighbor direction %d out of range", src.Dir)
			}
		default:
			return i, false, fmt.Errorf("operand %d unset", i)
		}
	}
	k := kindOf(in)
	need := 1
	if k == lkALU {
		var zeros [isa.MaxSrcs]int32
		if _, err := cdfg.EvalOp(in.Op, zeros[:]); err != nil {
			return in.NSrc, true, err
		}
		need = in.Op.NumArgs()
	} else if k == lkStore {
		need = 2
	}
	if in.NSrc < need {
		return in.NSrc, true, fmt.Errorf("%d operands, %s needs %d", in.NSrc, in.Op, need)
	}
	if in.WB && int(in.WReg) >= rrf && (k == lkALU || k == lkMove || k == lkLoad) {
		return in.NSrc, true, fmt.Errorf("writeback register r%d out of range", in.WReg)
	}
	return 0, false, nil
}

// stopPoint is where one execution of a block ends. A complete
// execution stops at cycle == the block length. A fault stops in cycle
// cycle: in its issue phase at tile's op, after that op read srcs
// operands and, when class is set, counted its op class; or, when mem
// is set, in its memory phase, after every op of the cycle issued and
// the accesses of the tiles before tile were served.
type stopPoint struct {
	cycle, tile, srcs int
	class, mem        bool
}

// countBlock applies the simulator's counting rules to one block's
// expanded grid for an execution that ends at st: a pnop word is
// fetched once per idle stretch, each op or move once per cycle, an
// operand read counts its register file, a memory access counts when
// the memory phase serves it, and a writeback when its cycle commits.
// Complete executions give the static per-block tables; a faulting one
// gives the partial counters of a run that stops inside the block.
func countBlock(grid [][]*isa.Instr, n int, st stopPoint) []TileCounters {
	tcs := make([]TileCounters, n)
	for t := 0; t < n; t++ {
		tc := &tcs[t]
		prevIdle := false
		for c := 0; c <= st.cycle && c < len(grid[t]); c++ {
			last := c == st.cycle
			if last && !st.mem && t > st.tile {
				break
			}
			in := grid[t][c]
			if in == nil {
				if !prevIdle {
					tc.Fetches++ // the pnop word itself
					tc.PnopFetches++
				}
				prevIdle = true
				tc.IdleCycles++
				continue
			}
			prevIdle = false
			tc.Fetches++
			faulting := last && !st.mem && t == st.tile
			nsrc := in.NSrc
			if faulting {
				nsrc = st.srcs
			}
			for i := 0; i < nsrc; i++ {
				switch in.Srcs[i].Kind {
				case isa.SrcConst:
					tc.CRFReads++
				case isa.SrcReg:
					tc.RFReads++
				}
			}
			if faulting && !st.class {
				break
			}
			served := !last || st.mem && t < st.tile
			hasOut := false
			switch kindOf(in) {
			case lkMove:
				tc.MoveCycles++
				hasOut = true
			case lkLoad:
				tc.OpCycles++
				tc.MemOps++
				if served {
					tc.MemReads++
				}
				hasOut = true
			case lkStore:
				tc.OpCycles++
				tc.MemOps++
				if served {
					tc.MemWrites++
				}
			case lkBr:
				tc.OpCycles++
				tc.BranchOps++
			default:
				tc.OpCycles++
				tc.ALUOps++
				hasOut = true
			}
			if hasOut && in.WB && !last {
				tc.RFWrites++
			}
		}
	}
	return tcs
}

// addScaled accumulates k executions' worth of src into dst.
func addScaled(dst, src *TileCounters, k int64) {
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

// Engine executes a program on batches of independent input memories.
// It shares the simulator's options (mismatch cap, obs recorder) and the
// program's memoized lowered form; constructing one is cheap.
type Engine struct {
	s *Sim
}

// NewEngine prepares a batched engine for the program.
func NewEngine(p *asm.Program, opts ...Option) (*Engine, error) {
	s, err := New(p, opts...)
	if err != nil {
		return nil, err
	}
	return &Engine{s: s}, nil
}

// Engine returns a batched execution engine sharing this simulator's
// program, options, and recorder.
func (s *Sim) Engine() *Engine { return &Engine{s: s} }

// BatchError aggregates per-lane failures of a RunBatch. Errs always has
// one entry per lane; nil entries are lanes that completed. Unwrap
// exposes the failed lanes so errors.As finds lane errors (for example
// *DivergenceError from RunBatchVerified).
type BatchError struct {
	Errs []error
}

// batchError wraps per-lane errors in a *BatchError, or returns nil
// when every lane completed.
func batchError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return &BatchError{Errs: errs}
		}
	}
	return nil
}

// Error summarizes the failed lanes around the first failure.
func (e *BatchError) Error() string {
	failed, first := 0, -1
	for i, err := range e.Errs {
		if err != nil {
			failed++
			if first < 0 {
				first = i
			}
		}
	}
	return fmt.Sprintf("sim: %d of %d lanes failed; lane %d: %v", failed, len(e.Errs), first, e.Errs[first])
}

// Unwrap returns the non-nil lane errors.
func (e *BatchError) Unwrap() []error {
	errs := make([]error, 0, len(e.Errs))
	for _, err := range e.Errs {
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// laneEvent is one buffered block-timeline event; lanes interleave in
// the engine, so events are buffered per lane and flushed in order when
// the lane finishes.
type laneEvent struct {
	name  string
	start int64
	dur   int64
}

// batchRun is the mutable state of one RunBatch: all architectural
// state is a flat array with the lane index innermost ([tile*B+lane],
// [reg*B+lane]) so the per-op inner loops are contiguous.
type batchRun struct {
	s *Sim
	B int

	mems    []cdfg.Memory
	results []*Result
	errs    []error

	out, nout []int32 // [tile*B+lane] output registers (pre/post cycle)
	rf        []int32 // [flatReg*B+lane] register files
	cycles    []int64
	stalls    []int64
	execs     []int64 // [block*B+lane]
	branch    []bool
	// stopped marks lanes a fault finalized inside the current block;
	// they ride along to the block's end without touching memory.
	stopped []bool

	s0, s1, s2    []int32   // per-operand-position constant scratch
	maddr, mval   []int32   // [slot*B+lane] memory address/value scratch
	maddrV, mvalV [][]int32 // per-slot resolved views for the current cycle
	bankCnt       []int32
	banksTouched  []int32

	tracing   bool
	evBuf     [][]laneEvent
	evDropped []int64
	evStart   []int64

	fastHits, totalHits int64
}

// RunBatch executes the program once per input memory (each modified in
// place), returning one Result per lane in input order. Lanes are
// independent: the results, counters, and errors are bit-identical to B
// separate Run calls. Per-lane failures are aggregated in a *BatchError
// whose Errs slice parallels the results (a lane's partial Result is
// still returned, exactly as Run returns one next to its error). An
// empty batch returns an empty result slice.
func (e *Engine) RunBatch(mems []cdfg.Memory) ([]*Result, error) {
	results, errs := e.run(mems)
	return results, batchError(errs)
}

// run is RunBatch with the per-lane errors unwrapped.
func (e *Engine) run(mems []cdfg.Memory) ([]*Result, []error) {
	s := e.s
	B := len(mems)
	results := make([]*Result, B)
	errs := make([]error, B)
	if B == 0 {
		return results, errs
	}
	low := s.low
	n := low.numTiles
	r := &batchRun{
		s: s, B: B,
		mems:    mems,
		results: results,
		errs:    errs,
		out:     make([]int32, n*B),
		nout:    make([]int32, n*B),
		rf:      make([]int32, n*low.rrf*B),
		cycles:  make([]int64, B),
		stalls:  make([]int64, B),
		execs:   make([]int64, len(low.blocks)*B),
		branch:  make([]bool, B),
		stopped: make([]bool, B),
		s0:      make([]int32, B),
		s1:      make([]int32, B),
		s2:      make([]int32, B),
		tracing: s.obs.Enabled(),
	}
	if low.maxAcc > 0 {
		r.maddr = make([]int32, low.maxAcc*B)
		r.mval = make([]int32, low.maxAcc*B)
		r.maddrV = make([][]int32, low.maxAcc)
		r.mvalV = make([][]int32, low.maxAcc)
		r.bankCnt = make([]int32, low.banks)
		r.banksTouched = make([]int32, 0, low.maxAcc)
	}
	if r.tracing {
		r.evBuf = make([][]laneEvent, B)
		r.evDropped = make([]int64, B)
		r.evStart = make([]int64, B)
	}
	r.run()
	if s.obs.Enabled() {
		s.obs.Counter("sim.engine.batches").Inc()
		s.obs.Counter("sim.engine.lanes").Add(int64(B))
		s.obs.Counter("sim.engine.block_execs").Add(r.totalHits)
		s.obs.Counter("sim.engine.fastpath_block_execs").Add(r.fastHits)
	}
	return results, errs
}

// laneGroup is a set of lanes at the same basic block. Lanes that
// diverge at a branch split into two groups; each group owns its lane
// slice exclusively.
type laneGroup struct {
	bb    cdfg.BBID
	lanes []int32
}

// run executes all lanes to completion (or fault) with a group
// worklist.
func (r *batchRun) run() {
	low := r.s.low
	lanes := make([]int32, r.B)
	for i := range lanes {
		lanes[i] = int32(i)
	}
	stack := []laneGroup{{r.s.prog.Graph.Entry, lanes}}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		bb, lns := g.bb, g.lanes
		for len(lns) > 0 {
			lns = r.gateMaxCycles(lns)
			if len(lns) == 0 {
				break
			}
			lb := &low.blocks[bb]
			for _, l := range lns {
				r.execs[int(bb)*r.B+int(l)]++
			}
			nl := int64(len(lns))
			r.totalHits += nl
			if lb.fast {
				r.fastHits += nl
			}
			lns = r.execBlock(lb, lns)
			if len(lns) == 0 {
				break
			}
			switch {
			case lb.hasBranch:
				taken := r.branch[lns[0]]
				uniform := true
				for _, l := range lns[1:] {
					if r.branch[l] != taken {
						uniform = false
						break
					}
				}
				if uniform {
					if taken {
						bb = lb.succs[0]
					} else {
						bb = lb.succs[1]
					}
					continue
				}
				var tk, nt []int32
				for _, l := range lns {
					if r.branch[l] {
						tk = append(tk, l)
					} else {
						nt = append(nt, l)
					}
				}
				stack = append(stack, laneGroup{lb.succs[1], nt})
				bb, lns = lb.succs[0], tk
			case len(lb.succs) == 1:
				bb = lb.succs[0]
			default:
				for _, l := range lns {
					r.finalizeLane(l, nil)
				}
				lns = nil
			}
		}
	}
}

// gateMaxCycles applies the runaway check at each block entry: lanes
// over the limit finalize with the error and their partial result.
func (r *batchRun) gateMaxCycles(lanes []int32) []int32 {
	over := false
	for _, l := range lanes {
		if r.cycles[l] > MaxCycles {
			over = true
			break
		}
	}
	if !over {
		return lanes
	}
	keep := lanes[:0]
	for _, l := range lanes {
		if r.cycles[l] > MaxCycles {
			r.finalizeLane(l, fmt.Errorf("sim: exceeded %d cycles in %q", MaxCycles, r.s.prog.Graph.Name))
		} else {
			keep = append(keep, l)
		}
	}
	return keep
}

// gather resolves one operand of one op for the whole group: constants
// fill the scratch buffer, register and output-register operands return
// a direct view into the flat state (stable until the commit phase).
func (r *batchRun) gather(lb *lblock, si, oi int, lanes []int32, scratch []int32) []int32 {
	B := r.B
	switch lb.srcKind[si][oi] {
	case lsOut:
		i := int(lb.srcIdx[si][oi])
		return r.out[i*B : i*B+B]
	case lsReg:
		i := int(lb.srcIdx[si][oi])
		return r.rf[i*B : i*B+B]
	default:
		v := lb.srcVal[si][oi]
		for _, l := range lanes {
			scratch[l] = v
		}
		return scratch
	}
}

// execBlock runs one basic block for one lane group, cycle by cycle:
// phase 1 issues ops (reads observe pre-cycle state), phase 2 services
// memory (per-lane bank-conflict stalls, loads before stores), phase 3
// commits output registers and writebacks. It returns the lanes that
// completed the block; the ones that stopped in it are finalized.
func (r *batchRun) execBlock(lb *lblock, lanes []int32) []int32 {
	B := r.B
	if r.tracing {
		for _, l := range lanes {
			r.evStart[l] = r.cycles[l]
		}
	}
	if lb.hasBranch {
		for _, l := range lanes {
			r.branch[l] = false
		}
	}
	for c := range lb.accs {
		lo, hi := int(lb.cyc[c]), int(lb.cyc[c+1])
		for oi := lo; oi < hi; oi++ {
			t := int(lb.tile[oi])
			switch lb.kind[oi] {
			case lkALU:
				a := r.gather(lb, 0, oi, lanes, r.s0)
				var bv, cv []int32
				if lb.nsrc[oi] > 1 {
					bv = r.gather(lb, 1, oi, lanes, r.s1)
				}
				if lb.nsrc[oi] > 2 {
					cv = r.gather(lb, 2, oi, lanes, r.s2)
				}
				aluEval(lb.op[oi], lanes, r.nout[t*B:t*B+B], a, bv, cv)
			case lkMove:
				a := r.gather(lb, 0, oi, lanes, r.s0)
				dst := r.nout[t*B : t*B+B]
				for _, l := range lanes {
					dst[l] = a[l]
				}
			case lkLoad:
				slot := int(lb.mslot[oi])
				r.maddrV[slot] = r.gather(lb, 0, oi, lanes, r.maddr[slot*B:slot*B+B])
			case lkStore:
				slot := int(lb.mslot[oi])
				r.maddrV[slot] = r.gather(lb, 0, oi, lanes, r.maddr[slot*B:slot*B+B])
				r.mvalV[slot] = r.gather(lb, 1, oi, lanes, r.mval[slot*B:slot*B+B])
			default: // lkBr
				a := r.gather(lb, 0, oi, lanes, r.s0)
				for _, l := range lanes {
					r.branch[l] = a[l] != 0
				}
			}
		}
		if na := int(lb.accs[c]); na > 0 {
			if na > 1 {
				for _, l := range lanes {
					if st := r.laneStalls(na, int(l)); st > 0 {
						r.stalls[l] += st
						r.cycles[l] += st
					}
				}
			}
			for oi := lo; oi < hi; oi++ {
				if lb.kind[oi] != lkLoad {
					continue
				}
				t := int(lb.tile[oi])
				av := r.maddrV[int(lb.mslot[oi])]
				dst := r.nout[t*B : t*B+B]
				for _, l := range lanes {
					if r.stopped[l] {
						continue
					}
					m := r.mems[l]
					a := av[l]
					if a < 0 || int(a) >= len(m) {
						_, err := m.Load(a)
						r.stopInMemory(l, lb, c, t, t, err)
						continue
					}
					dst[l] = m[a]
				}
			}
			for oi := lo; oi < hi; oi++ {
				if lb.kind[oi] != lkStore {
					continue
				}
				slot := int(lb.mslot[oi])
				av, vv := r.maddrV[slot], r.mvalV[slot]
				for _, l := range lanes {
					if r.stopped[l] {
						continue
					}
					m := r.mems[l]
					a := av[l]
					if a < 0 || int(a) >= len(m) {
						err := m.Store(a, vv[l])
						r.stopInMemory(l, lb, c, int(lb.tile[oi]), r.s.low.numTiles, err)
						continue
					}
					m[a] = vv[l]
				}
			}
		}
		for oi := lo; oi < hi; oi++ {
			if !lb.res[oi] {
				continue
			}
			t := int(lb.tile[oi])
			nv := r.nout[t*B : t*B+B]
			ov := r.out[t*B : t*B+B]
			if w := lb.wb[oi]; w >= 0 {
				rv := r.rf[int(w)*B : int(w)*B+B]
				for _, l := range lanes {
					v := nv[l]
					ov[l] = v
					rv[l] = v
				}
			} else {
				for _, l := range lanes {
					ov[l] = nv[l]
				}
			}
		}
	}
	if lb.fault != nil {
		// Every lane still running reaches the block's faulting op in
		// its issue phase: lb.static already counts up to it.
		for _, l := range lanes {
			if !r.stopped[l] {
				r.cycles[l] += int64(len(lb.accs))
				r.finalizeLane(l, lb.fault)
			}
		}
		return lanes[:0]
	}
	keep := lanes[:0]
	for _, l := range lanes {
		if !r.stopped[l] {
			keep = append(keep, l)
		}
	}
	for _, l := range keep {
		r.cycles[l] += int64(lb.cycles)
	}
	if r.tracing {
		for _, l := range keep {
			if len(r.evBuf[l]) < blockEventCap {
				r.evBuf[l] = append(r.evBuf[l], laneEvent{lb.name, r.evStart[l], r.cycles[l] - r.evStart[l]})
			} else {
				r.evDropped[l]++
			}
		}
	}
	return keep
}

// stopInMemory finalizes lane l, whose access on tile t left memory in
// the memory phase of cycle c: the cycle and its stalls count, and the
// block's counters are counted up to the access (stopTile is the first
// tile whose access the memory phase did not serve). The lane rides
// along to the block's end without touching memory again.
func (r *batchRun) stopInMemory(l int32, lb *lblock, c, t, stopTile int, err error) {
	r.stopped[l] = true
	r.cycles[l] += int64(c + 1)
	res := r.finalizeLane(l, fmt.Errorf("sim: block %q cycle %d tile %d: %w", lb.name, c, t+1, err))
	part := countBlock(r.s.expanded[lb.bb], len(res.Tiles), stopPoint{cycle: c, tile: stopTile, mem: true})
	for i := range res.Tiles {
		addScaled(&res.Tiles[i], &lb.static[i], -1)
		res.Tiles[i].Add(part[i])
	}
}

// laneStalls computes one lane's global stall cycles for a cycle with na
// same-cycle accesses: the interconnect serves them in one cycle per
// port group and serializes same-bank accesses (a flat bank-count
// scratch, no map).
func (r *batchRun) laneStalls(na, l int) int64 {
	low := r.s.low
	banks := int32(low.banks)
	maxBank := int32(0)
	touched := r.banksTouched[:0]
	for j := 0; j < na; j++ {
		a := r.maddrV[j][l]
		b := a % banks
		if b < 0 {
			b += banks
		}
		cnt := r.bankCnt[b] + 1
		r.bankCnt[b] = cnt
		if cnt == 1 {
			touched = append(touched, b)
		}
		if cnt > maxBank {
			maxBank = cnt
		}
	}
	for _, b := range touched {
		r.bankCnt[b] = 0
	}
	r.banksTouched = touched[:0]
	need := (na + low.ports - 1) / low.ports
	if int(maxBank) > need {
		need = int(maxBank)
	}
	return int64(need - 1)
}

// finalizeLane builds a lane's Result from the static block tables,
// flushes its buffered block timeline, and (on clean exit) publishes the
// run counters.
func (r *batchRun) finalizeLane(l int32, runErr error) *Result {
	low, B := r.s.low, r.B
	n := low.numTiles
	res := &Result{
		BlockExecs:  map[cdfg.BBID]int64{},
		Tiles:       make([]TileCounters, n),
		ConfigWords: r.s.prog.TotalWords(),
		Cycles:      r.cycles[l],
		StallCycles: r.stalls[l],
	}
	for bi := range low.blocks {
		cnt := r.execs[bi*B+int(l)]
		if cnt == 0 {
			continue
		}
		res.BlockExecs[cdfg.BBID(bi)] = cnt
		st := low.blocks[bi].static
		for t := 0; t < n; t++ {
			addScaled(&res.Tiles[t], &st[t], cnt)
		}
	}
	r.results[l] = res
	r.errs[l] = runErr
	if r.tracing {
		for _, ev := range r.evBuf[l] {
			r.s.obs.EmitEvent(obs.Event{
				Name: ev.name, Cat: "sim.block", Ph: obs.PhaseComplete,
				TS: float64(ev.start), Dur: float64(ev.dur),
				PID: obs.PIDSim, TID: int(l),
			})
		}
	}
	if runErr == nil {
		var dropped int64
		if r.tracing {
			dropped = r.evDropped[l]
		}
		r.s.recordRun(res, dropped)
	}
	return res
}

// aluEval applies one lowered ALU op across the group's lanes. The
// cases mirror cdfg.EvalOp exactly, one per opcode it accepts (lowering
// admits no other; TestALUEvalMatchesEvalOp pins the two together).
func aluEval(op cdfg.Opcode, lanes []int32, dst, a, b, c []int32) {
	switch op {
	case cdfg.OpAdd:
		for _, l := range lanes {
			dst[l] = a[l] + b[l]
		}
	case cdfg.OpSub:
		for _, l := range lanes {
			dst[l] = a[l] - b[l]
		}
	case cdfg.OpMul:
		for _, l := range lanes {
			dst[l] = a[l] * b[l]
		}
	case cdfg.OpMulH:
		for _, l := range lanes {
			dst[l] = int32((int64(a[l]) * int64(b[l])) >> 32)
		}
	case cdfg.OpAnd:
		for _, l := range lanes {
			dst[l] = a[l] & b[l]
		}
	case cdfg.OpOr:
		for _, l := range lanes {
			dst[l] = a[l] | b[l]
		}
	case cdfg.OpXor:
		for _, l := range lanes {
			dst[l] = a[l] ^ b[l]
		}
	case cdfg.OpShl:
		for _, l := range lanes {
			dst[l] = a[l] << (uint32(b[l]) & 31)
		}
	case cdfg.OpShr:
		for _, l := range lanes {
			dst[l] = int32(uint32(a[l]) >> (uint32(b[l]) & 31))
		}
	case cdfg.OpSra:
		for _, l := range lanes {
			dst[l] = a[l] >> (uint32(b[l]) & 31)
		}
	case cdfg.OpLt:
		for _, l := range lanes {
			dst[l] = b2i32(a[l] < b[l])
		}
	case cdfg.OpLe:
		for _, l := range lanes {
			dst[l] = b2i32(a[l] <= b[l])
		}
	case cdfg.OpEq:
		for _, l := range lanes {
			dst[l] = b2i32(a[l] == b[l])
		}
	case cdfg.OpNe:
		for _, l := range lanes {
			dst[l] = b2i32(a[l] != b[l])
		}
	case cdfg.OpGe:
		for _, l := range lanes {
			dst[l] = b2i32(a[l] >= b[l])
		}
	case cdfg.OpGt:
		for _, l := range lanes {
			dst[l] = b2i32(a[l] > b[l])
		}
	case cdfg.OpMin:
		for _, l := range lanes {
			if a[l] < b[l] {
				dst[l] = a[l]
			} else {
				dst[l] = b[l]
			}
		}
	case cdfg.OpMax:
		for _, l := range lanes {
			if a[l] > b[l] {
				dst[l] = a[l]
			} else {
				dst[l] = b[l]
			}
		}
	case cdfg.OpAbs:
		for _, l := range lanes {
			if a[l] < 0 {
				dst[l] = -a[l]
			} else {
				dst[l] = a[l]
			}
		}
	case cdfg.OpNeg:
		for _, l := range lanes {
			dst[l] = -a[l]
		}
	case cdfg.OpSelect:
		for _, l := range lanes {
			if a[l] != 0 {
				dst[l] = b[l]
			} else {
				dst[l] = c[l]
			}
		}
	case cdfg.OpMove:
		for _, l := range lanes {
			dst[l] = a[l]
		}
	}
}

func b2i32(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
