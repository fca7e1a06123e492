// Batched struct-of-arrays execution engine.
//
// The scalar interpreter in sim.go re-decodes each context word every
// cycle: per-operand switch dispatch, per-tile counter increments, and a
// map-backed interconnect model. The engine in this file lowers the
// expanded per-cycle instruction grid once into flat cycle-major op
// tables with fully resolved operand indices (the struct-of-arrays
// "lowered" form below, published on the program memo next to the
// decoded contexts), and then executes B independent input sets per
// bitstream in one pass: the batch dimension is the innermost loop, so
// decode, context fetch, stall analysis and branch resolution are
// amortized across all lanes that follow the same control path.
//
// Equivalence with the scalar interpreter is a hard contract, not a
// goal: results, cycle counts, per-tile activity counters, the obs
// event stream, and error behavior must be bit-identical (see
// batch_diff_test.go and FuzzBatchVsScalar). Two design decisions make
// that tractable:
//
//   - Activity counters are static per (block, tile): every TileCounters
//     field except the run totals is a pure function of the context
//     words, so the engine precomputes one table per block and
//     reconstructs a lane's counters as execCount × table at the end.
//     The inner loop does no counter work at all.
//
//   - Error behavior is delegated to the scalar interpreter. Lowering
//     marks every op the scalar path would reject (bad operand kinds,
//     out-of-range registers, unknown opcodes) as a fault op, and
//     memory accesses are bounds-checked per lane. A faulted lane is
//     removed from its group at the block boundary and re-run from its
//     initial memory by the scalar interpreter, which reproduces the
//     exact partial result, counters, and error of a direct Run. Fault
//     lanes are rare (a valid assembled program has none), so the
//     fallback costs nothing on the hot path.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/isa"
	"repro/internal/obs"
)

// Lowered op kinds. Fault marks an op the scalar interpreter would
// reject (or panic on); any lane executing one is re-run scalar.
const (
	lkALU uint8 = iota
	lkMove
	lkLoad
	lkStore
	lkBr
	lkFault
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
	// accs[c] counts the data-memory accesses issued in cycle c.
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

	// static is the per-tile activity of one execution of this block.
	static []TileCounters
	// maxAcc is the largest same-cycle access count; fast marks blocks
	// that can never stall (≤ 1 access per cycle).
	maxAcc int
	fast   bool

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
// struct-of-arrays form. It never fails: anything the scalar
// interpreter would reject at execution time becomes a fault op.
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
		blockLen := p.BlockLens[bi]
		lb := &low.blocks[bi]
		lb.bb = cdfg.BBID(bi)
		lb.name = b.Name
		lb.cycles = blockLen
		lb.hasBranch = b.HasBranch()
		lb.succs = b.Succs
		lb.cyc = make([]int32, blockLen+1)
		lb.accs = make([]int16, blockLen)
		for c := 0; c < blockLen; c++ {
			lb.cyc[c] = int32(len(lb.kind))
			nacc := 0
			for t := 0; t < n; t++ {
				in := expanded[bi][t][c]
				if in == nil {
					continue
				}
				k := classifyOp(in, grid, rrf)
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
		lb.cyc[blockLen] = int32(len(lb.kind))
		lb.fast = lb.maxAcc <= 1
		if lb.maxAcc > low.maxAcc {
			low.maxAcc = lb.maxAcc
		}
		lb.static = staticCounters(expanded[bi], blockLen, n)
	}
	return low
}

// classifyOp maps an instruction to its lowered kind, checking every
// condition under which the scalar interpreter would fail the op at
// execution time. SrcNbr direction and writeback-register overflows
// would panic the scalar path; they fault here so the fallback
// reproduces that behavior instead of the engine corrupting state.
func classifyOp(in *isa.Instr, grid *arch.Grid, rrf int) uint8 {
	for i := 0; i < in.NSrc; i++ {
		switch src := in.Srcs[i]; src.Kind {
		case isa.SrcConst, isa.SrcSelf:
		case isa.SrcReg:
			if int(src.Reg) >= rrf {
				return lkFault
			}
		case isa.SrcNbr:
			if int(src.Dir) >= len(grid.Neighbors(0)) {
				return lkFault
			}
		default:
			return lkFault
		}
	}
	var k uint8
	switch {
	case in.Kind == isa.KMove:
		if in.NSrc < 1 {
			return lkFault
		}
		k = lkMove
	case in.Op == cdfg.OpLoad:
		if in.NSrc < 1 {
			return lkFault
		}
		k = lkLoad
	case in.Op == cdfg.OpStore:
		if in.NSrc < 2 {
			return lkFault
		}
		k = lkStore
	case in.Op == cdfg.OpBr:
		if in.NSrc < 1 {
			return lkFault
		}
		k = lkBr
	default:
		var zeros [isa.MaxSrcs]int32
		na := in.Op.NumArgs()
		if na > isa.MaxSrcs || in.NSrc < na {
			return lkFault
		}
		if _, err := cdfg.EvalOp(in.Op, zeros[:na]); err != nil {
			return lkFault
		}
		k = lkALU
	}
	if (k == lkALU || k == lkMove || k == lkLoad) && in.WB && int(in.WReg) >= rrf {
		return lkFault
	}
	return k
}

// staticCounters replays the scalar interpreter's counting rules over
// the expanded grid of one block: every TileCounters field is a pure
// function of the context words, so one execution's activity is a
// constant table.
func staticCounters(grid [][]*isa.Instr, blockLen, n int) []TileCounters {
	st := make([]TileCounters, n)
	for t := 0; t < n; t++ {
		tc := &st[t]
		prevIdle := false
		for c := 0; c < blockLen; c++ {
			in := grid[t][c]
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

// errLaneFault is the internal marker for a lane the engine abandons to
// the scalar fallback; it never escapes RunBatch.
var errLaneFault = errors.New("sim: lane fault")

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
	clones  []cdfg.Memory
	results []*Result
	errs    []error

	out, nout []int32 // [tile*B+lane] output registers (pre/post cycle)
	rf        []int32 // [flatReg*B+lane] register files
	cycles    []int64
	stalls    []int64
	execs     []int64 // [block*B+lane]
	branch    []bool
	fault     []error
	fallback  []int32

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
	s := e.s
	B := len(mems)
	results := make([]*Result, B)
	if B == 0 {
		return results, nil
	}
	low := s.low
	n := low.numTiles
	r := &batchRun{
		s: s, B: B,
		mems:    mems,
		clones:  make([]cdfg.Memory, B),
		results: results,
		errs:    make([]error, B),
		out:     make([]int32, n*B),
		nout:    make([]int32, n*B),
		rf:      make([]int32, n*low.rrf*B),
		cycles:  make([]int64, B),
		stalls:  make([]int64, B),
		execs:   make([]int64, len(low.blocks)*B),
		branch:  make([]bool, B),
		fault:   make([]error, B),
		s0:      make([]int32, B),
		s1:      make([]int32, B),
		s2:      make([]int32, B),
		tracing: s.obs.Enabled(),
	}
	for l := range mems {
		r.clones[l] = mems[l].Clone()
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
	// Scalar fallback: re-run faulted lanes from their initial memory
	// with the reference interpreter, which reproduces the exact partial
	// result, event stream, and error of a direct Run.
	for _, l := range r.fallback {
		res, err := s.runScalar(r.clones[l], int(l))
		copy(mems[l], r.clones[l])
		results[l] = res
		r.errs[l] = err
	}
	if s.obs.Enabled() {
		s.obs.Counter("sim.engine.batches").Inc()
		s.obs.Counter("sim.engine.lanes").Add(int64(B))
		s.obs.Counter("sim.engine.block_execs").Add(r.totalHits)
		s.obs.Counter("sim.engine.fastpath_block_execs").Add(r.fastHits)
		if len(r.fallback) > 0 {
			s.obs.Counter("sim.engine.fallback_lanes").Add(int64(len(r.fallback)))
		}
	}
	for _, err := range r.errs {
		if err != nil {
			return results, &BatchError{Errs: r.errs}
		}
	}
	return results, nil
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
			r.execBlock(lb, lns)
			lns = r.dropFaulted(lns)
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

// gateMaxCycles applies the scalar interpreter's loop-top runaway check:
// lanes over the limit finalize with the same error and partial result.
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

// dropFaulted removes faulted lanes from the group and queues them for
// the scalar fallback.
func (r *batchRun) dropFaulted(lanes []int32) []int32 {
	faulted := false
	for _, l := range lanes {
		if r.fault[l] != nil {
			faulted = true
			break
		}
	}
	if !faulted {
		return lanes
	}
	keep := lanes[:0]
	for _, l := range lanes {
		if r.fault[l] != nil {
			r.fallback = append(r.fallback, l)
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
// commits output registers and writebacks.
func (r *batchRun) execBlock(lb *lblock, lanes []int32) {
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
	for c := 0; c < lb.cycles; c++ {
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
				dst := r.nout[t*B : t*B+B]
				if !aluEval(lb.op[oi], lanes, dst, a, bv, cv) {
					for _, l := range lanes {
						if r.fault[l] == nil {
							r.fault[l] = errLaneFault
						}
					}
				}
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
			case lkBr:
				a := r.gather(lb, 0, oi, lanes, r.s0)
				for _, l := range lanes {
					r.branch[l] = a[l] != 0
				}
			default: // lkFault
				for _, l := range lanes {
					if r.fault[l] == nil {
						r.fault[l] = errLaneFault
					}
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
					if r.fault[l] != nil {
						continue
					}
					m := r.mems[l]
					a := av[l]
					if a < 0 || int(a) >= len(m) {
						r.fault[l] = errLaneFault
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
					if r.fault[l] != nil {
						continue
					}
					m := r.mems[l]
					a := av[l]
					if a < 0 || int(a) >= len(m) {
						r.fault[l] = errLaneFault
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
	nl := int64(len(lanes))
	r.totalHits += nl
	if lb.fast {
		r.fastHits += nl
	}
	for _, l := range lanes {
		r.cycles[l] += int64(lb.cycles)
	}
	if r.tracing {
		for _, l := range lanes {
			if len(r.evBuf[l]) < blockEventCap {
				r.evBuf[l] = append(r.evBuf[l], laneEvent{lb.name, r.evStart[l], r.cycles[l] - r.evStart[l]})
			} else {
				r.evDropped[l]++
			}
		}
	}
}

// laneStalls computes one lane's global stall cycles for a cycle with na
// same-cycle accesses, replicating interconnect.Model.ServiceCycles with
// a flat bank-count scratch instead of a map.
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
// run counters — the same stream a scalar Run emits.
func (r *batchRun) finalizeLane(l int32, runErr error) {
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
}

// aluEval applies one lowered ALU op across the group's lanes. The
// cases mirror cdfg.EvalOp exactly; an unhandled opcode returns false
// (the lowering already routes those to the fault path, this is a
// backstop).
func aluEval(op cdfg.Opcode, lanes []int32, dst, a, b, c []int32) bool {
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
	default:
		return false
	}
	return true
}

func b2i32(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// RunBatchVerified is the batched form of RunVerified: every lane's
// final memory is cross-checked against the CDFG reference interpreter
// on its own copy of the initial memory. It returns per-lane results,
// interpreter traces, and verified final memories; a lane that diverges
// (or fails) has a nil memory and its *DivergenceError (or run error)
// in the returned *BatchError, which parallels the lanes.
func (e *Engine) RunBatchVerified(initials []cdfg.Memory) ([]*Result, []*cdfg.Trace, []cdfg.Memory, error) {
	s := e.s
	B := len(initials)
	trs := make([]*cdfg.Trace, B)
	mems := make([]cdfg.Memory, B)
	refs := make([]cdfg.Memory, B)
	errs := make([]error, B)
	got := make([]cdfg.Memory, B)
	for l := range initials {
		refs[l] = initials[l].Clone()
		got[l] = initials[l].Clone()
	}
	anyErr := false
	for l := range refs {
		tr, err := cdfg.Interp(s.prog.Graph, refs[l])
		if err != nil {
			errs[l] = fmt.Errorf("sim: reference interpretation: %w", err)
			anyErr = true
			continue
		}
		trs[l] = tr
	}
	results, runErr := e.RunBatch(got)
	var be *BatchError
	if runErr != nil && !errors.As(runErr, &be) {
		return results, trs, mems, runErr
	}
	for l := 0; l < B; l++ {
		if errs[l] != nil {
			results[l] = nil // the scalar path never simulates after an interp failure
			continue
		}
		if be != nil && be.Errs[l] != nil {
			errs[l] = be.Errs[l]
			anyErr = true
			continue
		}
		var div *DivergenceError
		for i := range refs[l] {
			if refs[l][i] != got[l][i] {
				if div == nil {
					div = &DivergenceError{
						Kernel: s.prog.Graph.Name,
						Config: s.prog.Grid.Name,
						Cycles: results[l].Cycles,
					}
				}
				div.Total++
				if len(div.Mismatches) < s.maxMismatches {
					div.Mismatches = append(div.Mismatches, Mismatch{Addr: i, Ref: refs[l][i], Got: got[l][i]})
				}
			}
		}
		if div != nil {
			errs[l] = div
			anyErr = true
			continue
		}
		mems[l] = got[l]
	}
	if anyErr {
		return results, trs, mems, &BatchError{Errs: errs}
	}
	return results, trs, mems, nil
}
