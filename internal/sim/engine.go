// Batched struct-of-arrays execution engine: the simulator.
//
// The engine lowers the expanded per-cycle instruction grid once into
// flat cycle-major op tables with fully resolved operand indices (the
// struct-of-arrays "lowered" form below, published on the program memo
// next to the decoded contexts), and then executes B independent input
// sets per bitstream in one pass: the batch dimension is the innermost
// loop, so decode, context fetch, stall analysis and branch resolution
// are amortized across all lanes that follow the same control path.
// Those lanes are held as runs of consecutive lanes, so the per-lane
// loops of the ALU, moves, branches and memory are dense ranges over a
// run's slice of a state row.
// A wide batch is split into contiguous lane shards that run side by
// side, one per core (see run); the outputs do not depend on how many.
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
	"runtime"
	"sync"

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

// lblock is one basic block in lowered form: cycle-major op tables plus
// the static per-tile activity of one execution.
type lblock struct {
	bb     cdfg.BBID
	name   string
	cycles int

	// cyc[c] groups the ops of cycle c (see cycOps); cyc[c+1].alu ends
	// them. len(cyc)-1 is the number of cycles lowered: the block length,
	// or the cycle of the block's fault.
	cyc []cycOps

	op   []cdfg.Opcode // a move lowers to OpMove
	tile []int32
	// wb is the state row of a writeback register, -1 if none.
	wb []int32

	// src[i][op] is the state row operand i reads (see lowered.rows):
	// neighbor reads are resolved through the torus at lowering time, and
	// unused operand positions read the constant 0.
	src [isa.MaxSrcs][]int32

	// static is the per-tile activity of one execution of this block, up
	// to the fault when the block has one.
	static []TileCounters
	// maxAcc is the largest same-cycle access count; fast marks blocks
	// that can never stall (≤ 1 access per cycle).
	maxAcc int
	fast   bool

	// fault, when non-nil, is the error of the block's first faulting
	// op, which issues in cycle len(cyc)-1: every lane entering the block
	// stops there.
	fault error

	hasBranch bool
	succs     []cdfg.BBID
}

// cycOps indexes one cycle's ops, grouped: the ALU ops and moves from
// alu, the loads from ld, the stores from st, then the branch from br.
// Loads and stores each keep tile order, the order the memory phase
// serves them, and an access's slot among the cycle's accesses is its
// index minus ld. The ops with a result are alu..st.
type cycOps struct{ alu, ld, st, br int32 }

// lowered is the whole program in pre-decoded struct-of-arrays form.
type lowered struct {
	numTiles int
	rrf      int
	ports    int
	banks    int
	maxAcc   int
	blocks   []lblock
	// consts holds every distinct constant operand value, one state row
	// each from constRow on; a batch run broadcasts them to every lane once.
	consts []int32
}

// A batch run keeps all architectural state in one flat array of rows,
// each one int32 per lane: the register files (row tile*rrf+reg), the
// output registers before the cycle (outRow+tile), the output registers
// the cycle computes (noutRow+tile), and the constants (constRow+k). An
// operand is a row number, whatever it reads.
func (low *lowered) outRow() int   { return low.numTiles * low.rrf }
func (low *lowered) noutRow() int  { return low.outRow() + low.numTiles }
func (low *lowered) constRow() int { return low.noutRow() + low.numTiles }
func (low *lowered) rows() int     { return low.constRow() + len(low.consts) }

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
	constIdx := map[int32]int32{}
	intern := func(v int32) int32 {
		row, ok := constIdx[v]
		if !ok {
			row = int32(low.constRow() + len(low.consts))
			constIdx[v] = row
			low.consts = append(low.consts, v)
		}
		return row
	}
	outRow := low.outRow()
	var groups [4][]int // one cycle's tiles by op group, each in tile order
	for bi, b := range p.Graph.Blocks {
		lb := &low.blocks[bi]
		lb.bb = cdfg.BBID(bi)
		lb.name = b.Name
		lb.cycles = p.BlockLens[bi]
		lb.hasBranch = b.HasBranch()
		lb.succs = b.Succs
		stop := firstFault(lb, expanded[bi], grid)
		lb.static = countBlock(expanded[bi], n, stop)
		lb.cyc = make([]cycOps, stop.cycle+1)
		for c := 0; c < stop.cycle; c++ {
			for g := range groups {
				groups[g] = groups[g][:0]
			}
			for t := 0; t < n; t++ {
				if in := expanded[bi][t][c]; in != nil {
					g := opGroup(kindOf(in))
					groups[g] = append(groups[g], t)
				}
			}
			cy := &lb.cyc[c]
			cy.alu = int32(len(lb.op))
			cy.ld = cy.alu + int32(len(groups[0]))
			cy.st = cy.ld + int32(len(groups[1]))
			cy.br = cy.st + int32(len(groups[2]))
			for g, tiles := range groups {
				for _, t := range tiles {
					in := expanded[bi][t][c]
					op, wb := in.Op, int32(-1)
					if kindOf(in) == lkMove {
						op = cdfg.OpMove
					}
					if g < 2 && in.WB {
						wb = int32(t*rrf + int(in.WReg))
					}
					lb.op = append(lb.op, op)
					lb.tile = append(lb.tile, int32(t))
					lb.wb = append(lb.wb, wb)
					for i := 0; i < isa.MaxSrcs; i++ {
						row, v := int32(-1), int32(0)
						if i < in.NSrc {
							switch src := in.Srcs[i]; src.Kind {
							case isa.SrcConst:
								v = src.Val
							case isa.SrcReg:
								row = int32(t*rrf + int(src.Reg))
							case isa.SrcSelf:
								row = int32(outRow + t)
							case isa.SrcNbr:
								row = int32(outRow + int(grid.Neighbors(arch.TileID(t))[src.Dir]))
							}
						}
						if row < 0 {
							row = intern(v)
						}
						lb.src[i] = append(lb.src[i], row)
					}
				}
			}
			lb.maxAcc = max(lb.maxAcc, int(cy.br-cy.ld))
		}
		lb.cyc[stop.cycle].alu = int32(len(lb.op))
		lb.fast = lb.maxAcc <= 1
		low.maxAcc = max(low.maxAcc, lb.maxAcc)
	}
	return low
}

// opGroup is the group of a lowered op kind within its cycle (see
// lblock.cyc): ALU ops and moves, loads, stores, the branch.
func opGroup(k uint8) int {
	switch k {
	case lkLoad:
		return 1
	case lkStore:
		return 2
	case lkBr:
		return 3
	}
	return 0
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
// the engine, so events are buffered per lane and flushed in lane order
// once every shard has finished.
type laneEvent struct {
	name  string
	start int64
	dur   int64
}

// batchRun is the mutable state of one shard of a RunBatch: all
// architectural state is one flat array of rows with the lane index
// innermost (st[row*B+lane]), so a run of consecutive lanes is a dense
// range of every row. Lane l of the shard is lane base+l of the batch.
type batchRun struct {
	s    *Sim
	B    int
	base int

	mems    []cdfg.Memory
	results []*Result
	errs    []error

	st     []int32 // [row*B+lane] state rows (see lowered.rows)
	cycles []int64
	stalls []int64
	execs  []int64 // [block*B+lane]
	branch []bool
	// done marks finalized lanes. A lane that stops in a memory phase
	// skips the cycle's remaining accesses and then leaves its group.
	done []bool

	arow []int   // per-access address-row offsets of the current cycle
	bank []int32 // one lane's banks of the current cycle's accesses

	tracing   bool
	evBuf     [][]laneEvent
	evDropped []int64
	evStart   []int64

	fastHits, totalHits int64
}

// minShardLanes is the smallest shard worth a goroutine of its own. It
// is read off BenchmarkSimRunBatch on one core: a 16-lane batch costs
// 1.35–1.9× a 64-lane batch's per-lane time (median per kernel), so a
// shard of 16 lanes keeps most of the batch's amortization. On two
// vCPUs a 64-lane batch split into two shards takes 0.82–1.03× the time
// of one shard (median per kernel: the large kernels gain, FIR, FFT and
// DCFilter break even). Splits over more cores are unmeasured. Batches
// under two shards' worth (Run, RunVerified, the oracle's two-lane
// batches) run on the caller.
const minShardLanes = 16

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

// run is RunBatch with the per-lane errors unwrapped. It splits the B
// lanes into W = min(GOMAXPROCS, B/minShardLanes) contiguous shards:
// shard 0 runs on the caller, the others on goroutines, and each writes
// only its own range of results and errors. The recorder sees nothing
// until the shards have joined; then the lanes' block events and run
// counters are published in lane order, so every output is the same
// for every GOMAXPROCS.
func (e *Engine) run(mems []cdfg.Memory) ([]*Result, []error) {
	s := e.s
	B := len(mems)
	results := make([]*Result, B)
	errs := make([]error, B)
	if B == 0 {
		return results, errs
	}
	W := max(1, min(runtime.GOMAXPROCS(0), B/minShardLanes))
	shards := make([]*batchRun, W)
	for w := range shards {
		lo, hi := w*B/W, (w+1)*B/W
		shards[w] = s.newBatchRun(lo, mems[lo:hi], results[lo:hi], errs[lo:hi])
	}
	var wg sync.WaitGroup
	for _, r := range shards[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.run()
		}()
	}
	shards[0].run()
	wg.Wait()
	if s.obs.Enabled() {
		var total, fast int64
		for _, r := range shards {
			r.publish()
			total += r.totalHits
			fast += r.fastHits
		}
		s.obs.Counter("sim.engine.batches").Inc()
		s.obs.Counter("sim.engine.lanes").Add(int64(B))
		s.obs.Counter("sim.engine.block_execs").Add(total)
		s.obs.Counter("sim.engine.fastpath_block_execs").Add(fast)
	}
	return results, errs
}

// newBatchRun allocates the state of one shard: lanes base..base+len(mems)-1
// of the batch, writing results and errs (the batch's slices over the
// same range).
func (s *Sim) newBatchRun(base int, mems []cdfg.Memory, results []*Result, errs []error) *batchRun {
	low := s.low
	B := len(mems)
	r := &batchRun{
		s: s, B: B, base: base,
		mems:    mems,
		results: results,
		errs:    errs,
		st:      make([]int32, low.rows()*B),
		cycles:  make([]int64, B),
		stalls:  make([]int64, B),
		execs:   make([]int64, len(low.blocks)*B),
		branch:  make([]bool, B),
		done:    make([]bool, B),
		tracing: s.obs.Enabled(),
	}
	for k, v := range low.consts {
		row := r.st[(low.constRow()+k)*B:][:B]
		for l := range row {
			row[l] = v
		}
	}
	if low.maxAcc > 0 {
		r.arow = make([]int, low.maxAcc)
		r.bank = make([]int32, low.maxAcc)
	}
	if r.tracing {
		r.evBuf = make([][]laneEvent, B)
		r.evDropped = make([]int64, B)
		r.evStart = make([]int64, B)
	}
	return r
}

// publish flushes a finished shard to the recorder in lane order: each
// lane's buffered block timeline on the track of its batch lane index,
// then, for a lane that completed, its run counters.
func (r *batchRun) publish() {
	rec := r.s.obs
	for l, res := range r.results {
		for _, ev := range r.evBuf[l] {
			rec.EmitEvent(obs.Event{
				Name: ev.name, Cat: "sim.block", Ph: obs.PhaseComplete,
				TS: float64(ev.start), Dur: float64(ev.dur),
				PID: obs.PIDSim, TID: r.base + l,
			})
		}
		if r.errs[l] == nil {
			r.s.recordRun(res, r.evDropped[l])
		}
	}
}

// laneRun is the consecutive lanes lo..hi-1 of a shard.
type laneRun struct{ lo, hi int }

// laneGroup is a set of lanes at the same basic block, held as runs of
// consecutive lanes in ascending order: a batch whose lanes agree is the
// one run [0, B). Lanes that diverge at a branch split into two groups;
// each group owns its runs exclusively, and groups never re-merge.
type laneGroup struct {
	bb   cdfg.BBID
	runs []laneRun
}

// uniform reports whether every lane of runs took its branch the same
// way, and which way.
func (r *batchRun) uniform(runs []laneRun) (taken, ok bool) {
	taken = r.branch[runs[0].lo]
	for _, rn := range runs {
		for _, b := range r.branch[rn.lo:rn.hi] {
			if b != taken {
				return false, false
			}
		}
	}
	return taken, true
}

// splitRuns partitions the lanes of runs by mask into the runs of lanes
// whose mask is set and the runs of those whose mask is clear, both in
// lane order.
func splitRuns(runs []laneRun, mask []bool) (set, unset []laneRun) {
	for _, rn := range runs {
		for lo := rn.lo; lo < rn.hi; {
			v, hi := mask[lo], lo+1
			for hi < rn.hi && mask[hi] == v {
				hi++
			}
			if v {
				set = append(set, laneRun{lo, hi})
			} else {
				unset = append(unset, laneRun{lo, hi})
			}
			lo = hi
		}
	}
	return set, unset
}

// run executes all lanes to completion (or fault) with a group
// worklist.
func (r *batchRun) run() {
	low := r.s.low
	B := r.B
	stack := []laneGroup{{r.s.prog.Graph.Entry, []laneRun{{0, B}}}}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		bb, runs := g.bb, g.runs
		for len(runs) > 0 {
			runs = r.gateMaxCycles(runs)
			if len(runs) == 0 {
				break
			}
			lb := &low.blocks[bb]
			execs := r.execs[int(bb)*B : int(bb)*B+B]
			nl := 0
			for _, rn := range runs {
				ex := execs[rn.lo:rn.hi]
				for i := range ex {
					ex[i]++
				}
				nl += len(ex)
			}
			r.totalHits += int64(nl)
			if lb.fast {
				r.fastHits += int64(nl)
			}
			runs = r.execBlock(lb, runs)
			if len(runs) == 0 {
				break
			}
			switch {
			case lb.hasBranch:
				if taken, ok := r.uniform(runs); ok {
					bb = lb.succs[1]
					if taken {
						bb = lb.succs[0]
					}
					continue
				}
				tk, nt := splitRuns(runs, r.branch)
				stack = append(stack, laneGroup{lb.succs[1], nt})
				bb, runs = lb.succs[0], tk
			case len(lb.succs) == 1:
				bb = lb.succs[0]
			default:
				for _, rn := range runs {
					for l := rn.lo; l < rn.hi; l++ {
						r.finalizeLane(l, nil)
					}
				}
				runs = nil
			}
		}
	}
}

// gateMaxCycles applies the runaway check at each block entry: lanes
// over the limit finalize with the error and their partial result, and
// leave the group.
func (r *batchRun) gateMaxCycles(runs []laneRun) []laneRun {
	over := false
	for _, rn := range runs {
		for i, c := range r.cycles[rn.lo:rn.hi] {
			if c > MaxCycles {
				r.finalizeLane(rn.lo+i, fmt.Errorf("sim: exceeded %d cycles in %q", MaxCycles, r.s.prog.Graph.Name))
				over = true
			}
		}
	}
	if !over {
		return runs
	}
	_, keep := splitRuns(runs, r.done)
	return keep
}

// execBlock runs one basic block for one lane group, cycle by cycle:
// phase 1 issues the ALU ops, moves and branch (reads observe pre-cycle
// state), phase 2 services memory (per-lane bank-conflict stalls, loads
// before stores), phase 3 commits output registers and writebacks. Each
// phase walks its group of the cycle's ops (see lblock.cyc) and, for
// each op, the group's runs, with one loop per run over the run's lanes
// of each state row the op touches. It returns the runs of the lanes
// that completed the block; the ones that stopped in it are finalized.
func (r *batchRun) execBlock(lb *lblock, runs []laneRun) []laneRun {
	B, st, src := r.B, r.st, &lb.src
	nout, out := r.s.low.noutRow(), r.s.low.outRow()
	if r.tracing {
		for _, rn := range runs {
			for l := rn.lo; l < rn.hi; l++ {
				r.evStart[l] = r.cycles[l]
			}
		}
	}
	if lb.hasBranch {
		for _, rn := range runs {
			br := r.branch[rn.lo:rn.hi]
			for i := range br {
				br[i] = false
			}
		}
	}
	for c := 0; c+1 < len(lb.cyc); c++ {
		cy := lb.cyc[c]
		o0, ld, sto, br, o1 := int(cy.alu), int(cy.ld), int(cy.st), int(cy.br), int(lb.cyc[c+1].alu)
		for oi := o0; oi < ld; oi++ {
			d := (nout + int(lb.tile[oi])) * B
			aluEval(lb.op[oi], runs, st, d, int(src[0][oi])*B, int(src[1][oi])*B, int(src[2][oi])*B)
		}
		for oi := br; oi < o1; oi++ {
			a := int(src[0][oi]) * B
			for _, rn := range runs {
				taken := r.branch[rn.lo:rn.hi]
				for i, v := range st[a+rn.lo : a+rn.hi][:len(taken)] {
					taken[i] = v != 0
				}
			}
		}
		if na := br - ld; na > 0 {
			if na > 1 {
				r.addStalls(lb, c, runs)
			}
			if r.serveMemory(lb, c, runs) {
				if _, runs = splitRuns(runs, r.done); len(runs) == 0 {
					return nil
				}
			}
		}
		for oi := o0; oi < sto; oi++ {
			t := int(lb.tile[oi])
			n, o, w := (nout+t)*B, (out+t)*B, int(lb.wb[oi])*B
			for _, rn := range runs {
				copyLanes(st, rn, o, n)
				if w >= 0 {
					copyLanes(st, rn, w, n)
				}
			}
		}
	}
	if lb.fault != nil {
		// Every lane still running reaches the block's faulting op in
		// its issue phase: lb.static already counts up to it.
		for _, rn := range runs {
			for l := rn.lo; l < rn.hi; l++ {
				r.cycles[l] += int64(len(lb.cyc) - 1)
				r.finalizeLane(l, lb.fault)
			}
		}
		return nil
	}
	for _, rn := range runs {
		cy := r.cycles[rn.lo:rn.hi]
		for i := range cy {
			cy[i] += int64(lb.cycles)
		}
	}
	if r.tracing {
		for _, rn := range runs {
			for l := rn.lo; l < rn.hi; l++ {
				if len(r.evBuf[l]) < blockEventCap {
					r.evBuf[l] = append(r.evBuf[l], laneEvent{lb.name, r.evStart[l], r.cycles[l] - r.evStart[l]})
				} else {
					r.evDropped[l]++
				}
			}
		}
	}
	return runs
}

// serveMemory runs the memory phase of cycle c for the runs' lanes:
// every load, then every store, in tile order. A lane whose address
// leaves memory stops there and skips the cycle's remaining accesses.
// It reports whether any lane stopped.
func (r *batchRun) serveMemory(lb *lblock, c int, runs []laneRun) bool {
	B, st := r.B, r.st
	nout := r.s.low.noutRow()
	stopped := false
	cy := lb.cyc[c]
	for oi := cy.ld; oi < cy.st; oi++ {
		t := int(lb.tile[oi])
		a, d := int(lb.src[0][oi])*B, (nout+t)*B
		for _, rn := range runs {
			as := st[a+rn.lo : a+rn.hi]
			dst, ms, done := st[d+rn.lo : d+rn.hi][:len(as)], r.mems[rn.lo:rn.hi][:len(as)], r.done[rn.lo:rn.hi][:len(as)]
			for i, addr := range as {
				if done[i] {
					continue
				}
				m := ms[i]
				if addr < 0 || int(addr) >= len(m) {
					_, err := m.Load(addr)
					r.stopInMemory(rn.lo+i, lb, c, t, t, err)
					stopped = true
					continue
				}
				dst[i] = m[addr]
			}
		}
	}
	for oi := cy.st; oi < cy.br; oi++ {
		a, v := int(lb.src[0][oi])*B, int(lb.src[1][oi])*B
		for _, rn := range runs {
			as := st[a+rn.lo : a+rn.hi]
			vs, ms, done := st[v+rn.lo : v+rn.hi][:len(as)], r.mems[rn.lo:rn.hi][:len(as)], r.done[rn.lo:rn.hi][:len(as)]
			for i, addr := range as {
				if done[i] {
					continue
				}
				m := ms[i]
				if addr < 0 || int(addr) >= len(m) {
					err := m.Store(addr, vs[i])
					r.stopInMemory(rn.lo+i, lb, c, int(lb.tile[oi]), r.s.low.numTiles, err)
					stopped = true
					continue
				}
				m[addr] = vs[i]
			}
		}
	}
	return stopped
}

// stopInMemory finalizes lane l, whose access on tile t left memory in
// the memory phase of cycle c: the cycle and its stalls count, and the
// block's counters are counted up to the access (stopTile is the first
// tile whose access the memory phase did not serve).
func (r *batchRun) stopInMemory(l int, lb *lblock, c, t, stopTile int, err error) {
	r.cycles[l] += int64(c + 1)
	res := r.finalizeLane(l, fmt.Errorf("sim: block %q cycle %d tile %d: %w", lb.name, c, t+1, err))
	part := countBlock(r.s.expanded[lb.bb], len(res.Tiles), stopPoint{cycle: c, tile: stopTile, mem: true})
	for i := range res.Tiles {
		addScaled(&res.Tiles[i], &lb.static[i], -1)
		res.Tiles[i].Add(part[i])
	}
}

// addStalls adds the global stall cycles of cycle c, which issues na > 1
// data-memory accesses, to every lane of the runs. The interconnect
// serves the accesses in one cycle per port group and serializes
// same-bank ones, so a lane stalls max(⌈na/ports⌉, its largest same-bank
// count) − 1 cycles. Each lane computes the banks of its na accesses
// once, then counts, for each bank, how many of its earlier accesses
// share it: exact for any bank and port count, with no per-bank table
// to fill and clear.
func (r *batchRun) addStalls(lb *lblock, c int, runs []laneRun) {
	low, st := r.s.low, r.st
	cy := lb.cyc[c]
	na := int(cy.br - cy.ld)
	// rows[j] is the offset of access j's address row; bs holds one
	// lane's banks.
	rows, bs := r.arow[:na], r.bank[:na]
	for j := range rows {
		rows[j] = int(lb.src[0][int(cy.ld)+j]) * r.B
	}
	portNeed := int32((na + low.ports - 1) / low.ports)
	for _, rn := range runs {
		for l := rn.lo; l < rn.hi; l++ {
			for j, row := range rows {
				bs[j] = low.bank(st[row+l])
			}
			need := portNeed
			for j := 1; j < len(bs); j++ {
				bj, same := bs[j], int32(1)
				for _, b := range bs[:j] {
					same += b2i32(b == bj)
				}
				need = max(need, same)
			}
			r.stalls[l] += int64(need - 1)
			r.cycles[l] += int64(need - 1)
		}
	}
}

// bank returns the memory bank of data address a, the non-negative
// residue of a modulo the bank count (internal/interconnect's rule).
func (low *lowered) bank(a int32) int32 {
	b := a % int32(low.banks)
	if b < 0 {
		b += int32(low.banks)
	}
	return b
}

// finalizeLane builds a lane's Result from the static block tables and
// marks the lane done. Its buffered block timeline and, on a clean
// exit, its run counters reach the recorder when the batch publishes
// (see run).
func (r *batchRun) finalizeLane(l int, runErr error) *Result {
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
		cnt := r.execs[bi*B+l]
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
	r.done[l] = true
	return res
}

// aluEval applies one lowered ALU op to every run of lanes: it computes
// state row d of st from rows a, b and c (row offsets into st), with one
// dense loop per run. The loop over the runs sits inside, so the caller
// makes one call per op whatever the runs: Go keeps no register across a
// call, and a call per run would spill and reload the caller's loop
// state each time. The cases mirror cdfg.EvalOp exactly, one per opcode
// it accepts (lowering admits no other; TestALUEvalMatchesEvalOp pins
// the two together).
func aluEval(op cdfg.Opcode, runs []laneRun, st []int32, d, a, b, c int) {
	switch op {
	case cdfg.OpAdd:
		for _, rn := range runs {
			z, x, y := rows2(st, rn, d, a, b)
			for i := range z {
				z[i] = x[i] + y[i]
			}
		}
	case cdfg.OpSub:
		for _, rn := range runs {
			z, x, y := rows2(st, rn, d, a, b)
			for i := range z {
				z[i] = x[i] - y[i]
			}
		}
	case cdfg.OpMul:
		for _, rn := range runs {
			z, x, y := rows2(st, rn, d, a, b)
			for i := range z {
				z[i] = x[i] * y[i]
			}
		}
	case cdfg.OpMulH:
		for _, rn := range runs {
			z, x, y := rows2(st, rn, d, a, b)
			for i := range z {
				z[i] = int32((int64(x[i]) * int64(y[i])) >> 32)
			}
		}
	case cdfg.OpAnd:
		for _, rn := range runs {
			z, x, y := rows2(st, rn, d, a, b)
			for i := range z {
				z[i] = x[i] & y[i]
			}
		}
	case cdfg.OpOr:
		for _, rn := range runs {
			z, x, y := rows2(st, rn, d, a, b)
			for i := range z {
				z[i] = x[i] | y[i]
			}
		}
	case cdfg.OpXor:
		for _, rn := range runs {
			z, x, y := rows2(st, rn, d, a, b)
			for i := range z {
				z[i] = x[i] ^ y[i]
			}
		}
	case cdfg.OpShl:
		for _, rn := range runs {
			z, x, y := rows2(st, rn, d, a, b)
			for i := range z {
				z[i] = x[i] << (uint32(y[i]) & 31)
			}
		}
	case cdfg.OpShr:
		for _, rn := range runs {
			z, x, y := rows2(st, rn, d, a, b)
			for i := range z {
				z[i] = int32(uint32(x[i]) >> (uint32(y[i]) & 31))
			}
		}
	case cdfg.OpSra:
		for _, rn := range runs {
			z, x, y := rows2(st, rn, d, a, b)
			for i := range z {
				z[i] = x[i] >> (uint32(y[i]) & 31)
			}
		}
	case cdfg.OpLt:
		for _, rn := range runs {
			z, x, y := rows2(st, rn, d, a, b)
			for i := range z {
				z[i] = b2i32(x[i] < y[i])
			}
		}
	case cdfg.OpLe:
		for _, rn := range runs {
			z, x, y := rows2(st, rn, d, a, b)
			for i := range z {
				z[i] = b2i32(x[i] <= y[i])
			}
		}
	case cdfg.OpEq:
		for _, rn := range runs {
			z, x, y := rows2(st, rn, d, a, b)
			for i := range z {
				z[i] = b2i32(x[i] == y[i])
			}
		}
	case cdfg.OpNe:
		for _, rn := range runs {
			z, x, y := rows2(st, rn, d, a, b)
			for i := range z {
				z[i] = b2i32(x[i] != y[i])
			}
		}
	case cdfg.OpGe:
		for _, rn := range runs {
			z, x, y := rows2(st, rn, d, a, b)
			for i := range z {
				z[i] = b2i32(x[i] >= y[i])
			}
		}
	case cdfg.OpGt:
		for _, rn := range runs {
			z, x, y := rows2(st, rn, d, a, b)
			for i := range z {
				z[i] = b2i32(x[i] > y[i])
			}
		}
	case cdfg.OpMin:
		for _, rn := range runs {
			z, x, y := rows2(st, rn, d, a, b)
			for i := range z {
				z[i] = min(x[i], y[i])
			}
		}
	case cdfg.OpMax:
		for _, rn := range runs {
			z, x, y := rows2(st, rn, d, a, b)
			for i := range z {
				z[i] = max(x[i], y[i])
			}
		}
	case cdfg.OpAbs:
		for _, rn := range runs {
			z, x := rows1(st, rn, d, a)
			for i, v := range x {
				if v < 0 {
					v = -v
				}
				z[i] = v
			}
		}
	case cdfg.OpNeg:
		for _, rn := range runs {
			z, x := rows1(st, rn, d, a)
			for i, v := range x {
				z[i] = -v
			}
		}
	case cdfg.OpSelect:
		for _, rn := range runs {
			z, x, y := rows2(st, rn, d, a, b)
			w := st[c+rn.lo : c+rn.hi][:len(z)]
			for i := range z {
				if x[i] != 0 {
					z[i] = y[i]
				} else {
					z[i] = w[i]
				}
			}
		}
	case cdfg.OpMove:
		for _, rn := range runs {
			z, x := rows1(st, rn, d, a)
			for i, v := range x {
				z[i] = v
			}
		}
	}
}

// copyLanes copies run rn's lanes of state row src into row dst (row
// offsets into st). A one-lane run, every run of a B=1 batch, is a
// single store: a call into memmove per committed op costs a B=1 run
// more than the copy itself. A longer run goes to copy, which beats a
// per-lane loop from a few lanes on.
func copyLanes(st []int32, rn laneRun, dst, src int) {
	if rn.hi-rn.lo == 1 {
		st[dst+rn.lo] = st[src+rn.lo]
		return
	}
	copy(st[dst+rn.lo:dst+rn.hi], st[src+rn.lo:src+rn.hi])
}

// rows1 returns run rn's slices of state rows d and a (row offsets into
// st), a cut to d's length so that a loop over either drops the bounds
// checks on both.
func rows1(st []int32, rn laneRun, d, a int) (z, x []int32) {
	z = st[d+rn.lo : d+rn.hi]
	return z, st[a+rn.lo : a+rn.hi][:len(z)]
}

// rows2 is rows1 with a second source row b.
func rows2(st []int32, rn laneRun, d, a, b int) (z, x, y []int32) {
	z, x = rows1(st, rn, d, a)
	return z, x, st[b+rn.lo : b+rn.hi][:len(z)]
}

func b2i32(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
