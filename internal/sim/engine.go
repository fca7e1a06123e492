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
// Lowering also runs a uniformity analysis (uniform.go) that marks every
// state row a lane group may hold with one value across its lanes: a row
// is uniform unless it may hold a value derived from a loaded word. Each
// lane group carries one scalar per uniform row. A uniform op is
// evaluated once per group, a uniform branch needs no per-lane decision,
// and a cycle whose addresses are all uniform counts its bank stall once
// and, inside the shard's shortest memory, serves each lane's memory with
// no per-lane bounds check. A varying op keeps the per-run loops, with
// its uniform operands broadcast into their rows first; rows that turn
// varying across a CFG edge are broadcast on that edge. A one-lane batch
// (Run, RunVerified) holds only uniform values: its group's scalars are
// its state rows, and every op, loads included, runs as a scalar.
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
	"maps"
	"runtime"
	"slices"
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
	// kind holds each op's uniformity bits (kUni, kVal, kFill; see
	// uniform.go).
	kind []uint8

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
	// brUni marks a block whose branch decision is uniform: its last
	// branch op reads a uniform row, or it has none (not taken).
	brUni bool
	// edge[e] lists the rows uniform at the block's exit but varying at
	// the entry of succs[e]: a group taking that edge broadcasts them.
	edge [2][]int32
}

// cycOps indexes one cycle's ops, grouped: the ALU ops and moves from
// alu, the loads from ld, the stores from st, then the branch from br.
// Loads and stores each keep tile order, the order the memory phase
// serves them, and an access's slot among the cycle's accesses is its
// index minus ld. The ops with a result are alu..st. uaddr marks a
// cycle whose accesses all have uniform addresses.
type cycOps struct {
	alu, ld, st, br int32
	uaddr           bool
}

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
	constIdx := make(map[int32]int32, 32)
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
	zero := intern(0)   // unused operand positions read it
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
		// The op tables are sized up front, in one array for the rows:
		// growing them cost sim.New about what the uniformity analysis
		// adds.
		nops := 0
		for _, cycles := range expanded[bi] {
			for _, in := range cycles[:stop.cycle] {
				nops += int(b2i32(in != nil))
			}
		}
		lb.op = make([]cdfg.Opcode, 0, nops)
		lb.kind = make([]uint8, nops)
		rows := make([]int32, (2+isa.MaxSrcs)*nops)
		lb.tile, lb.wb = rows[:0:nops], rows[nops:nops:2*nops]
		for i := range lb.src {
			lb.src[i] = rows[(2+i)*nops : (2+i)*nops : (3+i)*nops]
		}
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
						row := zero
						if i < in.NSrc {
							switch src := in.Srcs[i]; src.Kind {
							case isa.SrcConst:
								row = intern(src.Val)
							case isa.SrcReg:
								row = int32(t*rrf + int(src.Reg))
							case isa.SrcSelf:
								row = int32(outRow + t)
							case isa.SrcNbr:
								row = int32(outRow + int(grid.Neighbors(arch.TileID(t))[src.Dir]))
							}
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
	low.uniformity(p.Graph.Entry)
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
		if _, ok := cdfg.EvalOp(in.Op, 0, 0, 0); !ok {
			return in.NSrc, true, cdfg.NoALUError(in.Op)
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
// It shares the simulator's obs recorder and the program's memoized
// lowered form; constructing one is cheap.
type Engine struct {
	s *Sim
}

// Engine returns a batched execution engine sharing this simulator's
// program, options, and recorder.
func (s *Sim) Engine() *Engine { return &Engine{s: s} }

// BatchError aggregates per-lane failures of a RunBatch. Errs always has
// one entry per lane; nil entries are lanes that completed. Unwrap
// exposes the failed lanes so errors.As finds lane errors.
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

	// minMem is the shortest lane memory: a uniform address below it is
	// in bounds for every lane.
	minMem int

	st []int32 // [row*B+lane] state rows (see lowered.rows)
	// cycles and stalls are each lane's own cycles and stall cycles, on
	// top of its group's (see laneGroup): the stalls of cycles whose
	// addresses vary, and the cycles of a memory-phase stop.
	cycles []int64
	stalls []int64
	execs  []int64 // [block*B+lane]
	branch []bool
	// taken is the current block's decision when it is uniform.
	taken bool
	// done marks finalized lanes. A lane that stops in a memory phase
	// skips the cycle's remaining accesses and then leaves its group.
	done []bool

	addr []int32 // the current cycle's uniform addresses
	bank []int32 // one lane's banks of the current cycle's accesses

	// res and tiles hold the lanes' Results and their Tiles, each lane's
	// own part of one allocation (a Tiles slice has no spare capacity).
	res   []Result
	tiles []TileCounters
	// last is the last lane finalized by counting its block executions,
	// -1 when there is none whose Tiles hold the counted values: a lane
	// with the same executions copies them.
	last int

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
	minMem := len(mems[0])
	for _, m := range mems[1:] {
		minMem = min(minMem, len(m))
	}
	r := &batchRun{
		s: s, B: B, base: base,
		mems:    mems,
		results: results,
		errs:    errs,
		minMem:  minMem,
		cycles:  make([]int64, B),
		stalls:  make([]int64, B),
		execs:   make([]int64, len(low.blocks)*B),
		branch:  make([]bool, B),
		done:    make([]bool, B),
		res:     make([]Result, B),
		tiles:   make([]TileCounters, B*low.numTiles),
		last:    -1,
		tracing: s.obs.Enabled(),
	}
	// The entry group's scalars follow the state rows in one array. A
	// one-lane shard's rows are its scalars, since a row's one lane is the
	// value every lane of the group holds: it runs every op as uniform,
	// and what a per-lane path writes (a load's result) is its scalar.
	rows := low.rows()
	if B == 1 {
		r.st = make([]int32, rows)
	} else {
		r.st = make([]int32, rows*(B+1))
	}
	sc := r.st[len(r.st)-rows:]
	for k, v := range low.consts {
		row := low.constRow() + k
		sc[row] = v
		for l := range B {
			r.st[row*B+l] = v
		}
	}
	if low.maxAcc > 0 {
		r.addr = make([]int32, low.maxAcc)
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
// each group owns its runs exclusively, and groups never re-merge, so the
// lanes of a group share their whole control history.
type laneGroup struct {
	bb   cdfg.BBID
	runs []laneRun
	// sc holds, by row, the group's value of each row uniform at the
	// current point (see uniform.go); the entries of varying rows are
	// stale. A one-lane shard's sc is its state rows.
	sc []int32
	// cycles and stalls are the cycles and stall cycles every lane of the
	// group has run; a lane's totals add its own (batchRun.cycles and
	// stalls), which skew bounds from above.
	cycles, stalls, skew int64
}

// agreed reports whether every lane of runs took its branch the same
// way, and which way.
func (r *batchRun) agreed(runs []laneRun) (taken, ok bool) {
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
	stack := []laneGroup{{
		bb:   r.s.prog.Graph.Entry,
		runs: []laneRun{{0, B}},
		sc:   r.st[len(r.st)-low.rows():],
	}}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for len(g.runs) > 0 {
			if r.gateMaxCycles(&g); len(g.runs) == 0 {
				break
			}
			lb := &low.blocks[g.bb]
			execs := r.execs[int(g.bb)*B : int(g.bb)*B+B]
			nl := 0
			for _, rn := range g.runs {
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
			if r.execBlock(lb, &g); len(g.runs) == 0 {
				break
			}
			switch {
			case lb.hasBranch:
				taken, ok := r.taken, true
				if B > 1 && !lb.brUni {
					taken, ok = r.agreed(g.runs)
				}
				if ok {
					r.enter(&g, lb, int(1-b2i32(taken)))
					continue
				}
				tk, nt := splitRuns(g.runs, r.branch)
				ng := g
				ng.runs, ng.sc = nt, slices.Clone(g.sc)
				r.enter(&ng, lb, 1)
				stack = append(stack, ng)
				g.runs = tk
				r.enter(&g, lb, 0)
			case len(lb.succs) == 1:
				r.enter(&g, lb, 0)
			default:
				for _, rn := range g.runs {
					for l := rn.lo; l < rn.hi; l++ {
						r.finalizeLane(l, &g, nil)
					}
				}
				g.runs = nil
			}
		}
	}
}

// enter moves group g along edge e of block lb, to lb.succs[e],
// broadcasting the rows that turn varying there.
func (r *batchRun) enter(g *laneGroup, lb *lblock, e int) {
	g.bb = lb.succs[e]
	for _, row := range lb.edge[e] {
		r.fill(g, row)
	}
}

// fill broadcasts group g's scalar of row into the row's lanes.
func (r *batchRun) fill(g *laneGroup, row int32) {
	v, o := g.sc[row], int(row)*r.B
	for _, rn := range g.runs {
		lanes := r.st[o+rn.lo : o+rn.hi]
		for i := range lanes {
			lanes[i] = v
		}
	}
}

// fillOperands broadcasts the uniform operand rows of op oi (its kFill
// bits) into their lanes, for an evaluation lane by lane.
func (r *batchRun) fillOperands(g *laneGroup, lb *lblock, oi int) {
	for i, k := 0, lb.kind[oi]/kFill; k != 0; i, k = i+1, k>>1 {
		if k&1 != 0 {
			r.fill(g, lb.src[i][oi])
		}
	}
}

// gateMaxCycles applies the runaway check at each block entry: lanes
// over the limit finalize with the error and their partial result, and
// leave the group.
func (r *batchRun) gateMaxCycles(g *laneGroup) {
	if g.cycles+g.skew <= MaxCycles {
		return
	}
	over := false
	for _, rn := range g.runs {
		for l := rn.lo; l < rn.hi; l++ {
			if g.cycles+r.cycles[l] > MaxCycles {
				r.finalizeLane(l, g, fmt.Errorf("sim: exceeded %d cycles in %q", MaxCycles, r.s.prog.Graph.Name))
				over = true
			}
		}
	}
	if over {
		_, g.runs = splitRuns(g.runs, r.done)
	}
}

// execBlock runs one basic block for lane group g, cycle by cycle:
// phase 1 issues the ALU ops, moves and branch (reads observe pre-cycle
// state), phase 2 services memory (bank-conflict stalls, loads before
// stores; see memoryPhase), phase 3 commits output registers and
// writebacks. A uniform op reads and writes the group's scalars once; a
// varying op walks, for each of the group's runs, the run's lanes of
// each state row it touches. In a one-lane shard every op is uniform.
// It leaves in g.runs the lanes that completed the block; the ones that
// stopped in it are finalized.
func (r *batchRun) execBlock(lb *lblock, g *laneGroup) {
	B, st, sc, src := r.B, r.st, g.sc, &lb.src
	nout, out := r.s.low.noutRow(), r.s.low.outRow()
	if r.tracing {
		for _, rn := range g.runs {
			for l := rn.lo; l < rn.hi; l++ {
				r.evStart[l] = g.cycles + r.cycles[l]
			}
		}
	}
	one := B == 1
	r.taken = false
	for c := 0; c+1 < len(lb.cyc); c++ {
		cy := lb.cyc[c]
		o0, ld, sto, br, o1 := int(cy.alu), int(cy.ld), int(cy.st), int(cy.br), int(lb.cyc[c+1].alu)
		for oi := o0; oi < ld; oi++ {
			if one || lb.kind[oi]&kUni != 0 {
				sc[nout+int(lb.tile[oi])], _ = cdfg.EvalOp(lb.op[oi], sc[src[0][oi]], sc[src[1][oi]], sc[src[2][oi]])
				continue
			}
			r.fillOperands(g, lb, oi)
			d := (nout + int(lb.tile[oi])) * B
			aluEval(lb.op[oi], g.runs, st, d, int(src[0][oi])*B, int(src[1][oi])*B, int(src[2][oi])*B)
		}
		for oi := br; oi < o1; oi++ {
			a := int(src[0][oi])
			if one || lb.kind[oi]&kUni != 0 {
				r.taken = sc[a] != 0
				continue
			}
			for _, rn := range g.runs {
				taken := r.branch[rn.lo:rn.hi]
				for i, v := range st[a*B+rn.lo : a*B+rn.hi][:len(taken)] {
					taken[i] = v != 0
				}
			}
		}
		if br > ld && r.memoryPhase(lb, c, g) {
			if _, g.runs = splitRuns(g.runs, r.done); len(g.runs) == 0 {
				return
			}
		}
		// A load's result varies unless the shard has one lane, whatever
		// its address.
		for oi := o0; oi < sto; oi++ {
			t := int(lb.tile[oi])
			if one || oi < ld && lb.kind[oi]&kUni != 0 {
				v := sc[nout+t]
				sc[out+t] = v
				if w := lb.wb[oi]; w >= 0 {
					sc[w] = v
				}
				continue
			}
			n, o, w := (nout+t)*B, (out+t)*B, int(lb.wb[oi])*B
			for _, rn := range g.runs {
				copy(st[o+rn.lo:o+rn.hi], st[n+rn.lo:n+rn.hi])
				if w >= 0 {
					copy(st[w+rn.lo:w+rn.hi], st[n+rn.lo:n+rn.hi])
				}
			}
		}
	}
	if lb.fault != nil {
		// Every lane still running reaches the block's faulting op in
		// its issue phase: lb.static already counts up to it.
		g.cycles += int64(len(lb.cyc) - 1)
		for _, rn := range g.runs {
			for l := rn.lo; l < rn.hi; l++ {
				r.finalizeLane(l, g, lb.fault)
			}
		}
		g.runs = nil
		return
	}
	g.cycles += int64(lb.cycles)
	if r.tracing {
		for _, rn := range g.runs {
			for l := rn.lo; l < rn.hi; l++ {
				if len(r.evBuf[l]) < blockEventCap {
					end := g.cycles + r.cycles[l]
					r.evBuf[l] = append(r.evBuf[l], laneEvent{lb.name, r.evStart[l], end - r.evStart[l]})
				} else {
					r.evDropped[l]++
				}
			}
		}
	}
}

// memoryPhase runs the memory phase of cycle c for group g and reports
// whether any lane stopped. When the cycle's addresses are uniform (in a
// one-lane shard, always), their bank stall counts once for the group,
// and if they lie inside the shard's shortest memory serveUniform serves
// every lane with no per-lane bounds check. Otherwise each lane counts
// its own stall, and serveLanes serves the lanes one by one, stopping
// a lane whose address leaves its memory.
func (r *batchRun) memoryPhase(lb *lblock, c int, g *laneGroup) bool {
	low := r.s.low
	cy := lb.cyc[c]
	ld, na := int(cy.ld), int(cy.br-cy.ld)
	uaddr := r.B == 1 || cy.uaddr
	if uaddr {
		as, in := r.addr[:na], true
		for j := range as {
			a := g.sc[lb.src[0][ld+j]]
			as[j], in = a, in && a >= 0 && int(a) < r.minMem
		}
		if na > 1 {
			bs := r.bank[:na]
			for j, a := range as {
				bs[j] = low.bank(a)
			}
			stall := low.stall(bs)
			g.stalls += stall
			g.cycles += stall
		}
		if in {
			r.serveUniform(lb, c, g, as)
			return false
		}
	}
	for oi := ld; oi < int(cy.br); oi++ {
		r.fillOperands(g, lb, oi)
	}
	if !uaddr && na > 1 {
		r.laneStalls(lb, c, g)
	}
	stopped := false
	for _, rn := range g.runs {
		stopped = r.serveLanes(lb, c, g, rn) || stopped
	}
	return stopped
}

// serveUniform serves the memory phase of cycle c for group g, whose
// accesses have the in-bounds uniform addresses as, loads before stores:
// each load reads its word of every lane's memory into its tile's output
// row, then each store writes its value to its word of every lane's
// memory, in tile order.
func (r *batchRun) serveUniform(lb *lblock, c int, g *laneGroup, as []int32) {
	B, st := r.B, r.st
	nout := r.s.low.noutRow()
	ld, sto := int(lb.cyc[c].ld), int(lb.cyc[c].st)
	for j, a := range as {
		oi := ld + j
		switch {
		case oi < sto:
			d := (nout + int(lb.tile[oi])) * B
			for _, rn := range g.runs {
				ms := r.mems[rn.lo:rn.hi]
				dst := st[d+rn.lo:][:len(ms)]
				for i, m := range ms {
					dst[i] = m[a]
				}
			}
		case lb.kind[oi]&kVal != 0:
			v := g.sc[lb.src[1][oi]]
			for _, rn := range g.runs {
				for _, m := range r.mems[rn.lo:rn.hi] {
					m[a] = v
				}
			}
		default:
			v := int(lb.src[1][oi]) * B
			for _, rn := range g.runs {
				ms := r.mems[rn.lo:rn.hi]
				vs := st[v+rn.lo:][:len(ms)]
				for i, m := range ms {
					m[a] = vs[i]
				}
			}
		}
	}
}

// serveLanes runs the memory phase of cycle c for run rn lane by lane:
// every load, then every store, in tile order. A lane whose address
// leaves its memory stops there and skips the cycle's remaining
// accesses. It reports whether any lane stopped.
func (r *batchRun) serveLanes(lb *lblock, c int, g *laneGroup, rn laneRun) bool {
	B, st := r.B, r.st
	nout := r.s.low.noutRow()
	stopped := false
	cy := lb.cyc[c]
	ms, done := r.mems[rn.lo:rn.hi], r.done[rn.lo:rn.hi]
	for oi := cy.ld; oi < cy.st; oi++ {
		t := int(lb.tile[oi])
		a, d := int(lb.src[0][oi])*B, (nout+t)*B
		as, dst := st[a+rn.lo : a+rn.hi][:len(ms)], st[d+rn.lo : d+rn.hi][:len(ms)]
		for i, addr := range as {
			if done[i] {
				continue
			}
			if addr < 0 || int(addr) >= len(ms[i]) {
				_, err := ms[i].Load(addr)
				r.stopInMemory(rn.lo+i, g, lb, c, t, t, err)
				stopped = true
				continue
			}
			dst[i] = ms[i][addr]
		}
	}
	for oi := cy.st; oi < cy.br; oi++ {
		a, v := int(lb.src[0][oi])*B, int(lb.src[1][oi])*B
		as, vs := st[a+rn.lo : a+rn.hi][:len(ms)], st[v+rn.lo : v+rn.hi][:len(ms)]
		for i, addr := range as {
			if done[i] {
				continue
			}
			if addr < 0 || int(addr) >= len(ms[i]) {
				err := ms[i].Store(addr, vs[i])
				r.stopInMemory(rn.lo+i, g, lb, c, int(lb.tile[oi]), r.s.low.numTiles, err)
				stopped = true
				continue
			}
			ms[i][addr] = vs[i]
		}
	}
	return stopped
}

// stopInMemory finalizes lane l of group g, whose access on tile t left
// memory in the memory phase of cycle c: the cycle and its stalls count,
// and the block's counters are counted up to the access (stopTile is the
// first tile whose access the memory phase did not serve).
func (r *batchRun) stopInMemory(l int, g *laneGroup, lb *lblock, c, t, stopTile int, err error) {
	r.cycles[l] += int64(c + 1)
	res := r.finalizeLane(l, g, fmt.Errorf("sim: block %q cycle %d tile %d: %w", lb.name, c, t+1, err))
	if r.last == l {
		r.last = -1 // its Tiles are about to lose the counted values
	}
	part := countBlock(r.s.expanded[lb.bb], len(res.Tiles), stopPoint{cycle: c, tile: stopTile, mem: true})
	for i := range res.Tiles {
		addScaled(&res.Tiles[i], &lb.static[i], -1)
		res.Tiles[i].Add(part[i])
	}
}

// laneStalls adds each lane's stall cycles for cycle c, whose na > 1
// accesses have varying addresses, to the lane's own counts.
func (r *batchRun) laneStalls(lb *lblock, c int, g *laneGroup) {
	low, B, st := r.s.low, r.B, r.st
	cy := lb.cyc[c]
	rows := lb.src[0][cy.ld:cy.br]
	bs := r.bank[:len(rows)]
	var most int64
	for _, rn := range g.runs {
		for l := rn.lo; l < rn.hi; l++ {
			for j, row := range rows {
				bs[j] = low.bank(st[int(row)*B+l])
			}
			stall := low.stall(bs)
			r.stalls[l] += stall
			r.cycles[l] += stall
			most = max(most, stall)
		}
	}
	g.skew += most
}

// stall returns the stall cycles of a cycle whose na > 1 data-memory
// accesses go to banks bs. The interconnect serves the accesses in one
// cycle per port group and serializes same-bank ones, so the array
// stalls max(⌈na/ports⌉, the largest same-bank count) − 1 cycles. It
// counts, for each access, how many earlier accesses share its bank:
// exact for any bank and port count, with no per-bank table to fill and
// clear.
func (low *lowered) stall(bs []int32) int64 {
	need := int32((len(bs) + low.ports - 1) / low.ports)
	for j := 1; j < len(bs); j++ {
		bj, same := bs[j], int32(1)
		for _, b := range bs[:j] {
			same += b2i32(b == bj)
		}
		need = max(need, same)
	}
	return int64(need - 1)
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

// finalizeLane builds the Result of lane l of group g from the static
// block tables and marks the lane done. A lane that executed every block
// as often as the last lane counted copies that lane's counters. Its
// buffered block timeline and, on a clean exit, its run counters reach
// the recorder when the batch publishes (see run).
func (r *batchRun) finalizeLane(l int, g *laneGroup, runErr error) *Result {
	low, B, n := r.s.low, r.B, r.s.low.numTiles
	res := &r.res[l]
	*res = Result{
		Tiles:       r.tiles[l*n : (l+1)*n : (l+1)*n],
		ConfigWords: r.s.prog.TotalWords(),
		Cycles:      g.cycles + r.cycles[l],
		StallCycles: g.stalls + r.stalls[l],
	}
	if r.sameExecs(l) {
		last := r.results[r.last]
		res.BlockExecs = maps.Clone(last.BlockExecs)
		copy(res.Tiles, last.Tiles)
	} else {
		res.BlockExecs = map[cdfg.BBID]int64{}
		for bi := range low.blocks {
			cnt := r.execs[bi*B+l]
			if cnt == 0 {
				continue
			}
			res.BlockExecs[cdfg.BBID(bi)] = cnt
			st := low.blocks[bi].static
			for t := range res.Tiles {
				addScaled(&res.Tiles[t], &st[t], cnt)
			}
		}
		r.last = l
	}
	r.results[l] = res
	r.errs[l] = runErr
	r.done[l] = true
	return res
}

// sameExecs reports whether lane l executed every block as often as
// lane r.last.
func (r *batchRun) sameExecs(l int) bool {
	if r.last < 0 {
		return false
	}
	for i := 0; i < len(r.execs); i += r.B {
		if r.execs[i+l] != r.execs[i+r.last] {
			return false
		}
	}
	return true
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
