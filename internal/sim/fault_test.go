package sim_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/sim"
)

// faultArmsGraph branches on mem[0]. Its "then" arm loads x through the
// address in mem[2], stores x+3 to mem[1] and again through the address
// in mem[3]; its "else" arm stores a constant. Only lanes that take
// "then" can fault, so "else" lanes stay clean next to a faulting one.
func faultArmsGraph() *cdfg.Graph {
	b := cdfg.NewBuilder("faultarms")
	entry := b.Block("entry")
	entry.BranchIf(entry.Load(entry.Const(0)), "then", "else")

	then := b.Block("then")
	y := then.AddC(then.Load(then.Load(then.Const(2))), 3)
	then.Store(then.Const(1), y)
	then.Store(then.Load(then.Const(3)), y)
	then.Jump("exit")

	els := b.Block("else")
	els.Store(els.Const(1), els.Const(222))
	els.Jump("exit")

	b.Block("exit")
	return b.Finish()
}

// thenAdd returns the "then" arm's add word, the op the static fault
// rows corrupt.
func thenAdd(t *testing.T, prog *asm.Program) *isa.Instr {
	t.Helper()
	var then cdfg.BBID = -1
	for i, b := range prog.Graph.Blocks {
		if b.Name == "then" {
			then = cdfg.BBID(i)
		}
	}
	for ti := range prog.Tiles {
		instrs := prog.Tiles[ti].Segments[then].Instrs
		for i := range instrs {
			if instrs[i].Kind == isa.KOp && instrs[i].Op == cdfg.OpAdd {
				return &instrs[i]
			}
		}
	}
	t.Fatal("no add word in the then arm")
	return nil
}

// TestFaultClasses runs one program per fault class through Run and
// through a four-lane batch whose other lanes are clean. Where the
// reference interpreter returns an error, the engine must match it bit
// for bit: error text, partial Result and final memory, plus the obs
// event stream of the single-lane run. Where the reference panics
// (writeback register or neighbor direction out of range), the engine
// must return an error instead and leave the clean lanes as the
// reference computes them.
func TestFaultClasses(t *testing.T) {
	lane := func(cond, addr, dst, x int32) cdfg.Memory { return cdfg.Memory{cond, 0, addr, dst, x, 0, 0, 0} }
	thenA, thenB := lane(1, 4, 5, 7), lane(1, 6, 7, -9)
	elseA, elseB, elseC := lane(0, 4, 5, 1), lane(0, 100, -3, 2), lane(0, 4, 5, 3)
	// Static faults stop every lane that enters "then"; memory faults
	// only the lane whose address leaves memory, so their clean lanes
	// include "then" lanes running the faulting cycle beside it.
	staticLanes := []cdfg.Memory{elseA, elseB, thenA, elseC}
	rrf := uint8(buildProgram(t, faultArmsGraph()).Grid.RRFSize)
	rows := []struct {
		name      string
		corrupt   func(*isa.Instr)
		lanes     []cdfg.Memory // lane 2 faults
		want      string
		refPanics bool
	}{
		{"load address", nil, []cdfg.Memory{thenA, elseA, lane(1, 100, 5, 7), thenB}, "load address 100 out of", false},
		{"store address", nil, []cdfg.Memory{thenA, elseA, lane(1, 4, -3, 7), thenB}, "store address -3 out of", false},
		{"source register", func(in *isa.Instr) { in.Srcs[1] = isa.Reg(rrf + 1) }, staticLanes, "register r", false},
		{"unset operand", func(in *isa.Instr) { in.Srcs[1] = isa.Src{} }, staticLanes, "operand 1 unset", false},
		{"opcode", func(in *isa.Instr) { in.Op = cdfg.OpConst }, staticLanes, "no pure ALU semantics", false},
		{"writeback register", func(in *isa.Instr) { *in = in.WithWB(rrf + 1) }, staticLanes, "writeback register r", true},
		{"neighbor direction", func(in *isa.Instr) { in.Srcs[1] = isa.Nbr(isa.Dir(6)) }, staticLanes, "neighbor direction 6 out of range", true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			prog := buildProgram(t, faultArmsGraph())
			if row.corrupt != nil {
				row.corrupt(thenAdd(t, prog))
			}
			refRec, refSink := newBufferRecorder()
			ref, err := sim.New(prog, sim.WithObs(refRec))
			if err != nil {
				t.Fatal(err)
			}
			engRec, engSink := newBufferRecorder()
			eng, err := sim.New(prog, sim.WithObs(engRec))
			if err != nil {
				t.Fatal(err)
			}
			B := len(row.lanes)
			refRes := make([]*sim.Result, B)
			refErrs := make([]error, B)
			refMems := make([]cdfg.Memory, B)
			var refEvents []obs.Event
			for l := range row.lanes {
				refMems[l] = row.lanes[l].Clone()
				emitted := len(refSink.Events())
				if l == 2 && row.refPanics {
					if !panics(func() { _, _ = ref.RunScalar(refMems[l]) }) {
						t.Fatal("reference interpreter no longer panics on this fault: compare against it instead")
					}
					continue
				}
				refRes[l], refErrs[l] = ref.RunScalar(refMems[l])
				if (refErrs[l] != nil) != (l == 2) {
					t.Fatalf("lane %d: reference error %v; want an error on lane 2 only", l, refErrs[l])
				}
				if l == 2 {
					refEvents = refSink.Events()[emitted:]
				}
			}
			check := func(what string, l int, res *sim.Result, err error, mem cdfg.Memory) {
				t.Helper()
				if l == 2 {
					if err == nil || !strings.Contains(err.Error(), row.want) {
						t.Fatalf("%s: error %v, want one containing %q", what, err, row.want)
					}
					if row.refPanics {
						if res == nil {
							t.Fatalf("%s: no partial result next to the error", what)
						}
						return
					}
					if err.Error() != refErrs[l].Error() {
						t.Fatalf("%s: error %q, reference %q", what, err, refErrs[l])
					}
				} else if err != nil {
					t.Fatalf("%s: clean lane failed: %v", what, err)
				}
				if !reflect.DeepEqual(res, refRes[l]) {
					t.Fatalf("%s: result diverged from the reference\n got %+v\nwant %+v", what, res, refRes[l])
				}
				if !reflect.DeepEqual(mem, refMems[l]) {
					t.Fatalf("%s: memory %v, reference %v", what, mem, refMems[l])
				}
			}

			mem := row.lanes[2].Clone()
			res, err := eng.Run(mem)
			check("Run", 2, res, err, mem)
			if !row.refPanics && !reflect.DeepEqual(engSink.Events(), refEvents) {
				t.Fatalf("Run: event stream diverged from the reference\n got %+v\nwant %+v", engSink.Events(), refEvents)
			}

			mems := make([]cdfg.Memory, B)
			for l := range mems {
				mems[l] = row.lanes[l].Clone()
			}
			results, batchErr := eng.Engine().RunBatch(mems)
			be, ok := batchErr.(*sim.BatchError)
			if !ok {
				t.Fatalf("RunBatch error %v, want a *BatchError", batchErr)
			}
			for l := range mems {
				check(fmt.Sprintf("RunBatch lane %d", l), l, results[l], be.Errs[l], mems[l])
			}
		})
	}
}

// newBufferRecorder returns a recorder whose events land in a buffer.
func newBufferRecorder() (*obs.Recorder, *obs.BufferSink) {
	sink := obs.NewBufferSink(0)
	return obs.NewRecorder(obs.NewRegistry(), sink), sink
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}
