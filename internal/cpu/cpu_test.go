package cpu

import (
	"testing"

	"repro/internal/cdfg"
	"repro/internal/kernels"
)

// TestRunKernelsMatchGolden executes all seven kernels on the CPU model
// and verifies their outputs against the golden references.
func TestRunKernelsMatchGolden(t *testing.T) {
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			mem := k.Init()
			res, err := Run(k.Build(), mem, DefaultCosts())
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Check(mem); err != nil {
				t.Fatal(err)
			}
			if res.Cycles <= res.Instrs {
				t.Errorf("cycles %d should exceed instrs %d (multi-cycle loads/muls)", res.Cycles, res.Instrs)
			}
			if res.Instrs <= 0 {
				t.Errorf("instrs = %d, want > 0", res.Instrs)
			}
		})
	}
}

// TestCostAccounting checks that cycles equal the dot product of class
// counts and class costs on a known straight-line program.
func TestCostAccounting(t *testing.T) {
	b := cdfg.NewBuilder("acct")
	e := b.Block("entry")
	x := e.Load(e.Const(0))   // 1 const, 1 load
	y := e.Mul(x, e.Const(3)) // 1 const, 1 mul
	e.Store(e.Const(1), y)    // 1 const (value-numbered? different val), 1 store
	g := b.Finish()

	costs := DefaultCosts()
	mem := cdfg.Memory{7, 0}
	res, err := Run(g, mem, costs)
	if err != nil {
		t.Fatal(err)
	}
	if mem[1] != 21 {
		t.Fatalf("result %d", mem[1])
	}
	want := int64(res.Consts)*int64(costs.Const) +
		int64(res.Loads)*int64(costs.Load) +
		int64(res.Stores)*int64(costs.Store) +
		int64(res.Muls)*int64(costs.Mul) +
		int64(res.ALUOps)*int64(costs.ALU) +
		int64(res.Branches)*int64(costs.Branch)
	if res.Cycles != want {
		t.Fatalf("cycles %d, want %d (no taken branches here)", res.Cycles, want)
	}
	if res.Consts != 3 || res.Loads != 1 || res.Muls != 1 || res.Stores != 1 {
		t.Fatalf("counts: %+v", res)
	}
}

func TestBranchPenalty(t *testing.T) {
	// A loop with n taken branches and one fall-through.
	mk := func(n int32) *cdfg.Graph {
		b := cdfg.NewBuilder("loop")
		e := b.Block("entry")
		e.SetSym("i", e.Const(0))
		e.Jump("loop")
		l := b.Block("loop")
		i2 := l.AddC(l.Sym("i"), 1)
		l.SetSym("i", i2)
		l.BranchIf(l.Lt(i2, l.Const(n)), "loop", "exit")
		x := b.Block("exit")
		x.Store(x.Const(0), x.Sym("i"))
		return b.Finish()
	}
	costs := DefaultCosts()
	r3, err := Run(mk(3), make(cdfg.Memory, 1), costs)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(mk(4), make(cdfg.Memory, 1), costs)
	if err != nil {
		t.Fatal(err)
	}
	// One extra iteration: two consts (1 and n), add, lt, branch + miss.
	delta := r4.Cycles - r3.Cycles
	wantDelta := int64(2*costs.Const + 2*costs.ALU + costs.Branch + costs.BranchMiss)
	if delta != wantDelta {
		t.Fatalf("per-iteration delta %d, want %d", delta, wantDelta)
	}
}

func TestRunErrors(t *testing.T) {
	b := cdfg.NewBuilder("bad")
	e := b.Block("entry")
	e.Store(e.Const(99), e.Const(1))
	if _, err := Run(b.Finish(), make(cdfg.Memory, 4), DefaultCosts()); err == nil {
		t.Error("out-of-range store should fail")
	}
	if _, err := Run(&cdfg.Graph{Name: "x"}, nil, DefaultCosts()); err == nil {
		t.Error("invalid graph should fail")
	}
}
