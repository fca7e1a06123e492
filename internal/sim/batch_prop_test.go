package sim_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// buildProgram maps and assembles a graph with the CAB flow on HOM64,
// the cell every batch property test runs on.
func buildProgram(t testing.TB, g *cdfg.Graph) *asm.Program {
	t.Helper()
	m, err := core.Map(g, arch.MustGrid(arch.HOM64), core.DefaultOptions(core.FlowCAB))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func firSim(t *testing.T) (kernels.Kernel, *sim.Sim) {
	t.Helper()
	k, err := kernels.ByName("FIR")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(buildProgram(t, k.Build()))
	if err != nil {
		t.Fatal(err)
	}
	return k, s
}

// TestBatchEmpty: an empty batch is a no-op — no results, no error.
func TestBatchEmpty(t *testing.T) {
	_, s := firSim(t)
	for _, mems := range [][]cdfg.Memory{nil, {}} {
		results, err := s.Engine().RunBatch(mems)
		if err != nil {
			t.Fatalf("RunBatch(empty): %v", err)
		}
		if len(results) != 0 {
			t.Fatalf("RunBatch(empty) returned %d results", len(results))
		}
	}
}

// TestBatchOfOne: a one-lane batch is exactly a scalar run.
func TestBatchOfOne(t *testing.T) {
	k, s := firSim(t)
	refMem := k.Init()
	refRes, err := s.RunScalar(refMem)
	if err != nil {
		t.Fatal(err)
	}
	gotMem := k.Init()
	results, err := s.Engine().RunBatch([]cdfg.Memory{gotMem})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results[0], refRes) {
		t.Fatalf("B=1 result differs from scalar:\n got %+v\nwant %+v", results[0], refRes)
	}
	if !reflect.DeepEqual(gotMem, refMem) {
		t.Fatal("B=1 final memory differs from scalar")
	}
}

// TestBatchDuplicateLanes: identical input memories must produce
// identical results and identical final memories on every lane.
func TestBatchDuplicateLanes(t *testing.T) {
	k, s := firSim(t)
	const B = 6
	mems := make([]cdfg.Memory, B)
	for l := range mems {
		mems[l] = k.Init()
	}
	results, err := s.Engine().RunBatch(mems)
	if err != nil {
		t.Fatal(err)
	}
	for l := 1; l < B; l++ {
		if !reflect.DeepEqual(results[l], results[0]) {
			t.Fatalf("lane %d result differs from lane 0 on identical input", l)
		}
		if !reflect.DeepEqual(mems[l], mems[0]) {
			t.Fatalf("lane %d final memory differs from lane 0 on identical input", l)
		}
	}
	if err := k.Check(mems[0]); err != nil {
		t.Fatalf("golden check: %v", err)
	}
}

// copyThroughGraph builds: mem[1] = mem[0] — one load feeding one
// store, the smallest program whose store value can be corrupted to a
// constant so that divergence becomes input-dependent.
func copyThroughGraph() *cdfg.Graph {
	b := cdfg.NewBuilder("copythrough")
	entry := b.Block("entry")
	x := entry.Load(entry.Const(0))
	entry.Store(entry.Const(1), x)
	entry.Jump("exit")
	b.Block("exit")
	return b.Finish()
}

// TestBatchSingleLaneDivergence: with the store value corrupted to a
// constant K, an input that already holds K at the source address
// verifies clean while every other input diverges — the verifier must
// blame exactly the diverging inputs, with mismatch detail, and still
// return the verified memory for the clean one.
func TestBatchSingleLaneDivergence(t *testing.T) {
	const magic = 42
	prog := buildProgram(t, copyThroughGraph())
	corruptStoreValues(prog, magic)
	s, err := sim.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Lane 1 carries the magic value: the corrupted store writes what the
	// reference interpreter writes, so only lanes 0 and 2 diverge.
	initials := []cdfg.Memory{
		{7, 0, 0, 0},
		{magic, 0, 0, 0},
		{-3, 0, 0, 0},
	}
	results := make([]*sim.Result, len(initials))
	mems := make([]cdfg.Memory, len(initials))
	errs := make([]error, len(initials))
	for l, initial := range initials {
		results[l], _, mems[l], errs[l] = s.RunVerified(initial)
	}
	for _, l := range []int{0, 2} {
		var div *sim.DivergenceError
		if !errors.As(errs[l], &div) {
			t.Fatalf("lane %d: error is %v, want *DivergenceError", l, errs[l])
		}
		if div.Total != 1 || div.Mismatches[0].Addr != 1 || div.Mismatches[0].Got != magic {
			t.Fatalf("lane %d: unexpected divergence detail %+v", l, div)
		}
		if div.Mismatches[0].Ref != initials[l][0] {
			t.Fatalf("lane %d: reference value %d, want the lane's own input %d",
				l, div.Mismatches[0].Ref, initials[l][0])
		}
		if mems[l] != nil {
			t.Fatalf("lane %d: diverged lane returned a verified memory", l)
		}
	}
	if errs[1] != nil {
		t.Fatalf("clean lane blamed: %v", errs[1])
	}
	if mems[1] == nil || mems[1][1] != magic {
		t.Fatalf("clean lane memory not verified: %v", mems[1])
	}
	if results[1] == nil || results[1].Cycles <= 0 {
		t.Fatalf("clean lane result missing: %+v", results[1])
	}
}

// branchDiamondGraph builds an input-dependent diamond: lanes with
// mem[0] != 0 store 111 to mem[1], the rest store 222 — the smallest
// program that forces the engine to split a lane group at a branch.
func branchDiamondGraph() *cdfg.Graph {
	b := cdfg.NewBuilder("diamond")
	entry := b.Block("entry")
	c := entry.Load(entry.Const(0))
	entry.BranchIf(c, "then", "else")

	thenB := b.Block("then")
	thenB.Store(thenB.Const(1), thenB.Const(111))
	thenB.Jump("exit")

	elseB := b.Block("else")
	elseB.Store(elseB.Const(1), elseB.Const(222))
	elseB.Jump("exit")

	b.Block("exit")
	return b.Finish()
}

// TestBatchBranchDivergence: lanes taking opposite sides of a branch
// split into groups and must still match per-lane scalar runs exactly,
// including cycle counts and block-execution maps.
func TestBatchBranchDivergence(t *testing.T) {
	prog := buildProgram(t, branchDiamondGraph())
	s, err := sim.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	const B = 8
	inputs := make([]cdfg.Memory, B)
	for l := range inputs {
		inputs[l] = cdfg.Memory{int32(l % 3), 0, 0, 0} // mixed taken/not-taken lanes
	}
	want := make([]*sim.Result, B)
	wantMems := make([]cdfg.Memory, B)
	for l := range inputs {
		wantMems[l] = inputs[l].Clone()
		res, err := s.RunScalar(wantMems[l])
		if err != nil {
			t.Fatal(err)
		}
		want[l] = res
	}
	gotMems := make([]cdfg.Memory, B)
	for l := range inputs {
		gotMems[l] = inputs[l].Clone()
	}
	results, err := s.Engine().RunBatch(gotMems)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < B; l++ {
		if !reflect.DeepEqual(results[l], want[l]) {
			t.Fatalf("lane %d result diverged across the branch split:\n got %+v\nwant %+v", l, results[l], want[l])
		}
		if !reflect.DeepEqual(gotMems[l], wantMems[l]) {
			t.Fatalf("lane %d memory diverged across the branch split", l)
		}
	}
}
