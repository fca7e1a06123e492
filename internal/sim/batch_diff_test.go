package sim_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/oracle"
	"repro/internal/sim"
)

// batchSizes are the lane counts the differential matrix exercises: the
// degenerate batch, a two-lane batch, an odd width that doesn't divide
// anything, and the throughput-benchmark width.
var batchSizes = []int{1, 2, 7, 64}

// laneMemory derives lane l's input memory from the kernel's canonical
// initial memory: lane 0 is the canonical input, the others perturb
// every word deterministically. Kernel addressing is induction-variable
// driven, so data perturbation cannot fault — it only changes values.
func laneMemory(init cdfg.Memory, l int) cdfg.Memory {
	m := init.Clone()
	if l == 0 {
		return m
	}
	for i := range m {
		m[i] += int32(l*31 + i%17)
	}
	return m
}

// assembleCell maps and assembles a kernel for one mode × config cell,
// or skips the subtest where the cell has no legal mapping (context
// memory overflow on the small configurations).
func assembleCell(t *testing.T, k kernels.Kernel, mode oracle.Mode, cfg arch.ConfigName) *asm.Program {
	t.Helper()
	m, err := core.Map(k.Build(), arch.MustGrid(cfg), mode.Options())
	if err != nil {
		t.Skipf("no mapping: %v", err)
	}
	if ok, _ := m.FitsMemory(); !ok {
		t.Skip("mapping overflows context memory")
	}
	prog, err := asm.Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestBatchVsScalarMatrix is the engine's equivalence obligation: for
// every kernel × mode × CM configuration, RunBatch over lane-perturbed
// inputs must be deep-equal — results, cycle counts, per-tile activity
// counters, and final memories — to B independent scalar-interpreter
// runs, and to B independent Run calls.
func TestBatchVsScalarMatrix(t *testing.T) {
	modes := oracle.Modes()
	configs := arch.ConfigNames()
	sizes := batchSizes
	if testing.Short() || raceEnabled {
		modes = []oracle.Mode{oracle.ModeBasic, oracle.ModeCAB}
		sizes = []int{1, 7}
	}
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range modes {
				for _, cfg := range configs {
					t.Run(fmt.Sprintf("%s/%s", mode, cfg), func(t *testing.T) {
						prog := assembleCell(t, k, mode, cfg)
						s, err := sim.New(prog)
						if err != nil {
							t.Fatal(err)
						}
						init := k.Init()
						for _, B := range sizes {
							inputs := make([]cdfg.Memory, B)
							for l := range inputs {
								inputs[l] = laneMemory(init, l)
							}
							// Scalar reference: B independent interpreter runs.
							refMems := make([]cdfg.Memory, B)
							refResults := make([]*sim.Result, B)
							for l := range inputs {
								refMems[l] = inputs[l].Clone()
								res, err := s.RunScalar(refMems[l])
								if err != nil {
									t.Fatalf("B=%d lane %d: scalar: %v", B, l, err)
								}
								refResults[l] = res
							}
							// Engine under test.
							gotMems := make([]cdfg.Memory, B)
							for l := range inputs {
								gotMems[l] = inputs[l].Clone()
							}
							results, err := s.Engine().RunBatch(gotMems)
							if err != nil {
								t.Fatalf("B=%d: RunBatch: %v", B, err)
							}
							for l := 0; l < B; l++ {
								if !reflect.DeepEqual(results[l], refResults[l]) {
									t.Fatalf("B=%d lane %d: result diverged from scalar\n got %+v\nwant %+v",
										B, l, results[l], refResults[l])
								}
								if !reflect.DeepEqual(gotMems[l], refMems[l]) {
									t.Fatalf("B=%d lane %d: final memory diverged from scalar", B, l)
								}
							}
							// And against the public Run path (the B=1 wrapper).
							runMem := inputs[0].Clone()
							runRes, err := s.Run(runMem)
							if err != nil {
								t.Fatalf("B=%d: Run: %v", B, err)
							}
							if !reflect.DeepEqual(runRes, refResults[0]) || !reflect.DeepEqual(runMem, refMems[0]) {
								t.Fatalf("B=%d: Run diverged from scalar on lane 0", B)
							}
						}
					})
				}
			}
		})
	}
}

// corruptStoreValues rebinds the value operand of every store context
// word to a constant, the binding-fault class the oracle's fault
// injection uses: control flow is untouched, so runs terminate and only
// memory diverges.
func corruptStoreValues(prog *asm.Program, v int32) {
	for ti := range prog.Tiles {
		for si := range prog.Tiles[ti].Segments {
			instrs := prog.Tiles[ti].Segments[si].Instrs
			for ii := range instrs {
				if instrs[ii].Kind == isa.KOp && instrs[ii].Op == cdfg.OpStore {
					instrs[ii].Srcs[1] = isa.Const(v)
				}
			}
		}
	}
}

// TestMismatchCap checks RunVerified's divergence report against a
// hand-computed scalar reference: on a store-corrupted program, every
// input must report a *DivergenceError with the same mismatches as the
// scalar interpreter diffed against the CDFG reference, truncated to
// MaxMismatches but with the full Total.
func TestMismatchCap(t *testing.T) {
	k, err := kernels.ByName("FIR")
	if err != nil {
		t.Fatal(err)
	}
	prog := assembleCell(t, k, oracle.ModeCAB, arch.HOM64)
	corruptStoreValues(prog, 0x5aa5a5)
	s, err := sim.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 3; l++ {
		initial := laneMemory(k.Init(), l)
		// Scalar reference divergence, truncated by hand.
		ref := initial.Clone()
		if _, err := cdfg.Interp(prog.Graph, ref); err != nil {
			t.Fatal(err)
		}
		got := initial.Clone()
		res, err := s.RunScalar(got)
		if err != nil {
			t.Fatal(err)
		}
		want := &sim.DivergenceError{Kernel: prog.Graph.Name, Config: prog.Grid.Name, Cycles: res.Cycles}
		for i := range ref {
			if ref[i] != got[i] {
				want.Total++
				if len(want.Mismatches) < sim.MaxMismatches {
					want.Mismatches = append(want.Mismatches, sim.Mismatch{Addr: i, Ref: ref[i], Got: got[i]})
				}
			}
		}
		if want.Total <= sim.MaxMismatches {
			t.Fatalf("input %d: corruption produced only %d mismatches, need > %d to see truncation", l, want.Total, sim.MaxMismatches)
		}

		_, _, mem, err := s.RunVerified(initial)
		var div *sim.DivergenceError
		if !errors.As(err, &div) {
			t.Fatalf("input %d: error is %v, want *DivergenceError", l, err)
		}
		if mem != nil {
			t.Fatalf("input %d: diverged run returned a verified memory", l)
		}
		if !reflect.DeepEqual(div, want) {
			t.Fatalf("input %d: divergence differs from scalar reference\n got %+v\nwant %+v", l, div, want)
		}
	}
}
