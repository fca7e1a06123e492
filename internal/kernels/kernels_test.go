package kernels

import (
	"testing"

	"repro/internal/cdfg"
)

// TestKernelsInterpretMatchGolden checks that interpreting each kernel's
// CDFG reproduces the golden Go reference output bit-exactly.
func TestKernelsInterpretMatchGolden(t *testing.T) {
	for _, k := range All() {
		t.Run(k.Name, func(t *testing.T) {
			g := k.Build()
			if err := cdfg.Verify(g); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			mem := k.Init()
			tr, err := cdfg.Interp(g, mem)
			if err != nil {
				t.Fatalf("Interp: %v", err)
			}
			if tr.Stores == 0 {
				t.Fatalf("kernel stored nothing")
			}
			if err := k.Check(mem); err != nil {
				t.Fatalf("Check: %v", err)
			}
		})
	}
}

// TestKernelsDeterministic ensures Build/Init are pure: two builds produce
// identical listings and memories.
func TestKernelsDeterministic(t *testing.T) {
	for _, k := range All() {
		t.Run(k.Name, func(t *testing.T) {
			if got, want := k.Build().String(), k.Build().String(); got != want {
				t.Fatalf("two builds differ")
			}
			a, b := k.Init(), k.Init()
			if len(a) != len(b) {
				t.Fatalf("memory sizes differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("memories differ at %d", i)
				}
			}
		})
	}
}

// TestKernelShapes sanity-checks the structural properties the evaluation
// relies on: every kernel has loops (multiple blocks), symbol variables,
// and memory traffic.
func TestKernelShapes(t *testing.T) {
	for _, k := range All() {
		t.Run(k.Name, func(t *testing.T) {
			g := k.Build()
			if len(g.Blocks) < 3 {
				t.Errorf("%s has only %d blocks", k.Name, len(g.Blocks))
			}
			syms := 0
			for _, b := range g.Blocks {
				syms += len(b.LiveOut)
			}
			if syms == 0 {
				t.Errorf("%s has no symbol variables", k.Name)
			}
			loads, stores := 0, 0
			for _, b := range g.Blocks {
				for _, n := range b.Nodes {
					switch n.Op {
					case cdfg.OpLoad:
						loads++
					case cdfg.OpStore:
						stores++
					}
				}
			}
			if loads == 0 || stores == 0 {
				t.Errorf("%s: loads=%d stores=%d", k.Name, loads, stores)
			}
		})
	}
}
