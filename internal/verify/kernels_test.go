package verify_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/verify"
)

// TestKernelMatrixClean is the verifier's false-positive gate: every
// mapping the default suite produces — all paper kernels × all four
// context-memory configurations under the full aware flow, plus the
// memory-unaware basic flow on the largest memory — must pass every
// pass with zero diagnostics. A kernel that finds no mapping on a
// config is skipped (an acceptable outcome the paper also reports),
// never silently passed.
func TestKernelMatrixClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full kernel × config matrix is slow")
	}
	type cell struct {
		flow core.Flow
		cfg  arch.ConfigName
	}
	var cells []cell
	for _, cfg := range arch.ConfigNames() {
		cells = append(cells, cell{core.FlowCAB, cfg})
	}
	cells = append(cells, cell{core.FlowBasic, arch.HOM64})
	for _, name := range kernels.Names() {
		for _, c := range cells {
			name, c := name, c
			t.Run(name+"/"+c.flow.String()+"/"+string(c.cfg), func(t *testing.T) {
				t.Parallel()
				k, err := kernels.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				m, err := core.Map(k.Build(), arch.MustGrid(c.cfg), core.DefaultOptions(c.flow))
				if err != nil {
					t.Skipf("no mapping: %v", err)
				}
				if ok, _ := m.FitsMemory(); !ok {
					t.Skip("mapping overflows context memory (memory-unaware flow)")
				}
				prog, err := asm.Assemble(m)
				if err != nil {
					t.Fatalf("assemble: %v", err)
				}
				res := verify.Run(&verify.Context{Mapping: m, Program: prog})
				if !res.OK() {
					t.Errorf("diagnostics on a clean kernel:\n%s", res.Report())
				}
				if len(res.Skipped) != 0 {
					t.Errorf("full context must run every pass, skipped %v", res.Skipped)
				}
			})
		}
	}
}
