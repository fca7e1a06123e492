package static_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/oracle"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/static"
	"repro/internal/verify"
)

// sweepBatch is the lane width of the batched-engine differential in the
// kernel sweep; the acceptance criterion asks for B=64.
const sweepBatch = 64

// mapCell maps and assembles one (kernel, mode, config) cell, or reports
// why the cell has no runnable program (the same cells the evaluation
// tables leave blank).
func mapCell(t *testing.T, k kernels.Kernel, mode oracle.Mode, cfg arch.ConfigName) (*asm.Program, string) {
	t.Helper()
	g := k.Build()
	grid := arch.MustGrid(cfg)
	m, err := core.Map(g, grid, mode.Options())
	if err != nil {
		return nil, fmt.Sprintf("no mapping: %v", err)
	}
	if ok, tile := m.FitsMemory(); !ok {
		return nil, fmt.Sprintf("overflows context memory of tile %d", tile+1)
	}
	prog, err := asm.Assemble(m)
	if err != nil {
		t.Fatalf("assemble of a valid mapping failed: %v", err)
	}
	if res := verify.Run(&verify.Context{Mapping: m, Program: prog}); !res.OK() {
		t.Fatalf("original program not verifier-clean:\n%s", res.Report())
	}
	return prog, ""
}

// runBoth runs the original and the stripped program on fresh kernel
// inputs and demands behavior identity: same stalls, same block trace,
// same final memory, a passing golden check, and a cycle count exactly
// CycleDelta lower (the elided halting-block idles).
func runBoth(t *testing.T, k kernels.Kernel, orig, stripped *asm.Program, rep *static.StripReport) *sim.Result {
	t.Helper()
	s1, err := sim.New(orig)
	if err != nil {
		t.Fatalf("sim original: %v", err)
	}
	s2, err := sim.New(stripped)
	if err != nil {
		t.Fatalf("sim stripped: %v", err)
	}

	mem1, mem2 := k.Init(), k.Init()
	res1, err := s1.Run(mem1)
	if err != nil {
		t.Fatalf("run original: %v", err)
	}
	res2, err := s2.Run(mem2)
	if err != nil {
		t.Fatalf("run stripped: %v", err)
	}
	delta := rep.CycleDelta(res1.BlockExecs)
	if res2.Cycles != res1.Cycles-delta || res1.StallCycles != res2.StallCycles {
		t.Fatalf("stripped timing diverged: %d/%d cycles/stalls, original %d/%d (expected delta %d)",
			res2.Cycles, res2.StallCycles, res1.Cycles, res1.StallCycles, delta)
	}
	if !reflect.DeepEqual(res1.BlockExecs, res2.BlockExecs) {
		t.Fatalf("stripped block trace diverged: %v vs %v", res2.BlockExecs, res1.BlockExecs)
	}
	if !reflect.DeepEqual(mem1, mem2) {
		t.Fatal("stripped final memory diverged from the original")
	}
	if err := k.Check(mem2); err != nil {
		t.Fatalf("stripped program fails the golden check: %v", err)
	}

	// Batched engine differential at B=64: every lane of the stripped
	// program must reproduce its original-lane twin.
	lanes1 := make([]cdfg.Memory, sweepBatch)
	lanes2 := make([]cdfg.Memory, sweepBatch)
	for l := range lanes1 {
		lanes1[l], lanes2[l] = k.Init(), k.Init()
	}
	br1, err := s1.Engine().RunBatch(lanes1)
	if err != nil {
		t.Fatalf("batch run original: %v", err)
	}
	br2, err := s2.Engine().RunBatch(lanes2)
	if err != nil {
		t.Fatalf("batch run stripped: %v", err)
	}
	for l := range br1 {
		if br2[l].Cycles != br1[l].Cycles-rep.CycleDelta(br1[l].BlockExecs) ||
			br1[l].StallCycles != br2[l].StallCycles ||
			!reflect.DeepEqual(br1[l].BlockExecs, br2[l].BlockExecs) {
			t.Fatalf("batch lane %d diverged after strip", l)
		}
	}
	if !reflect.DeepEqual(lanes1, lanes2) {
		t.Fatal("batch final memories diverged after strip")
	}
	return res1
}

// TestKernelSweep is the acceptance sweep: for every kernel × mapping
// mode × CM configuration that maps, the analyzer's claims hold against
// the simulator, the static energy bounds bracket the measured energy,
// and the stripped bitstream is verifier-clean and behavior-identical.
// At least one cell must show a nonzero context-word reduction.
func TestKernelSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("kernel sweep maps every cell; skipped under -short")
	}
	modes := oracle.Modes()
	configs := arch.ConfigNames()
	pr := power.Default()

	var mu sync.Mutex
	totalSaved, ran := 0, 0
	t.Run("cells", func(t *testing.T) {
		for _, k := range kernels.All() {
			for _, mode := range modes {
				for _, cfg := range configs {
					k, mode, cfg := k, mode, cfg
					t.Run(fmt.Sprintf("%s/%s/%s", k.Name, mode, cfg), func(t *testing.T) {
						t.Parallel()
						prog, skip := mapCell(t, k, mode, cfg)
						if prog == nil {
							t.Skip(skip)
						}
						a, err := static.Analyze(prog)
						if err != nil {
							t.Fatalf("analyze: %v", err)
						}
						stripped, rep, err := static.Strip(prog, a)
						if err != nil {
							t.Fatalf("strip: %v", err)
						}
						if res := verify.CheckProgram(stripped); !res.OK() {
							t.Fatalf("stripped program not verifier-clean:\n%s", res.Report())
						}
						res := runBoth(t, k, prog, stripped, rep)
						if err := a.CheckRun(res); err != nil {
							t.Fatalf("analyzer claims contradict the run: %v", err)
						}
						lower, upper, err := a.EnergyBounds(pr, res.BlockExecs)
						if err != nil {
							t.Fatalf("energy bounds: %v", err)
						}
						actual := pr.ActivityEnergy(prog.Grid, res.Activity())
						if actual.Total() < lower.Total() || actual.Total() > upper.Total() {
							t.Fatalf("energy %.6f µJ outside static bounds [%.6f, %.6f]",
								actual.Total(), lower.Total(), upper.Total())
						}
						if rep.WordsAfter != stripped.TotalWords() {
							t.Fatalf("report says %d words, program holds %d",
								rep.WordsAfter, stripped.TotalWords())
						}
						mu.Lock()
						totalSaved += rep.WordsSaved()
						ran++
						mu.Unlock()
						if rep.WordsSaved() > 0 {
							t.Logf("saved %d of %d words", rep.WordsSaved(), rep.WordsBefore)
						}
					})
				}
			}
		}
	})
	if ran == 0 {
		t.Fatal("no cell produced a runnable program")
	}
	t.Logf("sweep: %d cells, %d context words stripped in total", ran, totalSaved)
	if totalSaved == 0 {
		t.Error("no cell showed a context-word reduction; dead-context elimination never fired")
	}
}
