package exp

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/obs"
)

func TestRunnerCellAndCache(t *testing.T) {
	r := NewRunner()
	c1 := r.Run("FIR", core.FlowBasic, arch.HOM64)
	if !c1.OK {
		t.Fatalf("FIR basic failed: %s", c1.Fail)
	}
	if c1.Cycles <= 0 || c1.TotalWords <= 0 || c1.Energy.Total() <= 0 {
		t.Fatalf("cell underfilled: %+v", c1)
	}
	c2 := r.Run("FIR", core.FlowBasic, arch.HOM64)
	if c1 != c2 {
		t.Error("cells should be cached")
	}
	if c := r.Run("nope", core.FlowBasic, arch.HOM64); c.OK {
		t.Error("unknown kernel should fail")
	}
}

// TestCellDeadContextStats pins the dead-context accounting on every
// evaluated cell: the word counts are consistent, and the DCFilter —
// which ships a configuration-dead seed arm — shows a nonzero reduction
// that the rendered table reports.
func TestCellDeadContextStats(t *testing.T) {
	r := NewRunner()
	c := r.Run("DCFilter", core.FlowCAB, arch.HET1)
	if !c.OK {
		t.Fatalf("DCFilter cab/HET1 failed: %s", c.Fail)
	}
	if c.StrippedWords+c.DeadWords != c.TotalWords {
		t.Fatalf("words do not add up: %d stripped + %d dead != %d total",
			c.StrippedWords, c.DeadWords, c.TotalWords)
	}
	if c.DeadWords == 0 {
		t.Fatal("DCFilter's configuration-dead seed arm was not stripped")
	}

	dc := &DeadContext{Kernels: []string{"DCFilter"}, Cells: [][3]*Cell{{c, c, nil}}}
	out := dc.Render()
	for _, want := range []string{"DCFilter", "dead-context elimination reclaims", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("render misses %q:\n%s", want, out)
		}
	}
	if saved, words := dc.TotalSaved(); saved != 2*c.DeadWords || words != 2*c.TotalWords {
		t.Errorf("TotalSaved = %d/%d, want %d/%d", saved, words, 2*c.DeadWords, 2*c.TotalWords)
	}
}

func TestRunnerCPU(t *testing.T) {
	r := NewRunner()
	cc, err := r.CPU("DCFilter")
	if err != nil {
		t.Fatal(err)
	}
	if cc.Cycles <= 0 || cc.Energy.Total() <= 0 {
		t.Fatalf("cpu cell: %+v", cc)
	}
	cc2, err := r.CPU("DCFilter")
	if err != nil || cc != cc2 {
		t.Error("cpu cells should be cached")
	}
	if _, err := r.CPU("nope"); err == nil {
		t.Error("unknown kernel should fail")
	}
}

// TestRunnerConcurrentDedup hammers one cell from many goroutines: the
// in-flight tracking must evaluate it exactly once and hand every caller
// the same *Cell. Meaningful under -race: it exercises the cache, the
// in-flight map, and the wait path concurrently.
func TestRunnerConcurrentDedup(t *testing.T) {
	r := NewRunner()
	const n = 8
	cells := make([]*Cell, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cells[i] = r.Run("FIR", core.FlowBasic, arch.HOM64)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if cells[i] != cells[0] {
			t.Fatalf("goroutine %d got a different cell", i)
		}
	}
	if !cells[0].OK {
		t.Fatalf("FIR basic failed: %s", cells[0].Fail)
	}
	// The CPU cache must dedup the same way.
	cpus := make([]*CPUCell, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cpus[i], _ = r.CPU("FIR")
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if cpus[i] != cpus[0] {
			t.Fatalf("goroutine %d got a different CPU cell", i)
		}
	}
}

// TestFig5ParallelMatchesSerial is the byte-identical-output guarantee:
// the same figure rendered from a serial runner and from a parallel
// runner must be equal down to the last byte.
func TestFig5ParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("maps every kernel twice, twice")
	}
	serial := NewRunner()
	serial.Workers = 1
	parallel := NewRunner()
	parallel.Workers = 4
	fs, err := serial.RunFig5()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := parallel.RunFig5()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Render() != fp.Render() {
		t.Errorf("parallel render diverged:\n--- serial ---\n%s--- parallel ---\n%s", fs.Render(), fp.Render())
	}
}

func TestFig2Hotspots(t *testing.T) {
	if testing.Short() {
		t.Skip("maps MatM")
	}
	r := NewRunner()
	f, err := r.RunFig2()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig 2 observation: the load/store tiles are the
	// hot-spots of the memory-unaware mapping.
	if f.LSUUtilization() <= f.RestUtilization() {
		t.Errorf("LS tiles %.2f should exceed the rest %.2f",
			f.LSUUtilization(), f.RestUtilization())
	}
	if !strings.Contains(f.Render(), "tile 16") {
		t.Error("render should list all tiles")
	}
}

func TestFig5WeightedTraversal(t *testing.T) {
	if testing.Short() {
		t.Skip("maps every kernel twice")
	}
	r := NewRunner()
	f, err := r.RunFig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Kernels) != 7 {
		t.Fatalf("kernels: %v", f.Kernels)
	}
	// The paper's headline case is FFT: both traversals must map, and the
	// weighted traversal must need fewer moves and fewer pnops than the
	// forward one (EXPERIMENTS.md: ratios 0.70 and 0.94).
	found := false
	for i, k := range f.Kernels {
		if k != "FFT" {
			continue
		}
		found = true
		if f.FailedFwd[i] || f.FailedWght[i] {
			t.Fatal("FFT must map under both traversals")
		}
		if f.MoveRatio[i] >= 1 || f.PnopRatio[i] >= 1 {
			t.Errorf("FFT weighted/forward: move ratio %.3f, pnop ratio %.3f; both must be below 1",
				f.MoveRatio[i], f.PnopRatio[i])
		}
	}
	if !found {
		t.Fatal("Fig 5 has no FFT row")
	}
	if !strings.Contains(f.Render(), "move ratio") {
		t.Error("render shape")
	}
}

func TestFig11AreasOrdering(t *testing.T) {
	r := NewRunner()
	f, err := r.RunFig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Designs) != 5 || f.Designs[0] != "CPU" {
		t.Fatalf("designs: %v", f.Designs)
	}
	if f.PerCPU[0] != 1 {
		t.Error("CPU normalizes to 1")
	}
	// HOM64 is the largest design.
	for i := 2; i < len(f.Areas); i++ {
		if f.Areas[i] >= f.Areas[1] {
			t.Errorf("%s should be smaller than HOM64", f.Designs[i])
		}
	}
}

func TestRunTraversalForcedOrders(t *testing.T) {
	r := NewRunner()
	fwd := r.RunTraversal("DCFilter", core.FlowBasic, arch.HOM64, cdfg.TraverseForward)
	wgt := r.RunTraversal("DCFilter", core.FlowBasic, arch.HOM64, cdfg.TraverseWeighted)
	if !fwd.OK || !wgt.OK {
		t.Fatalf("traversal cells failed: %q / %q", fwd.Fail, wgt.Fail)
	}
	if fwd == wgt {
		t.Error("different traversals must be distinct cache entries")
	}
}

// TestRunnerObsAndSummary checks the evaluation-wide recorder threading
// (mapper and simulator counters land in one registry) and the per-kernel
// instrumentation roll-up.
func TestRunnerObsAndSummary(t *testing.T) {
	r := NewRunner()
	r.Obs = obs.NewRecorder(obs.NewRegistry(), nil)
	c := r.Run("FIR", core.FlowCAB, arch.HOM64)
	if !c.OK {
		t.Fatalf("FIR cab failed: %s", c.Fail)
	}
	if got := r.Obs.Counter("core.map.calls").Value(); got != 1 {
		t.Errorf("core.map.calls = %d, want 1", got)
	}
	if got := r.Obs.Counter("sim.cycles").Value(); got != c.Cycles {
		t.Errorf("sim.cycles = %d, want %d", got, c.Cycles)
	}
	// Cached cells must not re-record.
	r.Run("FIR", core.FlowCAB, arch.HOM64)
	if got := r.Obs.Counter("core.map.calls").Value(); got != 1 {
		t.Errorf("cached re-run bumped core.map.calls to %d", got)
	}
	sum := r.InstrumentationSummary()
	if !strings.Contains(sum, "FIR") || !strings.Contains(sum, "partials") || strings.Contains(sum, "memo-hit") {
		t.Errorf("summary misses the FIR row or headers:\n%s", sum)
	}
}
