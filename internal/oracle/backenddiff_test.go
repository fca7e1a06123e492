package oracle

import (
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cdfg"
)

// testExactBudget bounds the exact backend in every test here: large
// enough that the search improves on the heuristic now and then, small
// enough that a sweep of generated graphs stays in CI's time budget, and
// explicit so the sweep never silently depends on the exact backend's
// default.
const testExactBudget = 3000

func TestBackendPairByNames(t *testing.T) {
	pair, err := BackendPairByNames("heuristic", "exact")
	if err != nil {
		t.Fatal(err)
	}
	if pair.Ref.Name() != "heuristic" || pair.Sub.Name() != "exact" {
		t.Fatalf("resolved pair %s", pair)
	}
	if pair.String() != "heuristic vs exact" {
		t.Fatalf("pair string %q", pair)
	}
	for _, bad := range [][2]string{{"wat", "exact"}, {"heuristic", "wat"}} {
		if _, err := BackendPairByNames(bad[0], bad[1]); err == nil {
			t.Errorf("BackendPairByNames(%q, %q) succeeded", bad[0], bad[1])
		}
	}
}

// TestBackendDiffSweepClean is the cross-backend acceptance property: a
// seeded sweep of generated CDFGs diffing the exact search against the
// heuristic across all 5 modes × 4 CM configurations finds zero
// disagreements — no illegal mapping from either backend and no cost
// inversion. ORACLE_BACKEND_DIFF_N overrides the graph count and
// ORACLE_BACKEND_DIFF_BUDGET the exact node budget (CI runs an explicit
// bounded smoke); short mode and the race detector trim the count.
// ORACLE_METRICS attaches a recorder as in TestSweepClean.
func TestBackendDiffSweepClean(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 8
	}
	if raceEnabled {
		n = 5
	}
	n = positiveEnv(t, "ORACLE_BACKEND_DIFF_N", n)
	p := &Pipeline{
		Backends:        DefaultBackendPair(),
		ExactNodeBudget: positiveEnv(t, "ORACLE_BACKEND_DIFF_BUDGET", testExactBudget),
	}
	sweepRecorder(t, p)
	rep := p.Sweep(SweepOptions{N: n, Seed: 500})
	t.Log("\n" + rep.String())
	if rep.Checked != n*len(AllCells()) {
		t.Errorf("checked %d cells, want %d", rep.Checked, n*len(AllCells()))
	}
	for _, f := range rep.Failures {
		for _, b := range f.Bugs() {
			t.Errorf("graph %d (seed %d) %s: %s: %v", f.Index, f.Seed, b.Cell, b.Outcome, b.Err)
		}
	}
}

// positiveEnv reads a positive integer test override from the
// environment variable name, returning def when it is unset.
func positiveEnv(t *testing.T, name string, def int) int {
	t.Helper()
	env := os.Getenv(name)
	if env == "" {
		return def
	}
	v, err := strconv.Atoi(env)
	if err != nil || v < 1 {
		t.Fatalf("bad %s %q", name, env)
	}
	return v
}

// TestBackendSweepDeterministic pins that the report is a pure function
// of the options: worker count must not affect any count.
func TestBackendSweepDeterministic(t *testing.T) {
	opt := SweepOptions{N: 4, Seed: 900}
	p := &Pipeline{Backends: DefaultBackendPair(), ExactNodeBudget: testExactBudget}
	var base *SweepReport
	for _, workers := range []int{1, 4} {
		opt.Workers = workers
		rep := p.Sweep(opt)
		if base == nil {
			base = rep
			continue
		}
		if !reflect.DeepEqual(base.ByCell, rep.ByCell) {
			t.Errorf("ByCell differs between 1 and %d workers:\n%v\nvs\n%v",
				workers, base.ByCell, rep.ByCell)
		}
	}
}

// TestBackendDiffCatchesPlantedFault proves the differential is a live
// oracle: a fault planted in the subject's mapping must classify as
// Illegal, shrink to a small reproducer, and round-trip through the
// .repro format with its backend pair intact.
func TestBackendDiffCatchesPlantedFault(t *testing.T) {
	cell := Cell{Mode: ModeBasic, Config: arch.ConfigNames()[0]}
	pair := DefaultBackendPair()
	clean := &Pipeline{Backends: pair, ExactNodeBudget: testExactBudget}
	faulty := &Pipeline{Backends: pair, ExactNodeBudget: testExactBudget,
		fault: faultHooks{mapping: corruptWriteback}}

	gen := cdfg.DefaultGenConfig()
	gen.MaxBodyOps = 5
	var g *cdfg.Graph
	var mem cdfg.Memory
	var seed int64
	for s := int64(6000); s < 6050; s++ {
		cg, cmem := cdfg.Generate(rand.New(rand.NewSource(s)), gen)
		if clean.Check(cg, cmem, cell, s).Outcome != Pass {
			continue
		}
		if faulty.Check(cg, cmem, cell, s).Outcome == Illegal {
			g, mem, seed = cg, cmem, s
			break
		}
	}
	if g == nil {
		t.Fatal("no seed in [6000,6050) exposes the writeback fault as Illegal")
	}

	res := faulty.Check(g, mem, cell, seed)
	if !res.Outcome.Bug() {
		t.Fatalf("planted fault must classify as a bug, got %s", res.Outcome)
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), pair.Sub.Name()) {
		t.Fatalf("diagnosis should name the guilty backend, got %v", res.Err)
	}

	fails := func(cg *cdfg.Graph, cmem cdfg.Memory) bool {
		return faulty.Check(cg, cmem, cell, seed).Outcome.Bug()
	}
	small := Shrink(g, mem, fails, 0)
	t.Logf("shrunk %d nodes -> %d nodes", g.NumNodes(), small.NumNodes())
	shrunk := faulty.Check(small, mem, cell, seed)
	if !shrunk.Outcome.Bug() {
		t.Fatal("shrunk graph no longer disagrees")
	}
	if got := clean.Check(small, mem, cell, seed).Outcome; got.Bug() {
		t.Fatalf("shrunk graph is %s under the clean pipeline, want no bug", got)
	}

	data, err := FormatRepro(small, mem, seed, pair, shrunk)
	if err != nil {
		t.Fatal(err)
	}
	rg, rmem, rpair, err := ParseReproMeta(data)
	if err != nil {
		t.Fatalf("ParseReproMeta on formatted repro: %v\n%s", err, data)
	}
	if rpair == nil || rpair.String() != pair.String() {
		t.Fatalf("round-tripped pair %v, want %s", rpair, pair)
	}
	if rg.NumNodes() != small.NumNodes() || len(rmem) != len(mem) {
		t.Fatalf("round-trip changed the reproducer: %d nodes/%d mem vs %d/%d",
			rg.NumNodes(), len(rmem), small.NumNodes(), len(mem))
	}
	// The classic parser must also accept the file (the fuzz corpus and
	// FuzzGraphEndToEnd seed from every .repro via ParseRepro).
	if _, _, err := ParseRepro(data); err != nil {
		t.Fatalf("ParseRepro on backend repro: %v", err)
	}
}

// TestBackendDiffInvertedClassification pins the Inverted outcome: when
// the subject's mapping costs more words than the reference's, the check
// reports a cost inversion (here forced by diffing the pair in reverse —
// the heuristic as subject loses to the exact search whenever the search
// strictly improves).
func TestBackendDiffInvertedClassification(t *testing.T) {
	reversed := &BackendPair{Ref: DefaultBackendPair().Sub, Sub: DefaultBackendPair().Ref}
	p := &Pipeline{Backends: reversed, ExactNodeBudget: testExactBudget}
	gen := cdfg.DefaultGenConfig()
	// Seed 139 is a known strict improvement of the exact search on
	// basic/HOM64 under testExactBudget; the window around it keeps the
	// test robust to small search changes without sweeping the matrix.
	for s := int64(135); s < 150; s++ {
		g, mem := cdfg.Generate(rand.New(rand.NewSource(s)), gen)
		for _, cfg := range arch.ConfigNames() {
			r := p.Check(g, mem, Cell{Mode: ModeBasic, Config: cfg}, s)
			if r.Outcome != Inverted {
				continue
			}
			if r.SubWords <= r.RefWords {
				t.Fatalf("Inverted with sub %d <= ref %d", r.SubWords, r.RefWords)
			}
			if r.Err == nil || !strings.Contains(r.Err.Error(), "cost inversion") {
				t.Fatalf("Inverted without diagnosis: %v", r.Err)
			}
			return
		}
	}
	t.Skip("no seed in [135,150) makes the exact search strictly improve; inversion path untested here")
}
