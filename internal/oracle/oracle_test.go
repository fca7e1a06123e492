package oracle

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestModesAndCells(t *testing.T) {
	if got := len(Modes()); got != int(numModes) {
		t.Fatalf("Modes() returned %d modes, want %d", got, numModes)
	}
	for _, m := range Modes() {
		back, err := ModeByName(m.String())
		if err != nil || back != m {
			t.Fatalf("ModeByName(%q) = %v, %v, want %v", m.String(), back, err, m)
		}
	}
	if _, err := ModeByName("bogus"); err == nil {
		t.Fatal("ModeByName(bogus) succeeded")
	}
	cells := AllCells()
	want := len(Modes()) * len(arch.ConfigNames())
	if len(cells) != want {
		t.Fatalf("AllCells() has %d cells, want %d", len(cells), want)
	}
	seen := map[Cell]bool{}
	for _, c := range cells {
		if seen[c] {
			t.Fatalf("duplicate cell %s", c)
		}
		seen[c] = true
	}
}

func TestOutcomeClassification(t *testing.T) {
	for _, tc := range []struct {
		o   Outcome
		bug bool
	}{
		{Pass, false}, {NoMapping, false}, {Overflow, false},
		{Diverged, true}, {Failed, true}, {Illegal, true}, {Inverted, true},
		{BatchDiverged, true}, {StaticUnsound, true}, {CacheStale, true},
	} {
		if tc.o.Bug() != tc.bug {
			t.Errorf("%s.Bug() = %v, want %v", tc.o, tc.o.Bug(), tc.bug)
		}
	}
	// The report's bugs column counts every bug outcome: a one-count
	// report renders "bugs 1" exactly when the outcome is a bug.
	cell := AllCells()[0]
	for o := Pass; o <= CacheStale; o++ {
		rep := SweepReport{Graphs: 1, Checked: 1, ByCell: map[Cell]map[Outcome]int{cell: {o: 1}}}
		if got := strings.Contains(rep.String(), "bugs 1"); got != o.Bug() {
			t.Errorf("%s: report renders bugs 1 = %v, want %v:\n%s", o, got, o.Bug(), rep.String())
		}
	}
}

// TestSweepClean is the oracle's acceptance property: a seeded sweep of
// ≥ 200 generated CDFGs across all 5 modes × 4 CM configurations finds no
// divergence and no unexpected pipeline failure. ORACLE_SWEEP_N overrides
// the graph count (CI uses it for an explicit bounded sweep step); short
// mode and the race detector trim it.
func TestSweepClean(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	if raceEnabled {
		n = 25
	}
	n = positiveEnv(t, "ORACLE_SWEEP_N", n)
	var p Pipeline
	sweepRecorder(t, &p)
	rep := p.Sweep(SweepOptions{N: n, Seed: 424200})
	t.Logf("\n%s", rep)
	for _, f := range rep.Failures {
		for _, bug := range f.Bugs() {
			t.Errorf("graph %d (seed %d) %s: %s: %v",
				f.Index, f.Seed, bug.Cell, bug.Outcome, bug.Err)
		}
	}
	counts := outcomeCounts(rep)
	if counts[Pass] == 0 {
		t.Fatal("sweep produced no passing cell at all")
	}
	if rep.Checked != n*len(AllCells()) {
		t.Fatalf("checked %d cells, want %d", rep.Checked, n*len(AllCells()))
	}
}

// sweepRecorder attaches the recorder the CI oracle smoke steps ask for
// through the environment. ORACLE_METRICS names a JSONL file the sweep's
// counters are flushed to when the test ends; CI validates that artifact
// with cgrametrics. Without it, p is left without a recorder.
func sweepRecorder(t *testing.T, p *Pipeline) {
	t.Helper()
	tf := telemetry.Flags{Metrics: os.Getenv("ORACLE_METRICS")}
	rec, err := tf.Start(os.Stderr)
	if err != nil {
		t.Fatalf("ORACLE_METRICS: %v", err)
	}
	p.Obs = rec
	t.Cleanup(func() {
		if err := tf.Finish(nil); err != nil {
			t.Errorf("flushing ORACLE_METRICS: %v", err)
		}
	})
}

// TestSweepHarderShapes drives the generator knobs into the corners the
// default tuning rarely reaches: multi-loop nests, always-diamond bodies,
// heavy fan-out reuse and dense constant chains.
func TestSweepHarderShapes(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("short/race mode: default-shape sweep only")
	}
	gen := cdfg.DefaultGenConfig()
	gen.Loops = 2
	gen.DiamondProb = 1
	gen.FanoutBias = 0.9
	gen.ConstChainProb = 0.3
	var p Pipeline
	rep := p.Sweep(SweepOptions{N: 20, Seed: 777000, Gen: gen})
	t.Logf("\n%s", rep)
	for _, f := range rep.Failures {
		for _, bug := range f.Bugs() {
			t.Errorf("graph %d (seed %d) %s: %s: %v",
				f.Index, f.Seed, bug.Cell, bug.Outcome, bug.Err)
		}
	}
}

func TestSweepDeterministic(t *testing.T) {
	var p Pipeline
	opt := SweepOptions{N: 4, Seed: 99}
	a := p.Sweep(opt)
	opt.Workers = 1
	b := p.Sweep(opt)
	if !reflect.DeepEqual(a.ByCell, b.ByCell) {
		t.Fatalf("sweep not deterministic across worker counts:\n%s\nvs\n%s", a, b)
	}
	if len(a.Failures) != len(b.Failures) {
		t.Fatalf("failure counts differ: %d vs %d", len(a.Failures), len(b.Failures))
	}
}

// corruptStores rebinds the value operand of every store context word to
// an absurd immediate — a deliberate binding fault of exactly the class a
// broken routing or operand-binding pass would introduce. Control flow is
// untouched, so the program still terminates and only memory diverges.
func corruptStores(p *asm.Program) {
	for ti := range p.Tiles {
		tc := &p.Tiles[ti]
		for si := range tc.Segments {
			for ii := range tc.Segments[si].Instrs {
				in := &tc.Segments[si].Instrs[ii]
				if in.Kind == isa.KOp && in.Op == cdfg.OpStore {
					in.Srcs[1] = isa.Const(0x5aa5a5)
				}
			}
		}
	}
}

// TestFaultInjectionShrinks injects the binding fault above, confirms the
// oracle reports a divergence with diagnostics, and shrinks the failing
// graph to a ≤ 10-node reproducer that replays from its testdata form.
func TestFaultInjectionShrinks(t *testing.T) {
	cell := Cell{Mode: ModeBasic, Config: arch.ConfigNames()[0]}
	clean := &Pipeline{}
	faulty := &Pipeline{fault: faultHooks{program: corruptStores}}

	gen := cdfg.DefaultGenConfig()
	gen.MaxBodyOps = 5
	var g *cdfg.Graph
	var mem cdfg.Memory
	var seed int64
	for s := int64(5000); s < 5050; s++ {
		cg, cmem := cdfg.Generate(rand.New(rand.NewSource(s)), gen)
		if clean.Check(cg, cmem, cell, s).Outcome != Pass {
			continue
		}
		if faulty.Check(cg, cmem, cell, s).Outcome == Diverged {
			g, mem, seed = cg, cmem, s
			break
		}
	}
	if g == nil {
		t.Fatal("no seed in [5000,5050) exposes the injected store fault")
	}

	res := faulty.Check(g, mem, cell, seed)
	var div *sim.DivergenceError
	if !errors.As(res.Err, &div) {
		t.Fatalf("faulty check error %v is not a *sim.DivergenceError", res.Err)
	}
	if div.Total == 0 || len(div.Mismatches) == 0 {
		t.Fatalf("divergence carries no mismatches: %+v", div)
	}
	if res.Cycles == 0 {
		t.Fatal("divergence carries no cycle count")
	}

	fails := func(cg *cdfg.Graph, cmem cdfg.Memory) bool {
		return faulty.Check(cg, cmem, cell, seed).Outcome == Diverged
	}
	small := Shrink(g, mem, fails, 0)
	t.Logf("shrunk %d nodes -> %d nodes", g.NumNodes(), small.NumNodes())
	if small.NumNodes() > 10 {
		t.Fatalf("shrinker left %d nodes, want <= 10:\n%v", small.NumNodes(), small)
	}
	if !fails(small, mem) {
		t.Fatal("shrunk graph no longer exhibits the fault")
	}

	// The reproducer must survive its own file format and still diverge.
	final := faulty.Check(small, mem, cell, seed)
	data, err := FormatRepro(small, mem, seed, nil, final)
	if err != nil {
		t.Fatalf("FormatRepro: %v", err)
	}
	rg, rmem, err := ParseRepro(data)
	if err != nil {
		t.Fatalf("ParseRepro: %v\n%s", err, data)
	}
	if faulty.Check(rg, rmem, cell, seed).Outcome != Diverged {
		t.Fatal("parsed reproducer no longer diverges under the fault")
	}
	// And it must pass cleanly without the fault: that is what makes it a
	// permanent regression guard (see TestReproReplay).
	if got := clean.Check(rg, rmem, cell, seed).Outcome; got != Pass {
		t.Fatalf("parsed reproducer is %s under the clean pipeline, want pass", got)
	}

	if os.Getenv("ORACLE_WRITE_REPRO") != "" {
		path, err := WriteRepro(filepath.Join("testdata", "repro"), "store-binding-fault",
			small, mem, seed, nil, final)
		if err != nil {
			t.Fatalf("WriteRepro: %v", err)
		}
		t.Logf("wrote %s", path)
	}
}

// corruptWriteback retargets the first writeback in the mapping to a
// register beyond the 8-entry RRF. The mapping stays structurally valid
// (core.Validate and the assembler accept it; the encoding has 4 register
// bits) but is statically illegal — the class of fault only the verifier
// catches before hardware would silently truncate or trap.
func corruptWriteback(m *core.Mapping) {
	for _, bm := range m.Blocks {
		for t := range bm.Tiles {
			for c := range bm.Tiles[t] {
				s := &bm.Tiles[t][c]
				if s.Kind != core.SlotEmpty && s.WB {
					s.WReg = 15
					return
				}
			}
		}
	}
}

// TestIllegalClassification plants a mapping-level fault upstream of the
// static verifier and checks the oracle classifies it as Illegal — a bug
// outcome the shrinker minimizes like a divergence.
func TestIllegalClassification(t *testing.T) {
	cell := Cell{Mode: ModeBasic, Config: arch.ConfigNames()[0]}
	clean := &Pipeline{}
	faulty := &Pipeline{fault: faultHooks{mapping: corruptWriteback}}

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
		t.Fatalf("Illegal must classify as a bug, got %s", res.Outcome)
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "static verification") {
		t.Fatalf("Illegal result should carry the verifier error, got %v", res.Err)
	}

	fails := func(cg *cdfg.Graph, cmem cdfg.Memory) bool {
		return faulty.Check(cg, cmem, cell, seed).Outcome == Illegal
	}
	small := Shrink(g, mem, fails, 0)
	t.Logf("shrunk %d nodes -> %d nodes", g.NumNodes(), small.NumNodes())
	if !fails(small, mem) {
		t.Fatal("shrunk graph no longer verifies as Illegal")
	}
	if got := clean.Check(small, mem, cell, seed).Outcome; got != Pass {
		t.Fatalf("shrunk graph is %s under the clean pipeline, want pass", got)
	}
}

// TestReproReplay replays every checked-in reproducer on every cell:
// graphs that once exposed a bug keep guarding the mapper in plain
// `go test`. A reproducer that names a backend pair replays through a
// cross-backend pipeline over that pair — that is the bug it recorded.
func TestReproReplay(t *testing.T) {
	paths, err := ReproPaths(filepath.Join("testdata", "repro"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no reproducers under testdata/repro")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			g, mem, pair, err := LoadReproMeta(path)
			if err != nil {
				t.Fatalf("LoadReproMeta: %v", err)
			}
			// The replay guards the disagreement, not search depth: a
			// bounded exact search keeps the whole-matrix replay fast.
			p := Pipeline{Backends: pair, ExactNodeBudget: 3000}
			for _, r := range p.CheckAll(g, mem, nil, 1) {
				if r.Outcome.Bug() {
					t.Errorf("%s: %s: %v", r.Cell, r.Outcome, r.Err)
				}
			}
		})
	}
}

func TestReproParseErrors(t *testing.T) {
	for _, tc := range []struct{ name, data string }{
		{"empty", ""},
		{"no mem", "cdfg \"x\"\nend\n"},
		{"bad mem len", "mem x\n"},
		{"memval out of range", "mem 2\nmemval 7 1\n"},
		{"memval before mem", "memval 0 1\nmem 2\n"},
		{"garbage graph", "mem 2\nwat 1 2\n"},
		{"backends missing subject", "backends heuristic\nmem 2\n"},
		{"backends unknown name", "backends heuristic wat\nmem 2\n"},
	} {
		if _, _, err := ParseRepro([]byte(tc.data)); err == nil {
			t.Errorf("%s: ParseRepro succeeded", tc.name)
		}
	}
}

func TestCheckReportsNoMappingCleanly(t *testing.T) {
	// A graph needing more parallel live values than the 4×4 grid can hold
	// in one block may fail to map; whatever happens must never be a bug
	// outcome on any cell. Use an adversarial generator tuning.
	gen := cdfg.DefaultGenConfig()
	gen.MaxBodyOps = 40
	gen.MinBodyOps = 40
	gen.FanoutBias = 0
	var p Pipeline
	for s := int64(0); s < 3; s++ {
		g, mem := cdfg.Generate(rand.New(rand.NewSource(s)), gen)
		for _, r := range p.CheckAll(g, mem, nil, s) {
			if r.Outcome.Bug() {
				t.Errorf("seed %d %s: %s: %v", s, r.Cell, r.Outcome, r.Err)
			}
		}
	}
}

// outcomeCounts sums a sweep report's outcomes over the whole matrix.
func outcomeCounts(r *SweepReport) map[Outcome]int {
	total := map[Outcome]int{}
	for _, m := range r.ByCell {
		for o, n := range m {
			total[o] += n
		}
	}
	return total
}
