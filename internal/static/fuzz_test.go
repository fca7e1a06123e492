package static_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/static"
	"repro/internal/verify"
)

// FuzzStaticVsSim fuzzes the analyzer's soundness contract: for any
// graph that maps to a verifier-clean bitstream, the static claims —
// reachability, exact activity tables, cycle/stall/energy bounds — must
// hold for a simulated run, and the stripped rewrite must re-verify
// clean and behave identically (modulo the reported elision cycles).
// Seeds reuse the oracle's generation path plus every minimized oracle
// reproducer; the checked-in corpus under testdata/fuzz keeps the
// interesting shapes replaying in plain `go test`. Run
//
//	go test -fuzz=FuzzStaticVsSim ./internal/static
//
// to let the mutator search for unsoundness.
func FuzzStaticVsSim(f *testing.F) {
	addGraph := func(g *cdfg.Graph, modeIdx, cfgIdx int64) {
		data, err := g.MarshalText()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, modeIdx, cfgIdx)
	}
	for s := int64(0); s < 3; s++ {
		g, _ := cdfg.Generate(rand.New(rand.NewSource(s)), cdfg.DefaultGenConfig())
		addGraph(g, s, s+1)
	}
	repros, err := filepath.Glob(filepath.Join("..", "oracle", "testdata", "repro", "*.repro"))
	if err != nil {
		f.Fatal(err)
	}
	for i, path := range repros {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		g, _, err := oracle.ParseRepro(data)
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		addGraph(g, int64(i), int64(i))
	}

	cells := oracle.AllCells()
	pr := power.Default()
	f.Fuzz(func(t *testing.T, data []byte, modeIdx, cfgIdx int64) {
		if len(data) > 1<<16 {
			return
		}
		g, err := cdfg.UnmarshalText(data)
		if err != nil {
			return // not a well-formed graph; nothing to analyze
		}
		if g.NumNodes() > 120 || len(g.Blocks) > 16 {
			return // keep the per-input mapper run bounded
		}
		mem := make(cdfg.Memory, 64)
		if _, err := cdfg.Interp(g, mem.Clone()); err != nil {
			return // graph traps; the oracle pipeline would reject it too
		}
		idx := (modeIdx*4 + cfgIdx) % int64(len(cells))
		if idx < 0 {
			idx += int64(len(cells))
		}
		cell := cells[idx]

		m, err := core.Map(g, arch.MustGrid(cell.Config), cell.Mode.Options())
		if err != nil {
			return // no mapping: nothing to analyze
		}
		if ok, _ := m.FitsMemory(); !ok {
			return
		}
		prog, err := asm.Assemble(m)
		if err != nil {
			return
		}
		if res := verify.Run(&verify.Context{Mapping: m, Program: prog}); !res.OK() {
			return // the analyzer's contract covers verifier-clean programs
		}

		a, err := static.Analyze(prog)
		if err != nil {
			t.Fatalf("%s: analyze rejected a verifier-clean program: %v", cell, err)
		}
		s, err := sim.New(prog)
		if err != nil {
			return
		}
		mem1 := mem.Clone()
		res1, err := s.Run(mem1)
		if err != nil {
			return // runtime trap (deadline, lane fault): no claims to check
		}
		if cerr := a.CheckRun(res1); cerr != nil {
			gtext, _ := g.MarshalText()
			t.Fatalf("%s: static claims unsound: %v\n%s", cell, cerr, gtext)
		}
		lower, upper, err := a.EnergyBounds(pr, res1.BlockExecs)
		if err != nil {
			t.Fatalf("%s: energy bounds: %v", cell, err)
		}
		actual := pr.ActivityEnergy(prog.Grid, res1.Activity())
		if actual.Total() < lower.Total() || actual.Total() > upper.Total() {
			t.Fatalf("%s: energy %.3f outside static bounds [%.3f, %.3f]",
				cell, actual.Total(), lower.Total(), upper.Total())
		}

		stripped, rep, err := static.Strip(prog, a)
		if err != nil {
			t.Fatalf("%s: strip: %v", cell, err)
		}
		if res := verify.CheckProgram(stripped); !res.OK() {
			gtext, _ := g.MarshalText()
			t.Fatalf("%s: stripped program not verifier-clean:\n%s\n%s", cell, res.Report(), gtext)
		}
		s2, err := sim.New(stripped)
		if err != nil {
			t.Fatalf("%s: sim stripped: %v", cell, err)
		}
		mem2 := mem.Clone()
		res2, err := s2.Run(mem2)
		if err != nil {
			t.Fatalf("%s: stripped run trapped: %v", cell, err)
		}
		if res2.Cycles != res1.Cycles-rep.CycleDelta(res1.BlockExecs) ||
			res2.StallCycles != res1.StallCycles ||
			!reflect.DeepEqual(res2.BlockExecs, res1.BlockExecs) ||
			!reflect.DeepEqual(mem2, mem1) {
			gtext, _ := g.MarshalText()
			t.Fatalf("%s: strip changed behavior (cycles %d->%d, delta %d)\n%s",
				cell, res1.Cycles, res2.Cycles, rep.CycleDelta(res1.BlockExecs), gtext)
		}
	})
}
