package static_test

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/static"
	"repro/internal/verify"
)

// buildProg maps and assembles a hand-crafted graph on HOM64 with the
// basic flow — the cheapest way to obtain a real, verifier-clean
// bitstream with the edge-case shape under test.
func buildProg(t *testing.T, name string, build func(b *cdfg.Builder)) *asm.Program {
	t.Helper()
	b := cdfg.NewBuilder(name)
	build(b)
	g := b.Finish()
	m, err := core.Map(g, arch.MustGrid(arch.HOM64), oracle.ModeBasic.Options())
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	prog, err := asm.Assemble(m)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if res := verify.Run(&verify.Context{Mapping: m, Program: prog}); !res.OK() {
		t.Fatalf("crafted program not verifier-clean:\n%s", res.Report())
	}
	return prog
}

// analyzeStrip runs the analyzer and the rewriter, re-verifies the
// stripped program and proves it behavior-identical on the given
// memory, then returns the rewrite report.
func analyzeStrip(t *testing.T, prog *asm.Program, memWords int) (*asm.Program, *static.StripReport) {
	t.Helper()
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
	if rep.WordsAfter > rep.WordsBefore {
		t.Fatalf("strip grew the program: %d -> %d", rep.WordsBefore, rep.WordsAfter)
	}

	s1, err := sim.New(prog)
	if err != nil {
		t.Fatalf("sim original: %v", err)
	}
	s2, err := sim.New(stripped)
	if err != nil {
		t.Fatalf("sim stripped: %v", err)
	}
	mem1, mem2 := make(cdfg.Memory, memWords), make(cdfg.Memory, memWords)
	for i := range mem1 {
		mem1[i] = int32(i*7 - 3)
		mem2[i] = mem1[i]
	}
	res1, err := s1.Run(mem1)
	if err != nil {
		t.Fatalf("run original: %v", err)
	}
	res2, err := s2.Run(mem2)
	if err != nil {
		t.Fatalf("run stripped: %v", err)
	}
	if res2.Cycles != res1.Cycles-rep.CycleDelta(res1.BlockExecs) ||
		res1.StallCycles != res2.StallCycles {
		t.Fatalf("timing diverged: %d/%d vs %d/%d (delta %d)",
			res2.Cycles, res2.StallCycles, res1.Cycles, res1.StallCycles,
			rep.CycleDelta(res1.BlockExecs))
	}
	if !reflect.DeepEqual(res1.BlockExecs, res2.BlockExecs) {
		t.Fatalf("block trace diverged: %v vs %v", res2.BlockExecs, res1.BlockExecs)
	}
	if !reflect.DeepEqual(mem1, mem2) {
		t.Fatal("final memory diverged")
	}
	return stripped, rep
}

// stripAgain re-analyzes a stripped program and demands the second
// rewrite change nothing: strip is a fixpoint.
func stripAgain(t *testing.T, stripped *asm.Program) {
	t.Helper()
	a, err := static.Analyze(stripped)
	if err != nil {
		t.Fatalf("re-analyze: %v", err)
	}
	again, rep, err := static.Strip(stripped, a)
	if err != nil {
		t.Fatalf("re-strip: %v", err)
	}
	if rep.WordsSaved() != 0 || rep.DeadOps != 0 || rep.DeadMoves != 0 ||
		rep.EmptiedBlocks != 0 || rep.StubbedBlocks != 0 || len(rep.Elided) != 0 {
		t.Fatalf("strip is not a fixpoint: second pass reports %s", rep)
	}
	if again.TotalWords() != stripped.TotalWords() {
		t.Fatalf("second strip changed words: %d -> %d", stripped.TotalWords(), again.TotalWords())
	}
}

// TestStripUnreachableArm covers the configuration-dead straight-line
// arm: a never-taken branch guards a block full of real ops; strip must
// empty it to a zero-length schedule and keep behavior identical.
func TestStripUnreachableArm(t *testing.T) {
	prog := buildProg(t, "deadarm", func(b *cdfg.Builder) {
		entry := b.Block("entry")
		entry.SetSym("acc", entry.Const(5))
		entry.BranchIf(entry.Const(0), "arm", "live")

		arm := b.Block("arm") // never taken
		v := arm.MulC(arm.Sym("acc"), 3)
		arm.Store(arm.Const(40), v)
		arm.SetSym("acc", v)
		arm.Jump("live")

		live := b.Block("live")
		live.Store(live.Const(41), live.AddC(live.Sym("acc"), 1))
	})
	a, err := static.Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if a.UnreachableBlocks() != 1 {
		t.Fatalf("UnreachableBlocks = %d, want 1", a.UnreachableBlocks())
	}
	stripped, rep := analyzeStrip(t, prog, 64)
	if rep.EmptiedBlocks != 1 || rep.StubbedBlocks != 0 {
		t.Fatalf("emptied %d / stubbed %d blocks, want 1/0", rep.EmptiedBlocks, rep.StubbedBlocks)
	}
	if rep.WordsSaved() == 0 {
		t.Fatal("emptying a block with real ops saved no words")
	}
	stripAgain(t, stripped)
}

// TestStripUnreachableLoop covers the branching-unreachable case: a
// dead spin loop must shrink to the one-cycle branch stub the branch
// verifier pass demands, never to nothing.
func TestStripUnreachableLoop(t *testing.T) {
	prog := buildProg(t, "deadloop", func(b *cdfg.Builder) {
		entry := b.Block("entry")
		entry.SetSym("i", entry.Const(0))
		entry.BranchIf(entry.Const(1), "live", "spin")

		spin := b.Block("spin") // unreachable self-loop
		i2 := spin.AddC(spin.Sym("i"), 1)
		spin.SetSym("i", i2)
		spin.BranchIf(spin.Lt(i2, spin.Const(9)), "spin", "live")

		live := b.Block("live")
		live.Store(live.Const(10), live.AddC(live.Sym("i"), 2))
	})
	stripped, rep := analyzeStrip(t, prog, 16)
	if rep.StubbedBlocks != 1 {
		t.Fatalf("stubbed %d blocks, want 1", rep.StubbedBlocks)
	}
	if rep.WordsSaved() == 0 {
		t.Fatal("stubbing a dead loop saved no words")
	}
	stripAgain(t, stripped)
}

// TestStripDeadOps covers faint dead code inside a reachable block: an
// op chain nothing observable consumes folds into idle cycles.
func TestStripDeadOps(t *testing.T) {
	prog := buildProg(t, "deadops", func(b *cdfg.Builder) {
		entry := b.Block("entry")
		x := entry.Load(entry.Const(0))
		entry.Store(entry.Const(1), entry.AddC(x, 1))
		// A faint chain: feeds only itself, never memory or control.
		dead := entry.MulC(x, 3)
		entry.Sub(dead, x)
	})
	a, err := static.Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	ops, _ := a.DeadCells()
	if ops == 0 {
		t.Fatal("no dead ops found in a program with a faint chain")
	}
	stripped, rep := analyzeStrip(t, prog, 8)
	if rep.DeadOps == 0 {
		t.Fatalf("report counts no dead ops: %s", rep)
	}
	stripAgain(t, stripped)
}

// TestStripElidesIdleHaltingBlock covers the halting-block elision: a
// tail block whose every op is dead becomes fully idle and its schedule
// is removed, saving both words and (reported, exact) cycles.
func TestStripElidesIdleHaltingBlock(t *testing.T) {
	prog := buildProg(t, "idletail", func(b *cdfg.Builder) {
		entry := b.Block("entry")
		x := entry.Load(entry.Const(0))
		entry.Store(entry.Const(1), x)
		entry.SetSym("x", x)
		entry.Jump("tail")

		tail := b.Block("tail") // halting; all values faint
		tail.MulC(tail.Sym("x"), 5)
	})
	stripped, rep := analyzeStrip(t, prog, 8)
	if len(rep.Elided) != 1 {
		t.Fatalf("elided %d blocks, want 1: %s", len(rep.Elided), rep)
	}
	if rep.Elided[0].Cycles == 0 {
		t.Fatal("elided block reports zero cycles")
	}
	if rep.WordsSaved() == 0 {
		t.Fatal("eliding an idle halting block saved no words")
	}
	for _, e := range rep.Elided {
		if stripped.BlockLens[e.BB] != 0 {
			t.Fatalf("elided block %d still has length %d", e.BB, stripped.BlockLens[e.BB])
		}
	}
	stripAgain(t, stripped)
}

// TestStripBranchOnlyBlock covers a reachable block that is nothing but
// its branch: already minimal, strip must keep it bit-identical.
func TestStripBranchOnlyBlock(t *testing.T) {
	prog := buildProg(t, "bronly", func(b *cdfg.Builder) {
		entry := b.Block("entry")
		c := entry.Load(entry.Const(0))
		entry.SetSym("c", c)
		entry.Jump("chk")

		chk := b.Block("chk")
		chk.BranchIf(chk.Sym("c"), "a", "z")

		a := b.Block("a")
		a.Store(a.Const(1), a.Const(7))
		a.Jump("z")

		b.Block("z")
	})
	_, rep := analyzeStrip(t, prog, 8)
	if rep.DeadOps != 0 || rep.DeadMoves != 0 {
		t.Fatalf("branch-only program reported dead cells: %s", rep)
	}
}

// TestStripAlreadyMinimal: a program with no dead context must come
// back word-identical, and strip must be a fixpoint on it.
func TestStripAlreadyMinimal(t *testing.T) {
	prog := buildProg(t, "minimal", func(b *cdfg.Builder) {
		entry := b.Block("entry")
		entry.SetSym("n", entry.Const(0))
		entry.Jump("loop")

		loop := b.Block("loop")
		n := loop.Sym("n")
		loop.Store(loop.AddC(n, 8), loop.Load(n))
		n2 := loop.AddC(n, 1)
		loop.SetSym("n", n2)
		loop.BranchIf(loop.Lt(n2, loop.Const(4)), "loop", "exit")

		b.Block("exit")
	})
	stripped, rep := analyzeStrip(t, prog, 16)
	if rep.WordsSaved() != 0 {
		t.Fatalf("minimal program lost %d words: %s", rep.WordsSaved(), rep)
	}
	if stripped.TotalWords() != prog.TotalWords() {
		t.Fatalf("word count changed: %d -> %d", prog.TotalWords(), stripped.TotalWords())
	}
	stripAgain(t, stripped)
}

// TestStripRejectsForeignAnalysis: the rewriter refuses an analysis
// computed for a different program.
func TestStripRejectsForeignAnalysis(t *testing.T) {
	p1 := buildProg(t, "one", func(b *cdfg.Builder) {
		e := b.Block("entry")
		e.Store(e.Const(0), e.Const(1))
	})
	p2 := buildProg(t, "two", func(b *cdfg.Builder) {
		e := b.Block("entry")
		e.Store(e.Const(1), e.Const(2))
	})
	a, err := static.Analyze(p1)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if _, _, err := static.Strip(p2, a); err == nil {
		t.Fatal("Strip accepted an analysis of a different program")
	}
}
