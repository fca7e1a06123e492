package cdfg_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cdfg"
	"repro/internal/kernels"
	"repro/internal/oracle"
)

// errText renders an error for comparison; nil reads as "".
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkAgainstReference interprets g on copies of mem with Interp and the
// map-based reference and fails unless the final memories, the error
// texts and every Trace field agree.
func checkAgainstReference(t *testing.T, label string, g *cdfg.Graph, mem cdfg.Memory) {
	t.Helper()
	got, want := mem.Clone(), mem.Clone()
	gtr, gerr := cdfg.Interp(g, got)
	wtr, werr := cdfg.RefInterp(g, want)
	if errText(gerr) != errText(werr) {
		t.Fatalf("%s: error %q, reference %q", label, errText(gerr), errText(werr))
	}
	if !reflect.DeepEqual(gtr, wtr) {
		t.Fatalf("%s: trace\n%+v\nreference\n%+v", label, gtr, wtr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: final memory differs from the reference", label)
	}
}

// reproGraphs returns the oracle's minimized reproducers.
func reproGraphs(tb testing.TB) map[string]graphCase {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "oracle", "testdata", "repro", "*.repro"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no reproducers found (%v)", err)
	}
	out := map[string]graphCase{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		g, mem, err := oracle.ParseRepro(data)
		if err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
		out[filepath.Base(path)] = graphCase{g, mem}
	}
	return out
}

// graphCase is a graph with the memory it runs on.
type graphCase struct {
	g   *cdfg.Graph
	mem cdfg.Memory
}

// countLoop stores i at mem[i] for i in [0, n): with a memory shorter than
// n the store faults part-way through the loop.
func countLoop(n int32) *cdfg.Graph {
	b := cdfg.NewBuilder(fmt.Sprintf("count%d", n))
	e := b.Block("entry")
	e.SetSym("i", e.Const(0))
	e.Jump("loop")
	l := b.Block("loop")
	i := l.Sym("i")
	l.Store(i, l.Mul(i, i))
	i2 := l.AddC(i, 1)
	l.SetSym("i", i2)
	l.BranchIf(l.Lt(i2, l.Const(n)), "loop", "exit")
	b.Block("exit")
	return b.Finish()
}

// faultingGraphs are graphs Interp must reject or stop on, each paired
// with a memory.
func faultingGraphs() map[string]graphCase {
	out := map[string]graphCase{}

	// A load past the end, reached after a few iterations.
	b := cdfg.NewBuilder("oobload")
	e := b.Block("entry")
	e.SetSym("i", e.Const(0))
	e.SetSym("acc", e.Const(0))
	e.Jump("loop")
	l := b.Block("loop")
	i := l.Sym("i")
	acc := l.Add(l.Sym("acc"), l.Load(i))
	l.SetSym("acc", acc)
	i2 := l.AddC(i, 1)
	l.SetSym("i", i2)
	l.BranchIf(l.Lt(i2, l.Const(100)), "loop", "exit")
	x := b.Block("exit")
	x.Store(x.Const(0), x.Sym("acc"))
	out["load out of range"] = graphCase{b.Finish(), cdfg.Memory{1, 2, 3, 4, 5}}

	// A store past the end in the sixth iteration, and one below zero.
	out["store out of range"] = graphCase{countLoop(50), make(cdfg.Memory, 6)}
	b = cdfg.NewBuilder("negstore")
	e = b.Block("entry")
	e.Store(e.Const(0), e.Const(7))
	e.Store(e.Const(-3), e.Const(1))
	out["store below zero"] = graphCase{b.Finish(), make(cdfg.Memory, 2)}

	// "y" and "b" are written on the taken path only, which reaches the
	// join first; the other path reaches it through a later block, so
	// the analysis must shrink the join's set once it sees that path.
	// The slots run y, b, so the missing list comes out sorted only if
	// it is sorted.
	b = cdfg.NewBuilder("onepath")
	e = b.Block("entry")
	e.BranchIf(e.Load(e.Const(0)), "then", "else")
	th := b.Block("then")
	th.SetSym("y", th.Const(1))
	th.Jump("mid")
	b.Block("else").Jump("late")
	mid := b.Block("mid")
	mid.SetSym("b", mid.Const(2))
	mid.Jump("join")
	j := b.Block("join")
	j.Store(j.Const(0), j.Add(j.Sym("y"), j.Sym("b")))
	b.Block("late").Jump("join")
	out["symbols undefined on one path"] = graphCase{b.Graph(), cdfg.Memory{1}}

	// Opcodes EvalOp has no semantics for. The verifier rejects both
	// before anything runs, so EvalOp's own error is never reached.
	for _, op := range []cdfg.Opcode{cdfg.OpMove, cdfg.Opcode(200)} {
		b = cdfg.NewBuilder("evalop")
		e = b.Block("entry")
		e.Store(e.Const(0), e.OpN(cdfg.OpNeg, e.Const(3)))
		g := b.Graph()
		for _, n := range g.Blocks[0].Nodes {
			if n.Op == cdfg.OpNeg {
				n.Op = op
			}
		}
		out[fmt.Sprintf("no ALU semantics (%s)", op)] = graphCase{g, make(cdfg.Memory, 1)}
	}

	// A loop that never ends stops at InterpLimit.
	b = cdfg.NewBuilder("spin")
	b.Block("entry").Jump("entry")
	out["block limit"] = graphCase{b.Graph(), nil}
	return out
}

// TestInterpMatchesReference pins the lowered interpreter to the
// map-based reference it replaced: final memory, error text and every
// Trace field.
func TestInterpMatchesReference(t *testing.T) {
	for _, k := range kernels.All() {
		checkAgainstReference(t, k.Name, k.Build(), k.Init())
	}
	for seed := int64(0); seed < 300; seed++ {
		g, mem := cdfg.Generate(rand.New(rand.NewSource(seed)), cdfg.DefaultGenConfig())
		checkAgainstReference(t, fmt.Sprintf("Generate seed %d", seed), g, mem)
	}
	for name, c := range reproGraphs(t) {
		checkAgainstReference(t, name, c.g, c.mem)
	}
	for name, c := range faultingGraphs() {
		t.Run(name, func(t *testing.T) {
			if _, err := cdfg.Interp(c.g, c.mem.Clone()); err == nil {
				t.Fatal("Interp did not fail")
			}
			checkAgainstReference(t, name, c.g, c.mem)
		})
	}
}

// TestInterpAllocsFlat checks that Interp allocates per graph, not per
// executed block or node.
func TestInterpAllocsFlat(t *testing.T) {
	allocs := func(n int32) float64 {
		g := countLoop(n)
		mem := make(cdfg.Memory, n)
		return testing.AllocsPerRun(20, func() {
			if _, err := cdfg.Interp(g, mem); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(10), allocs(1000); short != long {
		t.Fatalf("allocations per Interp call grow with the trip count: %v at 10, %v at 1000", short, long)
	}
}

// fuzzMemory decodes little-endian words.
func fuzzMemory(b []byte) cdfg.Memory {
	mem := make(cdfg.Memory, len(b)/4)
	for i := range mem {
		mem[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return mem
}

func memoryBytes(mem cdfg.Memory) []byte {
	b := make([]byte, 4*len(mem))
	for i, v := range mem {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return b
}

// fuzzInterpBudget bounds the basic blocks one fuzz input interprets: a
// graph that spins to InterpLimit would hold the fuzzer for seconds per
// input.
const fuzzInterpBudget = 100_000

// TestInterpBudget checks that InterpBudget stops a spinning graph at its
// budget, with Interp's error text and trace shape, and runs a graph
// that ends within the budget exactly like Interp.
func TestInterpBudget(t *testing.T) {
	b := cdfg.NewBuilder("spin")
	b.Block("entry").Jump("entry")
	tr, err := cdfg.InterpBudget(b.Graph(), nil, 1000)
	if want := `cdfg: interpretation of "spin" exceeded 1000 blocks`; errText(err) != want {
		t.Fatalf("error %q, want %q", errText(err), want)
	}
	if tr.Blocks != 1000 {
		t.Fatalf("stopped after %d blocks, want 1000", tr.Blocks)
	}
	g := countLoop(50)
	want, got := make(cdfg.Memory, 50), make(cdfg.Memory, 50)
	wantTr, err := cdfg.Interp(g, want)
	if err != nil {
		t.Fatal(err)
	}
	gotTr, err := cdfg.InterpBudget(g, got, wantTr.Blocks)
	if err != nil {
		t.Fatalf("budget of exactly the blocks run: %v", err)
	}
	if !reflect.DeepEqual(gotTr, wantTr) || !reflect.DeepEqual(got, want) {
		t.Fatal("InterpBudget within its budget differs from Interp")
	}
	if _, err := cdfg.InterpBudget(g, make(cdfg.Memory, 50), wantTr.Blocks-1); err == nil {
		t.Fatal("a budget one block short did not stop the run")
	}
}

// FuzzInterp fuzzes the CDFG text parser, the verifier and the
// interpreter with graph text plus memory words. Parsing must never
// panic, Verify must agree with the reference verifier's error text, and
// a graph that verifies must interpret like the reference. Run
//
//	go test -run '^$' -fuzz '^FuzzInterp$' ./internal/cdfg
func FuzzInterp(f *testing.F) {
	add := func(g *cdfg.Graph, mem cdfg.Memory) {
		data, err := g.MarshalText()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, memoryBytes(mem))
	}
	for _, k := range kernels.All() {
		add(k.Build(), k.Init())
	}
	for seed := int64(0); seed < 8; seed++ {
		add(cdfg.Generate(rand.New(rand.NewSource(seed)), cdfg.DefaultGenConfig()))
	}
	for _, c := range reproGraphs(f) {
		add(c.g, c.mem)
	}

	limit := fmt.Sprintf("exceeded %d blocks", fuzzInterpBudget)
	f.Fuzz(func(t *testing.T, data, words []byte) {
		if len(data) > 1<<16 || len(words) > 1<<12 {
			return
		}
		g, perr := cdfg.ParseText(data)
		_, uerr := cdfg.UnmarshalText(data)
		if perr != nil {
			if errText(uerr) != errText(perr) {
				t.Fatalf("UnmarshalText error %q, parse error %q", errText(uerr), errText(perr))
			}
			return
		}
		if g.NumNodes() > 150 || len(g.Blocks) > 24 {
			return // keep each input's interpretation short
		}
		verr, rerr := cdfg.Verify(g), cdfg.RefVerify(g)
		if errText(verr) != errText(rerr) {
			t.Fatalf("Verify error %q, reference %q\n%s", errText(verr), errText(rerr), data)
		}
		if errText(uerr) != errText(verr) {
			t.Fatalf("UnmarshalText error %q, Verify error %q", errText(uerr), errText(verr))
		}
		if verr != nil {
			return
		}
		mem := fuzzMemory(words)
		if _, err := cdfg.InterpBudget(g, mem.Clone(), fuzzInterpBudget); err != nil && strings.HasSuffix(err.Error(), limit) {
			want := fmt.Sprintf("cdfg: interpretation of %q %s", g.Name, limit)
			if err.Error() != want {
				t.Fatalf("error %q, want %q", err, want)
			}
			return // the reference would take seconds to reach InterpLimit
		}
		checkAgainstReference(t, "fuzz input", g, mem)
	})
}

// BenchmarkInterp times one interpretation of each kernel with Interp and
// with the map-based reference.
func BenchmarkInterp(b *testing.B) {
	for _, k := range kernels.All() {
		g, init := k.Build(), k.Init()
		for _, impl := range []struct {
			name string
			run  func(*cdfg.Graph, cdfg.Memory) (*cdfg.Trace, error)
		}{{"lowered", cdfg.Interp}, {"reference", cdfg.RefInterp}} {
			b.Run(k.Name+"/"+impl.name, func(b *testing.B) {
				mem := init.Clone()
				b.ReportAllocs()
				for range b.N {
					copy(mem, init)
					if _, err := impl.run(g, mem); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
