package cdfg

import (
	"strings"
	"testing"
)

// good returns a small valid graph for mutation tests.
func good() *Graph {
	b := NewBuilder("good")
	e := b.Block("entry")
	e.SetSym("i", e.Const(0))
	e.Jump("loop")
	l := b.Block("loop")
	i := l.Sym("i")
	l.Store(i, l.AddC(i, 1))
	i2 := l.AddC(i, 1)
	l.SetSym("i", i2)
	l.BranchIf(l.Lt(i2, l.Const(4)), "loop", "exit")
	b.Block("exit")
	return b.Finish()
}

func wantVerifyError(t *testing.T, g *Graph, frag string) {
	t.Helper()
	err := Verify(g)
	if err == nil {
		t.Fatalf("Verify should fail (want %q)", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("Verify error %q does not mention %q", err, frag)
	}
}

func TestVerifyGood(t *testing.T) {
	if err := Verify(good()); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyStructuralErrors(t *testing.T) {
	t.Run("no blocks", func(t *testing.T) {
		wantVerifyError(t, &Graph{Name: "x"}, "no blocks")
	})
	t.Run("entry out of range", func(t *testing.T) {
		g := good()
		g.Entry = 99
		wantVerifyError(t, g, "entry")
	})
	t.Run("duplicate names", func(t *testing.T) {
		g := good()
		g.Blocks[1].Name = g.Blocks[0].Name
		wantVerifyError(t, g, "duplicate block name")
	})
	t.Run("arg not earlier", func(t *testing.T) {
		g := good()
		l := g.Blocks[1]
		for _, n := range l.Nodes {
			if len(n.Args) > 0 {
				n.Args[0] = n.ID // self-reference
				break
			}
		}
		wantVerifyError(t, g, "not an earlier node")
	})
	t.Run("arity mismatch", func(t *testing.T) {
		g := good()
		for _, n := range g.Blocks[1].Nodes {
			if n.Op == OpAdd {
				n.Args = n.Args[:1]
				break
			}
		}
		wantVerifyError(t, g, "takes 2 args")
	})
	t.Run("move reserved", func(t *testing.T) {
		g := good()
		for _, n := range g.Blocks[1].Nodes {
			if n.Op == OpAdd {
				n.Op = OpMove
				n.Args = n.Args[:1]
				break
			}
		}
		wantVerifyError(t, g, "reserved for the mapper")
	})
	t.Run("branch successor count", func(t *testing.T) {
		g := good()
		g.Blocks[1].Succs = g.Blocks[1].Succs[:1]
		wantVerifyError(t, g, "needs 2 successors")
	})
	t.Run("valueless arg", func(t *testing.T) {
		g := good()
		l := g.Blocks[1]
		var store NodeID = None
		for _, n := range l.Nodes {
			if n.Op == OpStore {
				store = n.ID
			}
		}
		for _, n := range l.Nodes {
			if n.ID > store && len(n.Args) > 0 {
				n.Args[0] = store
				break
			}
		}
		wantVerifyError(t, g, "produces no value")
	})
	t.Run("liveout out of range", func(t *testing.T) {
		g := good()
		g.Blocks[1].LiveOut["i"] = 999
		wantVerifyError(t, g, "out of range")
	})
}

func TestVerifyPathSensitiveSymbols(t *testing.T) {
	// Symbol defined on one path only: entry branches to a/b; only a
	// defines s; join reads s.
	b := NewBuilder("paths")
	e := b.Block("entry")
	e.BranchIf(e.Const(1), "a", "join")
	a := b.Block("a")
	a.SetSym("s", a.Const(1))
	a.Jump("join")
	j := b.Block("join")
	j.Store(j.Const(0), j.Sym("s"))
	wantVerifyError(t, b.Graph(), "possibly-undefined")

	// Defined on both paths: fine.
	b2 := NewBuilder("both")
	e2 := b2.Block("entry")
	e2.BranchIf(e2.Const(1), "a", "b")
	a2 := b2.Block("a")
	a2.SetSym("s", a2.Const(1))
	a2.Jump("join")
	bb := b2.Block("b")
	bb.SetSym("s", bb.Const(2))
	bb.Jump("join")
	j2 := b2.Block("join")
	j2.Store(j2.Const(0), j2.Sym("s"))
	if err := Verify(b2.Graph()); err != nil {
		t.Fatalf("both-paths define should verify: %v", err)
	}
}

func TestVerifyUnreachableBlockAllowed(t *testing.T) {
	b := NewBuilder("unreach")
	e := b.Block("entry")
	e.Store(e.Const(0), e.Const(1))
	dead := b.Block("dead")
	dead.Store(dead.Const(0), dead.Sym("never")) // unreachable: not checked
	if err := Verify(b.Graph()); err != nil {
		t.Fatalf("unreachable blocks should be allowed: %v", err)
	}
}

// TestVerifyFirstLiveOutViolation gives one block several live-outs,
// two of them violating, and requires every Verify to report the
// violation of the alphabetically first symbol, whatever the map's
// iteration order.
func TestVerifyFirstLiveOutViolation(t *testing.T) {
	g := good()
	l := g.Blocks[1]
	store := NodeID(-1)
	for _, n := range l.Nodes {
		if n.Op == OpStore {
			store = n.ID
		}
	}
	l.LiveOut["zz"] = NodeID(len(l.Nodes) + 5) // out of range
	l.LiveOut["m"] = store                     // produces no value
	for _, s := range []string{"a", "b", "y"} {
		l.LiveOut[s] = l.LiveOut["i"] // valid
	}
	const want = `block "loop": live-out "m": node n`
	first := ""
	for i := 0; i < 50; i++ {
		err := Verify(g)
		if err == nil || !strings.HasPrefix(err.Error(), want) || !strings.HasSuffix(err.Error(), "produces no value") {
			t.Fatalf("Verify error %v, want %q...produces no value", err, want)
		}
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("Verify error changed between calls: %q, then %q", first, err)
		}
	}
}
