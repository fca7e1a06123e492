package cdfg

import "testing"

func TestBuilderValueNumbering(t *testing.T) {
	b := NewBuilder("vn")
	e := b.Block("entry")
	c1 := e.Const(7)
	c2 := e.Const(7)
	if c1.id != c2.id {
		t.Error("equal constants should share a node")
	}
	if e.Const(8).id == c1.id {
		t.Error("distinct constants should not share a node")
	}
	e.SetSym("s", c1)
	e.Jump("next")
	n := b.Block("next")
	s1 := n.Sym("s")
	s2 := n.Sym("s")
	if s1.id != s2.id {
		t.Error("repeated symbol reads should share a node")
	}
	n.Store(n.Const(0), s1)
	b.Finish()
}

func TestBuilderEntryAndBlockReuse(t *testing.T) {
	b := NewBuilder("g")
	b.Block("one")
	two := b.Block("two")
	if again := b.Block("two"); again != two {
		t.Error("Block should return the existing block")
	}
	two.Store(two.Const(0), two.Const(1))
	g := b.Graph()
	if g.Blocks[g.Entry].Name != "one" {
		t.Errorf("entry = %q, want the first block, one", g.Blocks[g.Entry].Name)
	}
}

func expectPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	f()
}

func TestBuilderPanics(t *testing.T) {
	expectPanic(t, "cross-block value", func() {
		b := NewBuilder("x")
		e := b.Block("a")
		v := e.Const(1)
		o := b.Block("b")
		o.Add(v, v)
	})
	expectPanic(t, "double terminator", func() {
		b := NewBuilder("x")
		e := b.Block("a")
		e.Jump("b")
		e.Jump("c")
	})
	expectPanic(t, "branch after jump", func() {
		b := NewBuilder("x")
		e := b.Block("a")
		e.Jump("b")
		e.BranchIf(e.Const(1), "b", "c")
	})
	expectPanic(t, "wrong arity", func() {
		b := NewBuilder("x")
		e := b.Block("a")
		e.OpN(OpAdd, e.Const(1))
	})
	expectPanic(t, "invalid finish", func() {
		b := NewBuilder("x")
		e := b.Block("a")
		e.Sym("undefined") // read of a never-written symbol
		b.Finish()
	})
}
