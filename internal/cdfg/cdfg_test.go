package cdfg

import (
	"strings"
	"testing"
)

func TestOpcodeProperties(t *testing.T) {
	cases := []struct {
		op     Opcode
		args   int
		result bool
		mem    bool
	}{
		{OpConst, 0, true, false},
		{OpSym, 0, true, false},
		{OpAdd, 2, true, false},
		{OpSub, 2, true, false},
		{OpMul, 2, true, false},
		{OpAbs, 1, true, false},
		{OpNeg, 1, true, false},
		{OpSelect, 3, true, false},
		{OpLoad, 1, true, true},
		{OpStore, 2, false, true},
		{OpBr, 1, false, false},
		{OpMove, 1, true, false},
		{OpEq, 2, true, false},
		{OpLt, 2, true, false},
	}
	for _, c := range cases {
		if got := c.op.NumArgs(); got != c.args {
			t.Errorf("%s.NumArgs() = %d, want %d", c.op, got, c.args)
		}
		if got := c.op.HasResult(); got != c.result {
			t.Errorf("%s.HasResult() = %v, want %v", c.op, got, c.result)
		}
		if got := c.op.IsMem(); got != c.mem {
			t.Errorf("%s.IsMem() = %v, want %v", c.op, got, c.mem)
		}
		if !c.op.Valid() {
			t.Errorf("%s.Valid() = false", c.op)
		}
	}
	if Opcode(0).Valid() || Opcode(200).Valid() {
		t.Error("invalid opcodes reported valid")
	}
}

func TestEvalOpSemantics(t *testing.T) {
	cases := []struct {
		op   Opcode
		args []int32
		want int32
	}{
		{OpAdd, []int32{3, 4}, 7},
		{OpSub, []int32{3, 4}, -1},
		{OpMul, []int32{-3, 4}, -12},
		{OpMulH, []int32{1 << 20, 1 << 20}, 256},
		{OpAnd, []int32{0b1100, 0b1010}, 0b1000},
		{OpOr, []int32{0b1100, 0b1010}, 0b1110},
		{OpXor, []int32{0b1100, 0b1010}, 0b0110},
		{OpShl, []int32{1, 4}, 16},
		{OpShl, []int32{1, 36}, 16}, // shift amount masked to 5 bits
		{OpShr, []int32{-1, 28}, 15},
		{OpSra, []int32{-16, 2}, -4},
		{OpLt, []int32{1, 2}, 1},
		{OpLt, []int32{2, 1}, 0},
		{OpLe, []int32{2, 2}, 1},
		{OpEq, []int32{5, 5}, 1},
		{OpNe, []int32{5, 5}, 0},
		{OpGe, []int32{5, 6}, 0},
		{OpGt, []int32{7, 6}, 1},
		{OpMin, []int32{-2, 3}, -2},
		{OpMax, []int32{-2, 3}, 3},
		{OpAbs, []int32{-9}, 9},
		{OpAbs, []int32{9}, 9},
		{OpNeg, []int32{9}, -9},
		{OpSelect, []int32{1, 10, 20}, 10},
		{OpSelect, []int32{0, 10, 20}, 20},
		{OpMove, []int32{42}, 42},
	}
	for _, c := range cases {
		got, err := evalArgs(c.op, c.args)
		if err != nil {
			t.Fatalf("EvalOp(%s, %v): %v", c.op, c.args, err)
		}
		if got != c.want {
			t.Errorf("EvalOp(%s, %v) = %d, want %d", c.op, c.args, got, c.want)
		}
	}
	for _, op := range []Opcode{OpLoad, OpStore, OpBr, OpConst, OpSym} {
		if _, ok := EvalOp(op, 0, 0, 0); ok {
			t.Errorf("EvalOp(%s) should fail: no pure semantics", op)
		}
	}
}

func TestMemory(t *testing.T) {
	m := make(Memory, 4)
	if err := m.Store(2, 42); err != nil {
		t.Fatal(err)
	}
	v, err := m.Load(2)
	if err != nil || v != 42 {
		t.Fatalf("Load(2) = %d, %v", v, err)
	}
	if _, err := m.Load(-1); err == nil {
		t.Error("Load(-1) should fail")
	}
	if _, err := m.Load(4); err == nil {
		t.Error("Load(4) should fail")
	}
	if err := m.Store(4, 0); err == nil {
		t.Error("Store(4) should fail")
	}
	c := m.Clone()
	c[2] = 7
	if m[2] != 42 {
		t.Error("Clone aliases the original")
	}
}

func TestGraphAccessorsAndString(t *testing.T) {
	b := NewBuilder("t")
	e := b.Block("entry")
	x := e.Const(5)
	y := e.AddC(x, 2)
	e.Store(x, y)
	e.SetSym("s", y)
	e.BranchIf(e.Ne(y, e.Const(0)), "entry", "done")
	b.Block("done")
	g := b.Finish()

	if g.NumNodes() == 0 {
		t.Fatal("empty counts")
	}
	if got := graphSymbols(g); len(got) != 1 || got[0] != "s" {
		t.Fatalf("Symbols() = %v", got)
	}
	s := g.String()
	for _, want := range []string{"graph t", "block entry:", "store", "s <- ", "br "} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	if !g.Blocks[g.Entry].HasBranch() {
		t.Error("entry should have a branch")
	}
	if syms := g.Blocks[g.Entry].SymReads(); len(syms) != 0 {
		t.Errorf("entry reads %v, want none", syms)
	}
	var lo []string
	g.Blocks[g.Entry].LiveOuts(func(s string, _ NodeID) bool {
		lo = append(lo, s)
		return true
	})
	if len(lo) != 1 || lo[0] != "s" {
		t.Errorf("LiveOuts = %v", lo)
	}
}

func TestDot(t *testing.T) {
	b := NewBuilder("dot")
	e := b.Block("entry")
	v := e.AddC(e.Const(1), 2)
	e.SetSym("x", v)
	e.Jump("next")
	n := b.Block("next")
	n.Store(n.Const(0), n.Sym("x"))
	g := b.Finish()
	d := Dot(g)
	for _, want := range []string{"digraph", "cluster_0", "cluster_1", "->"} {
		if !strings.Contains(d, want) {
			t.Errorf("Dot missing %q", want)
		}
	}
}
