package cdfg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// isCommutative reports whether the two arguments of op may be swapped.
func isCommutative(op Opcode) bool {
	switch op {
	case OpAdd, OpMul, OpMulH, OpAnd, OpOr, OpXor, OpEq, OpNe, OpMin, OpMax:
		return true
	}
	return false
}

// TestQuickCommutativity checks that every opcode isCommutative lists
// actually commutes, and that EvalOp never refuses valid ALU inputs.
func TestQuickCommutativity(t *testing.T) {
	for op := OpAdd; op < numOpcodes; op++ {
		op := op
		switch op {
		case OpLoad, OpStore, OpBr:
			continue
		}
		if op.NumArgs() != 2 {
			continue
		}
		f := func(a, b int32) bool {
			x, ok1 := EvalOp(op, a, b, 0)
			y, ok2 := EvalOp(op, b, a, 0)
			if !ok1 || !ok2 {
				return false
			}
			if isCommutative(op) {
				return x == y
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", op, err)
		}
	}
}

// TestQuickShiftMasking checks the 5-bit shift-amount masking property.
func TestQuickShiftMasking(t *testing.T) {
	f := func(v, s int32) bool {
		for _, op := range []Opcode{OpShl, OpShr, OpSra} {
			a, _ := EvalOp(op, v, s, 0)
			b, _ := EvalOp(op, v, s&31, 0)
			if a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickMinMaxSelect checks ordering identities.
func TestQuickMinMaxSelect(t *testing.T) {
	f := func(a, b int32) bool {
		mn, _ := EvalOp(OpMin, a, b, 0)
		mx, _ := EvalOp(OpMax, a, b, 0)
		lt, _ := EvalOp(OpLt, a, b, 0)
		sel, _ := EvalOp(OpSelect, lt, a, b)
		if mn > mx {
			return false
		}
		if mn != a && mn != b {
			return false
		}
		// select(a<b, a, b) == min(a, b)
		return sel == mn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randomDAGGraph builds a random but always-valid single-block graph: a
// straight-line DFG over random ops whose final value is stored.
func randomDAGGraph(rng *rand.Rand, nNodes int) *Graph {
	b := NewBuilder("rand")
	e := b.Block("entry")
	pool := []Value{e.Const(rng.Int31n(100) - 50), e.Const(rng.Int31n(100) - 50)}
	binops := []Opcode{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpMin, OpMax, OpLt, OpGe}
	for i := 0; i < nNodes; i++ {
		op := binops[rng.Intn(len(binops))]
		a := pool[rng.Intn(len(pool))]
		c := pool[rng.Intn(len(pool))]
		pool = append(pool, e.OpN(op, a, c))
	}
	e.Store(e.Const(0), pool[len(pool)-1])
	return b.Finish()
}

// TestQuickRandomGraphsVerifyAndInterp: every randomly generated graph
// verifies, interprets deterministically, and its interpretation matches
// a direct evaluation of the DAG.
func TestQuickRandomGraphsVerifyAndInterp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		g := randomDAGGraph(rng, 2+rng.Intn(30))
		if err := Verify(g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		m1 := make(Memory, 1)
		m2 := make(Memory, 1)
		if _, err := Interp(g, m1); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if _, err := Interp(g, m2); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if m1[0] != m2[0] {
			t.Fatalf("trial %d: nondeterministic interpretation", trial)
		}
		// Direct DAG evaluation must agree.
		blk := g.Blocks[0]
		vals := make([]int32, len(blk.Nodes))
		var want int32
		for _, n := range blk.Nodes {
			switch n.Op {
			case OpConst:
				vals[n.ID] = n.Val
			case OpStore:
				want = vals[n.Args[1]]
			default:
				args := make([]int32, len(n.Args))
				for i, a := range n.Args {
					args[i] = vals[a]
				}
				v, err := evalArgs(n.Op, args)
				if err != nil {
					t.Fatal(err)
				}
				vals[n.ID] = v
			}
		}
		if m1[0] != want {
			t.Fatalf("trial %d: interp %d, direct %d", trial, m1[0], want)
		}
	}
}

// TestQuickAnalyzeInvariants: on random DAGs, ASAP ≤ ALAP, mobility is
// their difference, and levels respect dependencies.
func TestQuickAnalyzeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		blk := randomDAGGraph(rng, 2+rng.Intn(40)).Blocks[0]
		s := Analyze(blk)
		for _, n := range blk.Nodes {
			if s.ASAP[n.ID] > s.ALAP[n.ID] {
				t.Fatalf("trial %d: ASAP > ALAP on n%d", trial, n.ID)
			}
			if s.Mobility[n.ID] != s.ALAP[n.ID]-s.ASAP[n.ID] {
				t.Fatalf("trial %d: mobility mismatch on n%d", trial, n.ID)
			}
			for _, a := range n.Args {
				if s.ASAP[a] > s.ASAP[n.ID] {
					t.Fatalf("trial %d: dependency violates ASAP order", trial)
				}
			}
		}
	}
}
