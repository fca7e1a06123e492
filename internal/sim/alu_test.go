package sim

import (
	"testing"

	"repro/internal/cdfg"
)

// TestALUEvalMatchesEvalOp pins the engine's vector ALU to the CDFG
// semantics: for every opcode cdfg.EvalOp accepts — the only ones
// lowering admits — aluEval must compute what EvalOp computes, lane by
// lane, on operands that reach the sign, overflow and shift-width edges.
func TestALUEvalMatchesEvalOp(t *testing.T) {
	vals := []int32{0, 1, -1, 2, 7, 31, 32, 33, -33, 1 << 30, -1 << 31, 1<<31 - 1}
	var a, b, c []int32
	for _, x := range vals {
		for _, y := range vals {
			a = append(a, x)
			b = append(b, y)
			c = append(c, x^y)
		}
	}
	for op := cdfg.Opcode(0); op < 64; op++ {
		if _, err := cdfg.EvalOp(op, make([]int32, 3)); err != nil {
			continue
		}
		// The state rows dst, a, b, c, in two runs that skip lane gap.
		n, gap := len(a), len(a)/3
		st := append(append(append(make([]int32, n), a...), b...), c...)
		dst := st[:n]
		for l := range dst {
			dst[l] = 0x5eed // what an opcode without a case leaves behind
		}
		aluEval(op, []laneRun{{0, gap}, {gap + 1, n}}, st, 0, n, 2*n, 3*n)
		if dst[gap] != 0x5eed {
			t.Fatalf("%s wrote lane %d, which no run holds", op, gap)
		}
		for l := range dst {
			if l == gap {
				continue
			}
			want, _ := cdfg.EvalOp(op, []int32{a[l], b[l], c[l]})
			if dst[l] != want {
				t.Fatalf("%s(%d, %d, %d): engine %d, EvalOp %d", op, a[l], b[l], c[l], dst[l], want)
			}
		}
	}
}
