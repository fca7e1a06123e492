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
	lanes := make([]int32, len(a))
	for l := range lanes {
		lanes[l] = int32(l)
	}
	for op := cdfg.Opcode(0); op < 64; op++ {
		if _, err := cdfg.EvalOp(op, make([]int32, 3)); err != nil {
			continue
		}
		dst := make([]int32, len(a))
		for l := range dst {
			dst[l] = 0x5eed // what an opcode without a case leaves behind
		}
		aluEval(op, lanes, dst, a, b, c)
		for l := range lanes {
			want, _ := cdfg.EvalOp(op, []int32{a[l], b[l], c[l]})
			if dst[l] != want {
				t.Fatalf("%s(%d, %d, %d): engine %d, EvalOp %d", op, a[l], b[l], c[l], dst[l], want)
			}
		}
	}
}
