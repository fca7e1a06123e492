package isa

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cdfg"
)

func TestInstrConstructorsAndStrings(t *testing.T) {
	in := Op(cdfg.OpAdd, Reg(1), Nbr(East)).WithWB(3)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if s := in.String(); !strings.Contains(s, "add") || !strings.Contains(s, "r1") ||
		!strings.Contains(s, "nbr.E") || !strings.Contains(s, "-> r3") {
		t.Errorf("String() = %q", s)
	}
	mv := Move(Const(7))
	if err := mv.Validate(); err != nil {
		t.Fatal(err)
	}
	if mv.Cycles() != 1 {
		t.Error("move cycles")
	}
	p := Pnop(5)
	if p.Cycles() != 5 {
		t.Error("pnop cycles")
	}
	if s := p.String(); s != "pnop 5" {
		t.Errorf("pnop string %q", s)
	}
	if Self().String() != "out" || Reg(2).String() != "r2" || Const(-3).String() != "#-3" {
		t.Error("source strings")
	}
}

func TestInstrValidateErrors(t *testing.T) {
	bad := []Instr{
		Pnop(0),
		{Kind: KMove},                              // move without source
		{Kind: KOp, Op: cdfg.OpConst},              // const is not executable
		{Kind: KOp, Op: cdfg.OpSym},                // sym is not executable
		{Kind: KOp, Op: cdfg.OpAdd},                // missing sources
		{Kind: Kind(9)},                            // unknown kind
		Op(cdfg.OpStore, Reg(0), Reg(1)).WithWB(0), // store has no result
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("case %d (%v) should fail validation", i, in)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Op with too many sources should panic")
			}
		}()
		Op(cdfg.OpSelect, Reg(0), Reg(1), Reg(2), Reg(3))
	}()
}

func TestCRFIntern(t *testing.T) {
	c := NewCRF()
	i0, err := c.Intern(42)
	if err != nil || i0 != 0 {
		t.Fatalf("first intern: %d, %v", i0, err)
	}
	i1, err := c.Intern(42)
	if err != nil || i1 != 0 {
		t.Fatalf("re-intern should dedupe: %d, %v", i1, err)
	}
	for v := int32(0); v < MaxCRF-1; v++ {
		if _, err := c.Intern(1000 + v); err != nil {
			t.Fatalf("intern %d: %v", v, err)
		}
	}
	if c.Len() != MaxCRF {
		t.Fatalf("Len = %d, want %d", c.Len(), MaxCRF)
	}
	if _, err := c.Intern(9999); err == nil {
		t.Error("overflow should fail")
	}
}

// TestCRFOfInternsLoadedValues: a CRF built from a loaded value list
// finds those values at their loaded indices and appends new ones.
func TestCRFOfInternsLoadedValues(t *testing.T) {
	c := CRFOf([]int32{7, -3, 12})
	for want, v := range []int32{7, -3, 12, 5} {
		if i, err := c.Intern(v); err != nil || i != want {
			t.Fatalf("Intern(%d) = %d, %v; want %d", v, i, err, want)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
}

// randomInstr builds a random valid instruction.
func randomInstr(rng *rand.Rand) Instr {
	switch rng.Intn(3) {
	case 0:
		return Pnop(1 + rng.Intn(1000))
	case 1:
		in := Move(randomSrc(rng))
		if rng.Intn(2) == 0 {
			in = in.WithWB(uint8(rng.Intn(8)))
		}
		return in
	default:
		ops := []cdfg.Opcode{
			cdfg.OpAdd, cdfg.OpSub, cdfg.OpMul, cdfg.OpAnd, cdfg.OpOr,
			cdfg.OpXor, cdfg.OpShl, cdfg.OpSra, cdfg.OpLt, cdfg.OpEq,
			cdfg.OpMin, cdfg.OpMax, cdfg.OpAbs, cdfg.OpNeg, cdfg.OpSelect,
			cdfg.OpLoad, cdfg.OpStore, cdfg.OpBr,
		}
		op := ops[rng.Intn(len(ops))]
		srcs := make([]Src, op.NumArgs())
		for i := range srcs {
			srcs[i] = randomSrc(rng)
		}
		in := Op(op, srcs...)
		if op.HasResult() && rng.Intn(2) == 0 {
			in = in.WithWB(uint8(rng.Intn(8)))
		}
		return in
	}
}

func randomSrc(rng *rand.Rand) Src {
	switch rng.Intn(4) {
	case 0:
		return Nbr(Dir(rng.Intn(4)))
	case 1:
		return Reg(uint8(rng.Intn(8)))
	case 2:
		return Const(rng.Int31() - 1<<30)
	default:
		return Self()
	}
}

// TestEncodeDecodeRoundTrip is the binary-format property test: every
// valid instruction survives Encode/Decode against a shared CRF.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	crf := NewCRF()
	kept := 0
	for trial := 0; trial < 2000; trial++ {
		in := randomInstr(rng)
		w, err := Encode(in, crf)
		if err != nil {
			// Only acceptable failure: CRF capacity exhausted.
			if strings.Contains(err.Error(), "constant register file overflow") {
				continue
			}
			t.Fatalf("trial %d: encode %v: %v", trial, in, err)
		}
		got, err := Decode(w, crf.Values())
		if err != nil {
			t.Fatalf("trial %d: decode %#x: %v", trial, w, err)
		}
		if got != in {
			t.Fatalf("trial %d: round trip %v -> %v", trial, in, got)
		}
		kept++
	}
	if kept < 100 {
		t.Fatalf("too few round-tripped instructions: %d", kept)
	}
}

func TestEncodePnopBounds(t *testing.T) {
	crf := NewCRF()
	if _, err := Encode(Pnop(MaxPnop), crf); err != nil {
		t.Fatal(err)
	}
	if _, err := Encode(Pnop(MaxPnop+1), crf); err == nil {
		t.Error("oversized pnop should fail")
	}
	w, err := Encode(Pnop(1), crf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(w&^(MaxPnop<<pnopShift), nil); err == nil {
		t.Error("a pnop word with a zero count should not decode")
	}
}
