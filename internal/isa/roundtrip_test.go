package isa

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cdfg"
)

// TestEncodeDecodeTable is the exhaustive-by-kind companion to the
// randomized round-trip test: one case per context-word kind and operand
// shape — operations (ALU, memory, control), moves from every source
// kind, writebacks, and pnop idles from 1 to the encoding maximum.
func TestEncodeDecodeTable(t *testing.T) {
	cases := []struct {
		name string
		in   Instr
	}{
		{"alu 2src", Op(cdfg.OpAdd, Nbr(North), Reg(3))},
		{"alu 2src const", Op(cdfg.OpMul, Const(-7), Const(1<<20))},
		{"alu unary", Op(cdfg.OpNeg, Self())},
		{"alu select 3src", Op(cdfg.OpSelect, Nbr(East), Reg(0), Const(42))},
		{"alu writeback", Op(cdfg.OpXor, Nbr(South), Nbr(West)).WithWB(7)},
		{"load", Op(cdfg.OpLoad, Reg(1))},
		{"store", Op(cdfg.OpStore, Reg(1), Nbr(North))},
		{"control br", Op(cdfg.OpBr, Self())},
		{"move nbr", Move(Nbr(West))},
		{"move reg", Move(Reg(5))},
		{"move const", Move(Const(-2147483648))},
		{"move self", Move(Self())},
		{"move writeback", Move(Nbr(North)).WithWB(0)},
		{"pnop 1", Pnop(1)},
		{"pnop max", Pnop(MaxPnop)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			crf := NewCRF()
			w, err := Encode(tc.in, crf)
			if err != nil {
				t.Fatalf("Encode(%v): %v", tc.in, err)
			}
			got, err := Decode(w, crf.Values())
			if err != nil {
				t.Fatalf("Decode(%#x): %v", w, err)
			}
			if got != tc.in {
				t.Fatalf("round trip: got %v, want %v", got, tc.in)
			}
		})
	}
}

// TestEncodeDecodeQuick drives the round trip through testing/quick: any
// valid instruction stream, encoded against a shared CRF, decodes back
// bit-identically (as long as the CRF has room, which the generator
// guarantees by drawing constants from a small pool).
func TestEncodeDecodeQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		crf := NewCRF()
		for i := 0; i < int(n%32)+1; i++ {
			in := randomInstr(rng)
			// Keep constants in a small pool so a long stream cannot
			// overflow the 32-entry CRF.
			for s := 0; s < in.NSrc; s++ {
				if in.Srcs[s].Kind == SrcConst {
					in.Srcs[s].Val = in.Srcs[s].Val % 8
				}
			}
			w, err := Encode(in, crf)
			if err != nil {
				t.Logf("Encode(%v): %v", in, err)
				return false
			}
			got, err := Decode(w, crf.Values())
			if err != nil {
				t.Logf("Decode(%#x): %v", w, err)
				return false
			}
			if got != in {
				t.Logf("got %v, want %v", got, in)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if testing.Short() {
		cfg.MaxCount = 50
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRejectsBadCRFIndex: a word referencing a constant the CRF does
// not hold must fail to decode, not fabricate a value.
func TestDecodeRejectsBadCRFIndex(t *testing.T) {
	crf := NewCRF()
	w, err := Encode(Move(Const(99)), crf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(w, nil); err == nil {
		t.Fatal("decoding against an empty CRF succeeded")
	}
}
