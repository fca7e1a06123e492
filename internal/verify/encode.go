package verify

import (
	"repro/internal/isa"
)

// encodePass: context-word encode/decode round-trip legality.
// The encode pass proves the assembled context words are loadable: every
// instruction is structurally valid, survives a binary encode/decode
// round trip against a re-derived constant file, and matches the word
// the assembler actually stored. It re-interns each tile's constants in
// segment order, so a CRF that drifted from its instructions is caught
// too.
//
//	ENC001  instruction fails structural validation
//	ENC002  instruction cannot be encoded (or its word cannot be decoded)
//	ENC003  encode/decode round trip changes the instruction
//	ENC004  stored binary word differs from the re-encoded instruction
//	ENC005  stored binary length or CRF contents differ from the segments
var encodePass = &Pass{
	Name:  "encode",
	Code:  "ENC",
	Needs: NeedProgram,
	run:   runEncode,
}

func runEncode(c *checker) {
	p := c.cx.Program
	for t := range p.Tiles {
		tc := &p.Tiles[t]
		crf := isa.NewCRF()
		idx := 0
		for _, seg := range tc.Segments {
			cyc := 0
			for _, in := range seg.Instrs {
				here := atBlock(seg.BB).onTile(t).atCycle(cyc)
				if err := in.Validate(); err != nil {
					c.diag("ENC001", here, "%v", err)
				} else if w, err := isa.Encode(in, crf); err != nil {
					c.diag("ENC002", here, "encode: %v", err)
				} else {
					if back, err := isa.Decode(w, crf.Values()); err != nil {
						c.diag("ENC002", here, "decode: %v", err)
					} else if back != in {
						c.diag("ENC003", here, "round trip yields %v, want %v", back, in)
					}
					if idx < len(tc.Binary) && tc.Binary[idx] != w {
						c.diag("ENC004", here,
							"stored word %#016x differs from re-encoded %#016x", tc.Binary[idx], w)
					}
				}
				idx++
				cyc += in.Cycles()
			}
		}
		if idx != len(tc.Binary) {
			c.diag("ENC005", nowhere().onTile(t),
				"segments hold %d words, stored binary holds %d", idx, len(tc.Binary))
		}
		if tc.CRF != nil && !sameConsts(crf.Values(), tc.CRF.Values()) {
			c.diag("ENC005", nowhere().onTile(t),
				"re-derived CRF %v differs from stored CRF %v", crf.Values(), tc.CRF.Values())
		}
	}
}

func sameConsts(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
