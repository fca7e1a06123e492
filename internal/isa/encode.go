package isa

import (
	"fmt"

	"repro/internal/cdfg"
)

// Binary context-word layout. The paper's tiles store 64-bit context words;
// we use the same width. Immediates are not embedded in the word: like the
// real PE, a word references an entry of the tile's constant register file
// (CRF), which the assembler populates per tile.
//
//	bits  0..1   kind
//	bits  2..7   opcode (KOp) — cdfg.Opcode value
//	bit   8      writeback enable
//	bits  9..12  writeback register
//	bits 13..14  source count
//	bits 16..26  source 0 (3-bit kind + 8-bit payload)
//	bits 27..37  source 1
//	bits 38..48  source 2
//	bits 16..39  pnop idle count (KPnop)
const (
	kindShift  = 0
	opShift    = 2
	wbShift    = 8
	wregShift  = 9
	nsrcShift  = 13
	src0Shift  = 16
	srcBits    = 11
	pnopShift  = 16
	pnopBits   = 24
	srcPayload = 8
)

// MaxCRF is the capacity of a tile's constant register file. The paper's
// CRF is 32 entries; the encoder enforces the same limit.
const MaxCRF = 32

// MaxPnop is the largest idle count a single pnop word can encode.
const MaxPnop = 1<<pnopBits - 1

// CRF is a tile's constant register file: the immediate pool referenced by
// encoded context words.
type CRF struct {
	vals  []int32
	index map[int32]int // value -> index, built by the first Intern
}

// NewCRF returns an empty constant register file.
func NewCRF() *CRF { return &CRF{} }

// CRFOf returns a constant register file holding vals in index order, as
// a loaded image carries them; vals must not repeat a value. Decoding
// reads only the values, so the index Intern needs is built on its first
// call, never on the load path.
func CRFOf(vals []int32) CRF { return CRF{vals: vals} }

// Intern returns the CRF index of v, adding it if absent. It fails when
// the tile needs more than MaxCRF distinct constants.
func (c *CRF) Intern(v int32) (int, error) {
	if c.index == nil {
		c.index = make(map[int32]int, len(c.vals))
		for i, x := range c.vals {
			c.index[x] = i
		}
	}
	if i, ok := c.index[v]; ok {
		return i, nil
	}
	if len(c.vals) >= MaxCRF {
		return 0, fmt.Errorf("isa: constant register file overflow (%d entries)", MaxCRF)
	}
	c.index[v] = len(c.vals)
	c.vals = append(c.vals, v)
	return len(c.vals) - 1, nil
}

// Values returns the interned constants in index order.
func (c *CRF) Values() []int32 { return c.vals }

// Len returns the number of interned constants.
func (c *CRF) Len() int { return len(c.vals) }

func encodeSrc(s Src, crf *CRF) (uint64, error) {
	var payload uint64
	switch s.Kind {
	case SrcNone, SrcSelf:
	case SrcNbr:
		payload = uint64(s.Dir)
	case SrcReg:
		payload = uint64(s.Reg)
	case SrcConst:
		idx, err := crf.Intern(s.Val)
		if err != nil {
			return 0, err
		}
		payload = uint64(idx)
	default:
		return 0, fmt.Errorf("isa: cannot encode source kind %d", s.Kind)
	}
	if payload >= 1<<srcPayload {
		return 0, fmt.Errorf("isa: source payload %d overflows %d bits", payload, srcPayload)
	}
	return uint64(s.Kind)<<srcPayload | payload, nil
}

func decodeSrc(bits uint64, consts []int32) (Src, error) {
	kind := SrcKind(bits >> srcPayload)
	payload := bits & (1<<srcPayload - 1)
	switch kind {
	case SrcNone:
		return Src{}, nil
	case SrcSelf:
		return Self(), nil
	case SrcNbr:
		return Nbr(Dir(payload)), nil
	case SrcReg:
		return Reg(uint8(payload)), nil
	case SrcConst:
		if int(payload) >= len(consts) {
			return Src{}, fmt.Errorf("isa: CRF index %d out of range %d", payload, len(consts))
		}
		return Const(consts[payload]), nil
	}
	return Src{}, fmt.Errorf("isa: undecodable source kind %d", kind)
}

// Encode packs the instruction into a 64-bit context word, interning any
// immediates into the tile's CRF.
func Encode(in Instr, crf *CRF) (uint64, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	w := uint64(in.Kind) << kindShift
	if in.Kind == KPnop {
		if in.Count > MaxPnop {
			return 0, fmt.Errorf("isa: pnop count %d exceeds %d", in.Count, MaxPnop)
		}
		w |= uint64(in.Count) << pnopShift
		return w, nil
	}
	w |= uint64(in.Op) << opShift
	if in.WB {
		w |= 1 << wbShift
		w |= uint64(in.WReg) << wregShift
	}
	w |= uint64(in.NSrc) << nsrcShift
	for i := 0; i < in.NSrc; i++ {
		sb, err := encodeSrc(in.Srcs[i], crf)
		if err != nil {
			return 0, err
		}
		w |= sb << (src0Shift + srcBits*i)
	}
	return w, nil
}

// Decode unpacks a context word encoded by Encode against a CRF holding
// consts (CRF.Values).
func Decode(w uint64, consts []int32) (Instr, error) {
	kind := Kind(w >> kindShift & 3)
	if kind == KPnop {
		// A zero idle count is a word Encode never writes.
		if n := int(w >> pnopShift & MaxPnop); n >= 1 {
			return Pnop(n), nil
		}
		return Instr{}, fmt.Errorf("isa: decoded invalid word %#x: pnop with count 0", w)
	}
	in := Instr{Kind: kind}
	in.Op = cdfg.Opcode(w >> opShift & 63)
	if kind == KMove {
		in.Op = cdfg.OpMove
	}
	if w>>wbShift&1 == 1 {
		in.WB = true
		in.WReg = uint8(w >> wregShift & 15)
	}
	in.NSrc = int(w >> nsrcShift & 3)
	for i := 0; i < in.NSrc; i++ {
		s, err := decodeSrc(w>>(src0Shift+srcBits*i)&(1<<srcBits-1), consts)
		if err != nil {
			return Instr{}, err
		}
		in.Srcs[i] = s
	}
	if err := in.Validate(); err != nil {
		return Instr{}, fmt.Errorf("isa: decoded invalid word %#x: %w", w, err)
	}
	return in, nil
}
