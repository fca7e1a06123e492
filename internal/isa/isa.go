// Package isa defines the per-tile instruction set stored in the context
// memories of the CGRA. A tile's context is a sequence of instruction
// words of three kinds, matching the paper's taxonomy (§II): an operation
// (including control, i.e. branches), a move (routing), or a nop —
// consecutive nops being folded into one programmable nop (pnop) word
// carrying an idle-cycle count.
//
// Every instruction word occupies exactly one context-memory word, so the
// number of Instr values in a tile's per-kernel context is exactly the
// quantity the paper's memory constraint n(Mo)+n(pnop) ≤ n(I) bounds.
package isa

import (
	"fmt"
	"strings"

	"repro/internal/cdfg"
)

// Kind classifies an instruction word.
type Kind uint8

const (
	// KOp executes an ALU/memory/branch operation.
	KOp Kind = iota
	// KMove copies a value from a source to the tile's output register
	// (and optionally the register file) for routing.
	KMove
	// KPnop idles the tile for Count cycles. The output register keeps its
	// value, so a pnop also acts as a routing hold.
	KPnop
)

func (k Kind) String() string {
	switch k {
	case KOp:
		return "op"
	case KMove:
		return "move"
	case KPnop:
		return "pnop"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Dir addresses one of the four torus neighbors in the fixed order used by
// arch.Grid.Neighbors.
type Dir uint8

const (
	North Dir = iota
	South
	West
	East
)

func (d Dir) String() string {
	switch d {
	case North:
		return "N"
	case South:
		return "S"
	case West:
		return "W"
	case East:
		return "E"
	}
	return fmt.Sprintf("dir(%d)", uint8(d))
}

// SrcKind says where an operand comes from.
type SrcKind uint8

const (
	// SrcNone marks an unused operand slot.
	SrcNone SrcKind = iota
	// SrcNbr reads the output register of the neighbor in direction Dir.
	SrcNbr
	// SrcReg reads the tile's own register file at index Reg.
	SrcReg
	// SrcConst reads an immediate from the tile's constant register file.
	SrcConst
	// SrcSelf reads the tile's own output register.
	SrcSelf
)

// Src is one operand source.
type Src struct {
	Kind SrcKind
	Dir  Dir   // valid when Kind == SrcNbr
	Reg  uint8 // valid when Kind == SrcReg
	Val  int32 // valid when Kind == SrcConst
}

// Nbr returns a neighbor-read source.
func Nbr(d Dir) Src { return Src{Kind: SrcNbr, Dir: d} }

// Reg returns a register-file source.
func Reg(r uint8) Src { return Src{Kind: SrcReg, Reg: r} }

// Const returns an immediate source.
func Const(v int32) Src { return Src{Kind: SrcConst, Val: v} }

// Self returns an own-output-register source.
func Self() Src { return Src{Kind: SrcSelf} }

func (s Src) String() string {
	switch s.Kind {
	case SrcNone:
		return "-"
	case SrcNbr:
		return "nbr." + s.Dir.String()
	case SrcReg:
		return fmt.Sprintf("r%d", s.Reg)
	case SrcConst:
		return fmt.Sprintf("#%d", s.Val)
	case SrcSelf:
		return "out"
	}
	return fmt.Sprintf("src(%d)", uint8(s.Kind))
}

// MaxSrcs is the maximum operand count (OpSelect takes three).
const MaxSrcs = 3

// Instr is one context-memory word.
type Instr struct {
	Kind Kind

	// Op is the operation for KOp words. Moves use cdfg.OpMove implicitly.
	Op cdfg.Opcode

	// Srcs holds NSrc operand sources. For stores, Srcs[0] is the address
	// and Srcs[1] the value; for branches Srcs[0] is the condition.
	Srcs [MaxSrcs]Src
	NSrc int

	// WB requests a register-file writeback of the result to register WReg
	// in addition to the output register.
	WB   bool
	WReg uint8

	// Count is the idle-cycle count of a KPnop word (≥ 1).
	Count int
}

// Pnop returns a programmable-nop word idling for n cycles.
func Pnop(n int) Instr { return Instr{Kind: KPnop, Count: n} }

// Move returns a routing move from the given source.
func Move(src Src) Instr {
	return Instr{Kind: KMove, Op: cdfg.OpMove, Srcs: [MaxSrcs]Src{src}, NSrc: 1}
}

// Op returns an operation word.
func Op(op cdfg.Opcode, srcs ...Src) Instr {
	in := Instr{Kind: KOp, Op: op, NSrc: len(srcs)}
	if len(srcs) > MaxSrcs {
		panic(fmt.Sprintf("isa: %d sources exceed maximum %d", len(srcs), MaxSrcs))
	}
	copy(in.Srcs[:], srcs)
	return in
}

// WithWB returns a copy of the instruction with a writeback to register r.
func (in Instr) WithWB(r uint8) Instr {
	in.WB = true
	in.WReg = r
	return in
}

// Cycles returns how many execution cycles the word occupies.
func (in Instr) Cycles() int {
	if in.Kind == KPnop {
		return in.Count
	}
	return 1
}

func (in Instr) String() string {
	var b strings.Builder
	switch in.Kind {
	case KPnop:
		fmt.Fprintf(&b, "pnop %d", in.Count)
		return b.String()
	case KMove:
		fmt.Fprintf(&b, "move %s", in.Srcs[0])
	case KOp:
		b.WriteString(in.Op.String())
		for i := 0; i < in.NSrc; i++ {
			b.WriteString(" ")
			b.WriteString(in.Srcs[i].String())
		}
	}
	if in.WB {
		fmt.Fprintf(&b, " -> r%d", in.WReg)
	}
	return b.String()
}

// Validate checks the structural sanity of an instruction word.
func (in Instr) Validate() error {
	switch in.Kind {
	case KPnop:
		if in.Count < 1 {
			return fmt.Errorf("isa: pnop with count %d", in.Count)
		}
		if in.WB {
			return fmt.Errorf("isa: pnop cannot write back")
		}
	case KMove:
		if in.NSrc != 1 || in.Srcs[0].Kind == SrcNone {
			return fmt.Errorf("isa: move needs exactly one source")
		}
	case KOp:
		if !in.Op.Valid() || in.Op == cdfg.OpConst || in.Op == cdfg.OpSym {
			return fmt.Errorf("isa: opcode %s cannot appear in a context", in.Op)
		}
		if in.NSrc != in.Op.NumArgs() {
			return fmt.Errorf("isa: %s needs %d sources, has %d", in.Op, in.Op.NumArgs(), in.NSrc)
		}
		for i := 0; i < in.NSrc; i++ {
			if in.Srcs[i].Kind == SrcNone {
				return fmt.Errorf("isa: %s source %d unset", in.Op, i)
			}
		}
		if in.WB && !in.Op.HasResult() {
			return fmt.Errorf("isa: %s produces no value to write back", in.Op)
		}
	default:
		return fmt.Errorf("isa: unknown kind %d", in.Kind)
	}
	return nil
}
