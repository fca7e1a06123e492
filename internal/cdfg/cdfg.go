// Package cdfg defines the control-data-flow-graph intermediate
// representation consumed by the CGRA mapper.
//
// A Graph is a set of basic blocks connected by control-flow edges. Each
// basic block holds a data-flow graph of Nodes. Values that live across
// basic blocks are carried by named symbol variables: a block reads a
// symbol with an OpSym node and publishes a value under a symbol name via
// its LiveOut map. The mapper pins every symbol to a register-file location
// (a "location constraint" in the paper's terms); the interpreter in this
// package gives the IR its reference semantics.
package cdfg

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a node within its basic block (dense, starting at 0).
type NodeID int

// BBID identifies a basic block within its graph (dense, starting at 0).
type BBID int

// None is the invalid node/block id.
const None = -1

// Opcode enumerates the operations the IR (and the CGRA ALU) supports.
type Opcode uint8

// Opcodes. Arithmetic and logic operate on int32 values. Comparisons
// produce 0 or 1. OpConst has no arguments and produces Node.Val. OpSym has
// no arguments and produces the current value of Node.Sym. OpLoad reads
// data memory at Args[0]; OpStore writes Args[1] to address Args[0] and
// produces no value. OpBr branches on Args[0] != 0 and produces no value.
// OpMove is not produced by frontends: the mapper inserts it for routing.
const (
	OpInvalid Opcode = iota
	OpConst
	OpSym
	OpAdd
	OpSub
	OpMul
	OpMulH // high 32 bits of the 64-bit product
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr // logical shift right
	OpSra // arithmetic shift right
	OpLt
	OpLe
	OpEq
	OpNe
	OpGe
	OpGt
	OpMin
	OpMax
	OpAbs
	OpNeg
	OpSelect // Args[0] != 0 ? Args[1] : Args[2]
	OpLoad
	OpStore
	OpBr
	OpMove
	numOpcodes
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpConst:   "const",
	OpSym:     "sym",
	OpAdd:     "add",
	OpSub:     "sub",
	OpMul:     "mul",
	OpMulH:    "mulh",
	OpAnd:     "and",
	OpOr:      "or",
	OpXor:     "xor",
	OpShl:     "shl",
	OpShr:     "shr",
	OpSra:     "sra",
	OpLt:      "lt",
	OpLe:      "le",
	OpEq:      "eq",
	OpNe:      "ne",
	OpGe:      "ge",
	OpGt:      "gt",
	OpMin:     "min",
	OpMax:     "max",
	OpAbs:     "abs",
	OpNeg:     "neg",
	OpSelect:  "select",
	OpLoad:    "load",
	OpStore:   "store",
	OpBr:      "br",
	OpMove:    "move",
}

func (op Opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool { return op > OpInvalid && op < numOpcodes }

// NumArgs returns the number of data arguments op consumes.
func (op Opcode) NumArgs() int {
	switch op {
	case OpConst, OpSym:
		return 0
	case OpAbs, OpNeg, OpLoad, OpBr, OpMove:
		return 1
	case OpSelect:
		return 3
	case OpStore:
		return 2
	default:
		return 2
	}
}

// HasResult reports whether op produces a value.
func (op Opcode) HasResult() bool { return op != OpStore && op != OpBr }

// IsMem reports whether op accesses data memory and therefore must be
// placed on a load/store tile.
func (op Opcode) IsMem() bool { return op == OpLoad || op == OpStore }

// Node is one operation of a basic block's data-flow graph.
type Node struct {
	ID   NodeID
	Op   Opcode
	Args []NodeID // operands; indices into the same block's Nodes
	Val  int32    // constant value for OpConst
	Sym  string   // symbol name for OpSym
}

// String renders the node in a compact listing form.
func (n *Node) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n%d = %s", n.ID, n.Op)
	switch n.Op {
	case OpConst:
		fmt.Fprintf(&b, " %d", n.Val)
	case OpSym:
		fmt.Fprintf(&b, " %s", n.Sym)
	default:
		for _, a := range n.Args {
			fmt.Fprintf(&b, " n%d", a)
		}
	}
	return b.String()
}

// BasicBlock is one node of the control-flow graph: a data-flow graph plus
// control successors and the symbol values published at its exit.
type BasicBlock struct {
	ID    BBID
	Name  string
	Nodes []*Node

	// LiveOut maps symbol names to the node whose value the symbol holds
	// after the block executes.
	LiveOut map[string]NodeID

	// Branch, if valid, is a node with Op == OpBr whose argument decides
	// the successor: nonzero takes Succs[0], zero takes Succs[1].
	Branch NodeID

	// Succs lists successor blocks. With a branch there are exactly two
	// entries (taken, not-taken); otherwise at most one. An empty Succs
	// with no branch ends the program.
	Succs []BBID
}

// HasBranch reports whether the block ends in a conditional branch.
func (b *BasicBlock) HasBranch() bool { return b.Branch != None }

// LiveOuts calls yield with every published symbol and its defining node,
// in sorted symbol order, until yield returns false. It walks the map
// once per symbol instead of sorting a copy of the names: a block
// publishes a handful of symbols, and the walk allocates nothing. yield
// must not change LiveOut.
func (b *BasicBlock) LiveOuts(yield func(sym string, def NodeID) bool) {
	prev := ""
	for done := 0; done < len(b.LiveOut); done++ {
		next, found := "", false
		for s := range b.LiveOut {
			if (done == 0 || s > prev) && (!found || s < next) {
				next, found = s, true
			}
		}
		if !yield(next, b.LiveOut[next]) {
			return
		}
		prev = next
	}
}

// SymReads returns the distinct symbol names read by the block, sorted.
func (b *BasicBlock) SymReads() []string {
	seen := map[string]bool{}
	for _, n := range b.Nodes {
		if n.Op == OpSym {
			seen[n.Sym] = true
		}
	}
	syms := make([]string, 0, len(seen))
	for s := range seen {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	return syms
}

// Graph is a whole application kernel: basic blocks plus an entry point.
type Graph struct {
	Name   string
	Blocks []*BasicBlock
	Entry  BBID
}

// NumNodes returns the total node count over all blocks.
func (g *Graph) NumNodes() int {
	n := 0
	for _, b := range g.Blocks {
		n += len(b.Nodes)
	}
	return n
}

// String renders the whole graph as a readable listing.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %s (entry %s)\n", g.Name, g.Blocks[g.Entry].Name)
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "block %s:\n", b.Name)
		for _, n := range b.Nodes {
			fmt.Fprintf(&sb, "  %s\n", n)
		}
		b.LiveOuts(func(s string, def NodeID) bool {
			fmt.Fprintf(&sb, "  %s <- n%d\n", s, def)
			return true
		})
		if b.HasBranch() {
			fmt.Fprintf(&sb, "  br n%d ? %s : %s\n",
				b.Nodes[b.Branch].Args[0], g.Blocks[b.Succs[0]].Name, g.Blocks[b.Succs[1]].Name)
		} else if len(b.Succs) == 1 {
			fmt.Fprintf(&sb, "  jmp %s\n", g.Blocks[b.Succs[0]].Name)
		} else {
			fmt.Fprintf(&sb, "  halt\n")
		}
	}
	return sb.String()
}

// EvalOp applies the pure ALU semantics of op to the operands a, b and
// c; an op that reads fewer operands ignores the rest. ok is false for
// an opcode with no pure ALU semantics (memory, symbol, constant and
// control opcodes; NoALUError describes the refusal). It is the one
// scalar ALU: the interpreter, the CPU baseline, the static constant
// propagation and the simulator all evaluate through it.
func EvalOp(op Opcode, a, b, c int32) (v int32, ok bool) {
	switch op {
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	case OpMulH:
		return int32((int64(a) * int64(b)) >> 32), true
	case OpAnd:
		return a & b, true
	case OpOr:
		return a | b, true
	case OpXor:
		return a ^ b, true
	case OpShl:
		return a << (uint32(b) & 31), true
	case OpShr:
		return int32(uint32(a) >> (uint32(b) & 31)), true
	case OpSra:
		return a >> (uint32(b) & 31), true
	case OpLt:
		return b2i(a < b), true
	case OpLe:
		return b2i(a <= b), true
	case OpEq:
		return b2i(a == b), true
	case OpNe:
		return b2i(a != b), true
	case OpGe:
		return b2i(a >= b), true
	case OpGt:
		return b2i(a > b), true
	case OpMin:
		return min(a, b), true
	case OpMax:
		return max(a, b), true
	case OpAbs:
		if a < 0 {
			return -a, true
		}
		return a, true
	case OpNeg:
		return -a, true
	case OpSelect:
		if a != 0 {
			return b, true
		}
		return c, true
	case OpMove:
		return a, true
	}
	return 0, false
}

// NoALUError is the error for an opcode EvalOp refuses.
func NoALUError(op Opcode) error {
	return fmt.Errorf("cdfg: opcode %s has no pure ALU semantics", op)
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
