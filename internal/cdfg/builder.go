package cdfg

import "fmt"

// Builder assembles a Graph incrementally. Blocks are created with Block
// and wired with Jump/BranchIf; Finish validates and returns the graph.
//
// The builder is the frontend the kernel generators use in place of a
// compiler: it plays the role of the paper's LLVM-based flow that lowers C
// kernels to CDFGs.
type Builder struct {
	g      *Graph
	byName map[string]*BlockBuilder
	order  []*BlockBuilder
}

// NewBuilder returns a builder for a graph with the given kernel name.
func NewBuilder(name string) *Builder {
	return &Builder{
		g:      &Graph{Name: name, Entry: None},
		byName: map[string]*BlockBuilder{},
	}
}

// Block creates (or returns the existing) basic block with the given name.
// The first block created becomes the entry block unless SetEntry is called.
func (b *Builder) Block(name string) *BlockBuilder {
	if bb, ok := b.byName[name]; ok {
		return bb
	}
	blk := &BasicBlock{
		ID:      BBID(len(b.g.Blocks)),
		Name:    name,
		LiveOut: map[string]NodeID{},
		Branch:  None,
	}
	b.g.Blocks = append(b.g.Blocks, blk)
	bb := &BlockBuilder{b: b, blk: blk}
	b.byName[name] = bb
	b.order = append(b.order, bb)
	if b.g.Entry == None {
		b.g.Entry = blk.ID
	}
	return bb
}

// Finish verifies the graph and returns it. It panics on malformed graphs:
// the builder is used by in-repo kernel generators where a malformed graph
// is a programming error, not an input error.
func (b *Builder) Finish() *Graph {
	if err := Verify(b.g); err != nil {
		panic(fmt.Sprintf("cdfg: builder produced invalid graph: %v", err))
	}
	return b.g
}

// Value is a handle to a node's result, used as operands in the builder API.
type Value struct {
	bb *BlockBuilder
	id NodeID
}

// BlockBuilder adds nodes to one basic block.
type BlockBuilder struct {
	b   *Builder
	blk *BasicBlock

	consts map[int32]NodeID  // value-numbered constants
	syms   map[string]NodeID // value-numbered symbol reads
}

func (bb *BlockBuilder) add(n *Node) Value {
	n.ID = NodeID(len(bb.blk.Nodes))
	bb.blk.Nodes = append(bb.blk.Nodes, n)
	return Value{bb: bb, id: n.ID}
}

func (bb *BlockBuilder) args(vs ...Value) []NodeID {
	ids := make([]NodeID, len(vs))
	for i, v := range vs {
		if v.bb != bb {
			panic(fmt.Sprintf("cdfg: value n%d from block %q used in block %q",
				v.id, v.bb.blk.Name, bb.blk.Name))
		}
		ids[i] = v.id
	}
	return ids
}

// Const returns a node producing the constant c. Equal constants within a
// block share one node.
func (bb *BlockBuilder) Const(c int32) Value {
	if bb.consts == nil {
		bb.consts = map[int32]NodeID{}
	}
	if id, ok := bb.consts[c]; ok {
		return Value{bb: bb, id: id}
	}
	v := bb.add(&Node{Op: OpConst, Val: c})
	bb.consts[c] = v.id
	return v
}

// Sym returns a node reading the symbol variable named s at block entry.
// Repeated reads of the same symbol share one node.
func (bb *BlockBuilder) Sym(s string) Value {
	if bb.syms == nil {
		bb.syms = map[string]NodeID{}
	}
	if id, ok := bb.syms[s]; ok {
		return Value{bb: bb, id: id}
	}
	v := bb.add(&Node{Op: OpSym, Sym: s})
	bb.syms[s] = v.id
	return v
}

// OpN adds a node with the given opcode and operands.
func (bb *BlockBuilder) OpN(op Opcode, vs ...Value) Value {
	if len(vs) != op.NumArgs() {
		panic(fmt.Sprintf("cdfg: %s takes %d args, got %d", op, op.NumArgs(), len(vs)))
	}
	return bb.add(&Node{Op: op, Args: bb.args(vs...)})
}

// Arithmetic and logic conveniences.

func (bb *BlockBuilder) Add(a, c Value) Value       { return bb.OpN(OpAdd, a, c) }
func (bb *BlockBuilder) Sub(a, c Value) Value       { return bb.OpN(OpSub, a, c) }
func (bb *BlockBuilder) Mul(a, c Value) Value       { return bb.OpN(OpMul, a, c) }
func (bb *BlockBuilder) MulH(a, c Value) Value      { return bb.OpN(OpMulH, a, c) }
func (bb *BlockBuilder) And(a, c Value) Value       { return bb.OpN(OpAnd, a, c) }
func (bb *BlockBuilder) Or(a, c Value) Value        { return bb.OpN(OpOr, a, c) }
func (bb *BlockBuilder) Xor(a, c Value) Value       { return bb.OpN(OpXor, a, c) }
func (bb *BlockBuilder) Shl(a, c Value) Value       { return bb.OpN(OpShl, a, c) }
func (bb *BlockBuilder) Shr(a, c Value) Value       { return bb.OpN(OpShr, a, c) }
func (bb *BlockBuilder) Sra(a, c Value) Value       { return bb.OpN(OpSra, a, c) }
func (bb *BlockBuilder) Lt(a, c Value) Value        { return bb.OpN(OpLt, a, c) }
func (bb *BlockBuilder) Le(a, c Value) Value        { return bb.OpN(OpLe, a, c) }
func (bb *BlockBuilder) Eq(a, c Value) Value        { return bb.OpN(OpEq, a, c) }
func (bb *BlockBuilder) Ne(a, c Value) Value        { return bb.OpN(OpNe, a, c) }
func (bb *BlockBuilder) Ge(a, c Value) Value        { return bb.OpN(OpGe, a, c) }
func (bb *BlockBuilder) Gt(a, c Value) Value        { return bb.OpN(OpGt, a, c) }
func (bb *BlockBuilder) Min(a, c Value) Value       { return bb.OpN(OpMin, a, c) }
func (bb *BlockBuilder) Max(a, c Value) Value       { return bb.OpN(OpMax, a, c) }
func (bb *BlockBuilder) Abs(a Value) Value          { return bb.OpN(OpAbs, a) }
func (bb *BlockBuilder) Neg(a Value) Value          { return bb.OpN(OpNeg, a) }
func (bb *BlockBuilder) Select(c, a, d Value) Value { return bb.OpN(OpSelect, c, a, d) }

// AddC adds a constant to a value.
func (bb *BlockBuilder) AddC(a Value, c int32) Value { return bb.Add(a, bb.Const(c)) }

// MulC multiplies a value by a constant.
func (bb *BlockBuilder) MulC(a Value, c int32) Value { return bb.Mul(a, bb.Const(c)) }

// Load reads data memory at the given address node.
func (bb *BlockBuilder) Load(addr Value) Value { return bb.OpN(OpLoad, addr) }

// Store writes val to data memory at addr.
func (bb *BlockBuilder) Store(addr, val Value) { bb.OpN(OpStore, addr, val) }

// SetSym publishes v as the value of symbol s at block exit.
func (bb *BlockBuilder) SetSym(s string, v Value) {
	if v.bb != bb {
		panic(fmt.Sprintf("cdfg: SetSym(%q) with value from block %q in block %q",
			s, v.bb.blk.Name, bb.blk.Name))
	}
	bb.blk.LiveOut[s] = v.id
}

// Jump makes execution continue at the named block.
func (bb *BlockBuilder) Jump(name string) {
	if len(bb.blk.Succs) != 0 || bb.blk.Branch != None {
		panic(fmt.Sprintf("cdfg: block %q already terminated", bb.blk.Name))
	}
	bb.blk.Succs = []BBID{bb.b.Block(name).blk.ID}
}

// BranchIf terminates the block with a conditional branch: cond != 0
// continues at taken, otherwise at fallthrough.
func (bb *BlockBuilder) BranchIf(cond Value, taken, fallthrough_ string) {
	if len(bb.blk.Succs) != 0 || bb.blk.Branch != None {
		panic(fmt.Sprintf("cdfg: block %q already terminated", bb.blk.Name))
	}
	br := bb.OpN(OpBr, cond)
	bb.blk.Branch = br.id
	bb.blk.Succs = []BBID{bb.b.Block(taken).blk.ID, bb.b.Block(fallthrough_).blk.ID}
}
