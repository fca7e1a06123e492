package cdfg

import "fmt"

// Memory is the word-addressed data memory shared by the interpreter, the
// CPU model and the CGRA simulator.
type Memory []int32

// Load returns the word at addr.
func (m Memory) Load(addr int32) (int32, error) {
	if addr < 0 || int(addr) >= len(m) {
		return 0, fmt.Errorf("cdfg: load address %d out of [0,%d)", addr, len(m))
	}
	return m[addr], nil
}

// Store writes v at addr.
func (m Memory) Store(addr, v int32) error {
	if addr < 0 || int(addr) >= len(m) {
		return fmt.Errorf("cdfg: store address %d out of [0,%d)", addr, len(m))
	}
	m[addr] = v
	return nil
}

// Clone returns a deep copy of the memory.
func (m Memory) Clone() Memory {
	c := make(Memory, len(m))
	copy(c, m)
	return c
}

// Trace records what an interpretation executed; all counts are dynamic.
type Trace struct {
	Blocks   int            // basic blocks executed
	Nodes    int            // nodes evaluated (incl. const/sym)
	Ops      int            // ALU operations (excl. const/sym/mem/branch)
	Loads    int            // memory loads
	Stores   int            // memory stores
	Branches int            // conditional branches
	PerBlock map[BBID]int   // executions per block
	PerOp    map[Opcode]int // evaluations per opcode
}

// InterpLimit bounds the number of basic-block executions so that a buggy
// kernel cannot loop forever.
const InterpLimit = 10_000_000

// Interp executes the graph on the given memory with sequential reference
// semantics and returns an execution trace. The memory is modified in
// place. Interp is the ground truth the CGRA simulator and the CPU model
// are validated against.
//
// Each call lowers the graph once (see lowerGraph) and then runs the
// lowered form, which allocates nothing per executed block or node: the
// trace's counts are derived from the per-block execution counts when the
// run returns.
func Interp(g *Graph, mem Memory) (*Trace, error) { return InterpBudget(g, mem, InterpLimit) }

// InterpBudget is Interp with a limit of blocks basic-block executions
// in place of InterpLimit: a caller that runs many untrusted graphs (a
// fuzz target) bounds the time each one spins.
func InterpBudget(g *Graph, mem Memory, blocks int) (*Trace, error) {
	st, err := verify(g)
	if err != nil {
		return nil, err
	}
	p := lowerGraph(g, st)
	vals := make([]int32, p.width)
	syms := make([]int32, len(st.names))
	defined := make(bitset, words(len(st.names)))
	runs := make([]int, len(p.blocks))
	cur := g.Entry
	for steps := 0; ; steps++ {
		if steps >= blocks {
			return p.trace(runs, cur, -1), fmt.Errorf("cdfg: interpretation of %q exceeded %d blocks", g.Name, blocks)
		}
		b := &p.blocks[cur]
		runs[cur]++
		var branchTaken bool
		for i := range b.ops {
			o := &b.ops[i]
			switch o.op {
			case OpConst:
				vals[i] = o.in[0]
			case OpSym:
				slot := o.in[0]
				if !defined.has(slot) {
					return p.trace(runs, cur, i), fmt.Errorf("cdfg: block %q reads undefined symbol %q", g.Blocks[cur].Name, st.names[slot])
				}
				vals[i] = syms[slot]
			case OpLoad:
				v, err := mem.Load(vals[o.in[0]])
				if err != nil {
					return p.trace(runs, cur, i), fmt.Errorf("block %q n%d: %w", g.Blocks[cur].Name, i, err)
				}
				vals[i] = v
			case OpStore:
				if err := mem.Store(vals[o.in[0]], vals[o.in[1]]); err != nil {
					return p.trace(runs, cur, i), fmt.Errorf("block %q n%d: %w", g.Blocks[cur].Name, i, err)
				}
			case OpBr:
				branchTaken = vals[o.in[0]] != 0
			default:
				v, ok := EvalOp(o.op, vals[o.in[0]], vals[o.in[1]], vals[o.in[2]])
				if !ok {
					return p.trace(runs, cur, i), fmt.Errorf("block %q n%d: %w", g.Blocks[cur].Name, i, NoALUError(o.op))
				}
				vals[i] = v
			}
		}
		for _, lo := range b.live {
			syms[lo.slot] = vals[lo.node]
			defined.set(lo.slot)
		}
		switch {
		case b.branch:
			if branchTaken {
				cur = b.succs[0]
			} else {
				cur = b.succs[1]
			}
		case b.jump:
			cur = b.succs[0]
		default:
			return p.trace(runs, cur, -1), nil
		}
	}
}

// lowered is a graph compiled for Interp: symbols interned to dense slots
// and each block a flat op list with operands resolved to value-buffer
// indices.
type lowered struct {
	blocks []loweredBlock
	width  int // the largest block's node count: the value buffer's size
}

type loweredBlock struct {
	ops    []loweredOp
	live   []liveOut // the block's live-outs as (slot, node) pairs
	succs  [2]BBID
	branch bool // ends in a conditional branch on succs
	jump   bool // falls through to succs[0]; neither means halt
}

// loweredOp is one node. Its operands index the block's value buffer
// (unused ones are 0, always a valid index); OpConst keeps its value in
// in[0] and OpSym its symbol's slot.
type loweredOp struct {
	op Opcode
	in [3]int32
}

// lowerGraph compiles a verified graph with the symbol slots st assigned.
func lowerGraph(g *Graph, st *symtab) *lowered {
	p := &lowered{blocks: make([]loweredBlock, len(g.Blocks))}
	ops := make([]loweredOp, g.NumNodes())
	for bi, b := range g.Blocks {
		lb := &p.blocks[bi]
		lb.ops, ops = ops[:len(b.Nodes):len(b.Nodes)], ops[len(b.Nodes):]
		p.width = max(p.width, len(b.Nodes))
		reads := st.blocks[bi].reads
		for i, n := range b.Nodes {
			o := &lb.ops[i]
			o.op = n.Op
			switch n.Op {
			case OpConst:
				o.in[0] = n.Val
			case OpSym:
				o.in[0], reads = reads[0], reads[1:]
			default:
				for k, a := range n.Args {
					o.in[k] = int32(a)
				}
			}
		}
		lb.live = st.blocks[bi].live
		copy(lb.succs[:], b.Succs)
		lb.branch = b.HasBranch()
		lb.jump = !lb.branch && len(b.Succs) == 1
	}
	return p
}

// trace builds the Trace of a run from its per-block execution counts.
// When node fault of block at stopped the run, that execution counts the
// nodes before the fault in full and the faulting node only as evaluated.
func (p *lowered) trace(runs []int, at BBID, fault int) *Trace {
	tr := &Trace{PerBlock: map[BBID]int{}, PerOp: map[Opcode]int{}}
	var perOp [numOpcodes]int
	for bi, k := range runs {
		if k == 0 {
			continue
		}
		tr.Blocks += k
		tr.PerBlock[BBID(bi)] = k
		ops := p.blocks[bi].ops
		if fault >= 0 && BBID(bi) == at {
			for _, o := range ops[:fault] {
				perOp[o.op]++
			}
			k--
		}
		for _, o := range ops {
			perOp[o.op] += k
		}
	}
	for op, k := range perOp {
		tr.Nodes += k
		switch Opcode(op) {
		case OpConst, OpSym:
		case OpLoad:
			tr.Loads = k
		case OpStore:
			tr.Stores = k
		case OpBr:
			tr.Branches = k
		default:
			tr.Ops += k
		}
	}
	if fault >= 0 {
		perOp[p.blocks[at].ops[fault].op]++
		tr.Nodes++
	}
	for op, k := range perOp {
		if k > 0 {
			tr.PerOp[Opcode(op)] = k
		}
	}
	return tr
}
