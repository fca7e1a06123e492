package cdfg

import (
	"fmt"
	"sort"
)

// The map-based interpreter and symbol-definition check that Interp and
// verifySymbolDefs replaced, kept unchanged as the reference the
// differential tests (interp_diff_test.go, FuzzInterp) compare against.

// refVerify is Verify with the map-based symbol-definition check.
func refVerify(g *Graph) error {
	if err := verifyStructure(g); err != nil {
		return err
	}
	return refVerifySymbolDefs(g)
}

// refInterp executes the graph on the given memory with sequential reference
// semantics and returns an execution trace. The memory is modified in
// place. Interp is the ground truth the CGRA simulator and the CPU model
// are validated against.
func refInterp(g *Graph, mem Memory) (*Trace, error) {
	if err := refVerify(g); err != nil {
		return nil, err
	}
	tr := &Trace{PerBlock: map[BBID]int{}, PerOp: map[Opcode]int{}}
	syms := map[string]int32{}
	cur := g.Entry
	vals := []int32{}
	for steps := 0; ; steps++ {
		if steps >= InterpLimit {
			return tr, fmt.Errorf("cdfg: interpretation of %q exceeded %d blocks", g.Name, InterpLimit)
		}
		b := g.Blocks[cur]
		tr.Blocks++
		tr.PerBlock[b.ID]++
		if cap(vals) < len(b.Nodes) {
			vals = make([]int32, len(b.Nodes))
		}
		vals = vals[:len(b.Nodes)]
		var branchTaken bool
		for _, n := range b.Nodes {
			tr.Nodes++
			tr.PerOp[n.Op]++
			switch n.Op {
			case OpConst:
				vals[n.ID] = n.Val
			case OpSym:
				v, ok := syms[n.Sym]
				if !ok {
					return tr, fmt.Errorf("cdfg: block %q reads undefined symbol %q", b.Name, n.Sym)
				}
				vals[n.ID] = v
			case OpLoad:
				v, err := mem.Load(vals[n.Args[0]])
				if err != nil {
					return tr, fmt.Errorf("block %q n%d: %w", b.Name, n.ID, err)
				}
				vals[n.ID] = v
				tr.Loads++
			case OpStore:
				if err := mem.Store(vals[n.Args[0]], vals[n.Args[1]]); err != nil {
					return tr, fmt.Errorf("block %q n%d: %w", b.Name, n.ID, err)
				}
				tr.Stores++
			case OpBr:
				branchTaken = vals[n.Args[0]] != 0
				tr.Branches++
			default:
				args := make([]int32, len(n.Args))
				for i, a := range n.Args {
					args[i] = vals[a]
				}
				v, err := evalArgs(n.Op, args)
				if err != nil {
					return tr, fmt.Errorf("block %q n%d: %w", b.Name, n.ID, err)
				}
				vals[n.ID] = v
				tr.Ops++
			}
		}
		for s, id := range b.LiveOut {
			syms[s] = vals[id]
		}
		switch {
		case b.HasBranch():
			if branchTaken {
				cur = b.Succs[0]
			} else {
				cur = b.Succs[1]
			}
		case len(b.Succs) == 1:
			cur = b.Succs[0]
		default:
			return tr, nil
		}
	}
}

// refVerifySymbolDefs performs a forward may-not-be-defined dataflow analysis:
// a symbol read in block b must be defined on every path reaching b.
func refVerifySymbolDefs(g *Graph) error {
	all := graphSymbols(g)
	idx := map[string]int{}
	for i, s := range all {
		idx[s] = i
	}
	// defined[b] = set of symbols guaranteed defined at entry of b.
	// Meet is intersection over predecessors; entry starts empty.
	defined := make([]map[int]bool, len(g.Blocks))
	reached := make([]bool, len(g.Blocks))
	reached[g.Entry] = true
	defined[g.Entry] = map[int]bool{}

	change := true
	for change {
		change = false
		for _, b := range g.Blocks {
			if !reached[b.ID] {
				continue
			}
			out := map[int]bool{}
			for s := range defined[b.ID] {
				out[s] = true
			}
			for s := range b.LiveOut {
				out[idx[s]] = true
			}
			for _, succ := range b.Succs {
				if !reached[succ] {
					reached[succ] = true
					defined[succ] = refCopySet(out)
					change = true
					continue
				}
				// Intersect.
				for s := range defined[succ] {
					if !out[s] {
						delete(defined[succ], s)
						change = true
					}
				}
			}
		}
	}

	for _, b := range g.Blocks {
		if !reached[b.ID] {
			continue // unreachable blocks are allowed but never checked at runtime
		}
		var missing []string
		for _, s := range b.SymReads() {
			if !defined[b.ID][idx[s]] {
				missing = append(missing, s)
			}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			return fmt.Errorf("block %q reads possibly-undefined symbols %v", b.Name, missing)
		}
	}
	return nil
}

func refCopySet(s map[int]bool) map[int]bool {
	c := make(map[int]bool, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// graphSymbols returns all symbol names appearing anywhere in g, sorted.
func graphSymbols(g *Graph) []string {
	seen := map[string]bool{}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if n.Op == OpSym {
				seen[n.Sym] = true
			}
		}
		for s := range b.LiveOut {
			seen[s] = true
		}
	}
	syms := make([]string, 0, len(seen))
	for s := range seen {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	return syms
}

// evalArgs is EvalOp over an argument slice, as the reference model and
// the table tests hold their operands.
func evalArgs(op Opcode, args []int32) (int32, error) {
	var abc [3]int32
	copy(abc[:], args)
	v, ok := EvalOp(op, abc[0], abc[1], abc[2])
	if !ok {
		return 0, NoALUError(op)
	}
	return v, nil
}
