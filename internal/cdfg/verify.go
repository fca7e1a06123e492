package cdfg

import (
	"fmt"
	"math/bits"
	"slices"
)

// Verify checks the structural invariants of a graph:
//
//   - node ids are dense and match slice positions;
//   - every argument refers to an earlier node of the same block (the node
//     list is a topological order of the DFG);
//   - argument counts match opcodes, and only value-producing nodes are used
//     as arguments or live-outs;
//   - branch/successor shape is consistent;
//   - every symbol read is defined on every path from the entry (a symbol
//     written on some but not all incoming paths is rejected).
func Verify(g *Graph) error {
	_, err := verify(g)
	return err
}

// verify is Verify returning the symbol slots it assigned, which Interp
// lowers the graph with.
func verify(g *Graph) (*symtab, error) {
	if err := verifyStructure(g); err != nil {
		return nil, err
	}
	st := internSymbols(g)
	if err := verifySymbolDefs(g, st); err != nil {
		return nil, err
	}
	return st, nil
}

func verifyStructure(g *Graph) error {
	if len(g.Blocks) == 0 {
		return fmt.Errorf("graph %q has no blocks", g.Name)
	}
	if g.Entry < 0 || int(g.Entry) >= len(g.Blocks) {
		return fmt.Errorf("graph %q entry %d out of range", g.Name, g.Entry)
	}
	names := map[string]bool{}
	for bi, b := range g.Blocks {
		if b.ID != BBID(bi) {
			return fmt.Errorf("block %q: id %d at position %d", b.Name, b.ID, bi)
		}
		if names[b.Name] {
			return fmt.Errorf("duplicate block name %q", b.Name)
		}
		names[b.Name] = true
		if err := verifyBlock(g, b); err != nil {
			return fmt.Errorf("block %q: %w", b.Name, err)
		}
	}
	return nil
}

func verifyBlock(g *Graph, b *BasicBlock) error {
	for i, n := range b.Nodes {
		if n.ID != NodeID(i) {
			return fmt.Errorf("node id %d at position %d", n.ID, i)
		}
		if !n.Op.Valid() {
			return fmt.Errorf("n%d: invalid opcode", n.ID)
		}
		if n.Op == OpMove {
			return fmt.Errorf("n%d: OpMove is reserved for the mapper", n.ID)
		}
		if len(n.Args) != n.Op.NumArgs() {
			return fmt.Errorf("n%d: %s takes %d args, has %d", n.ID, n.Op, n.Op.NumArgs(), len(n.Args))
		}
		for _, a := range n.Args {
			if a < 0 || a >= NodeID(i) {
				return fmt.Errorf("n%d: arg n%d not an earlier node", n.ID, a)
			}
			if !b.Nodes[a].Op.HasResult() {
				return fmt.Errorf("n%d: arg n%d (%s) produces no value", n.ID, a, b.Nodes[a].Op)
			}
		}
		if n.Op == OpSym && n.Sym == "" {
			return fmt.Errorf("n%d: sym node without a name", n.ID)
		}
	}
	// The live-outs are checked in map order; only a violation pays for
	// the sorted walk that keeps the first-reported one deterministic.
	bad := false
	for _, id := range b.LiveOut {
		bad = bad || id < 0 || int(id) >= len(b.Nodes) || !b.Nodes[id].Op.HasResult()
	}
	if bad {
		var err error
		b.LiveOuts(func(s string, id NodeID) bool {
			if id < 0 || int(id) >= len(b.Nodes) {
				err = fmt.Errorf("live-out %q: node n%d out of range", s, id)
			} else if !b.Nodes[id].Op.HasResult() {
				err = fmt.Errorf("live-out %q: node n%d produces no value", s, id)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	for _, s := range b.Succs {
		if s < 0 || int(s) >= len(g.Blocks) {
			return fmt.Errorf("successor %d out of range", s)
		}
	}
	if b.HasBranch() {
		if b.Branch < 0 || int(b.Branch) >= len(b.Nodes) || b.Nodes[b.Branch].Op != OpBr {
			return fmt.Errorf("branch node n%d is not an OpBr", b.Branch)
		}
		if len(b.Succs) != 2 {
			return fmt.Errorf("branch block needs 2 successors, has %d", len(b.Succs))
		}
	} else {
		if len(b.Succs) > 1 {
			return fmt.Errorf("non-branch block with %d successors", len(b.Succs))
		}
		for _, n := range b.Nodes {
			if n.Op == OpBr {
				return fmt.Errorf("n%d: OpBr node but block has no branch set", n.ID)
			}
		}
	}
	return nil
}

// symtab interns a graph's symbol names to dense slots, in order of first
// appearance: each block's sym reads in node order, then its live-outs by
// name.
type symtab struct {
	names  []string
	blocks []symBlock
}

type symBlock struct {
	reads []int32   // the slot of each OpSym node, in node order
	live  []liveOut // the live-outs, sorted by symbol name
}

// liveOut publishes node's value under the symbol in slot.
type liveOut struct{ slot, node int32 }

func internSymbols(g *Graph) *symtab {
	st := &symtab{blocks: make([]symBlock, len(g.Blocks))}
	slot := map[string]int32{}
	intern := func(s string) int32 {
		k, ok := slot[s]
		if !ok {
			k = int32(len(st.names))
			slot[s] = k
			st.names = append(st.names, s)
		}
		return k
	}
	nreads, nlive, widest := 0, 0, 0
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if n.Op == OpSym {
				nreads++
			}
		}
		nlive += len(b.LiveOut)
		widest = max(widest, len(b.LiveOut))
	}
	// Every symbol a valid graph reads is some block's live-out, so nlive
	// bounds its symbol count.
	st.names = make([]string, 0, nlive)
	reads := make([]int32, 0, nreads)
	live := make([]liveOut, 0, nlive)
	names := make([]string, 0, widest)
	for bi, b := range g.Blocks {
		r0, l0 := len(reads), len(live)
		for _, n := range b.Nodes {
			if n.Op == OpSym {
				reads = append(reads, intern(n.Sym))
			}
		}
		names = names[:0]
		for s := range b.LiveOut {
			names = append(names, s)
		}
		slices.Sort(names)
		for _, s := range names {
			live = append(live, liveOut{intern(s), int32(b.LiveOut[s])})
		}
		st.blocks[bi] = symBlock{reads: reads[r0:], live: live[l0:]}
	}
	return st
}

// bitset is a set of symbol slots.
type bitset []uint64

func words(n int) int { return (n + 63) / 64 }

func (s bitset) has(i int32) bool { return s[i>>6]&(1<<(i&63)) != 0 }
func (s bitset) set(i int32)      { s[i>>6] |= 1 << (i & 63) }

// verifySymbolDefs performs a forward may-not-be-defined dataflow analysis:
// a symbol read in block b must be defined on every path reaching b. The
// sets are bitsets over st's slots.
func verifySymbolDefs(g *Graph, st *symtab) error {
	w := words(len(st.names))
	nb := len(g.Blocks)
	buf := make(bitset, 3*nb*w+w)
	// defined[b] = set of symbols guaranteed defined at entry of b.
	// Meet is intersection over predecessors; entry starts empty.
	row := func(base, b int) bitset { return buf[(base*nb+b)*w : (base*nb+b+1)*w] }
	const defined, reads, writes = 0, 1, 2
	out := buf[3*nb*w:]
	for bi := range g.Blocks {
		for _, k := range st.blocks[bi].reads {
			row(reads, bi).set(k)
		}
		for _, lo := range st.blocks[bi].live {
			row(writes, bi).set(lo.slot)
		}
	}
	reached := make([]bool, nb)
	reached[g.Entry] = true

	change := true
	for change {
		change = false
		for bi, b := range g.Blocks {
			if !reached[bi] {
				continue
			}
			def, wr := row(defined, bi), row(writes, bi)
			for i := range out {
				out[i] = def[i] | wr[i]
			}
			for _, succ := range b.Succs {
				sd := row(defined, int(succ))
				if !reached[succ] {
					reached[succ] = true
					copy(sd, out)
					change = true
					continue
				}
				// Intersect.
				for i := range sd {
					if x := sd[i] & out[i]; x != sd[i] {
						sd[i] = x
						change = true
					}
				}
			}
		}
	}

	for bi, b := range g.Blocks {
		if !reached[bi] {
			continue // unreachable blocks are allowed but never checked at runtime
		}
		var missing []string
		def, rd := row(defined, bi), row(reads, bi)
		for i := range rd {
			for m := rd[i] &^ def[i]; m != 0; m &= m - 1 {
				missing = append(missing, st.names[i*64+bits.TrailingZeros64(m)])
			}
		}
		if len(missing) > 0 {
			slices.Sort(missing)
			return fmt.Errorf("block %q reads possibly-undefined symbols %v", b.Name, missing)
		}
	}
	return nil
}
