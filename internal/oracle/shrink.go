package oracle

import (
	"repro/internal/cdfg"
)

// FailFn reports whether a candidate graph still exhibits the failure
// being minimized. It must be deterministic; the shrinker calls it on
// verifier-clean graphs that interpret without error.
type FailFn func(g *cdfg.Graph, mem cdfg.Memory) bool

// Shrink greedily minimizes a failing graph: it repeatedly applies the
// cdfg graph-surgery transformations (straighten a branch, drop a
// live-out, drop a store, bypass a node, shrink a constant), keeps any
// candidate that still verifies, still interprets cleanly, and still
// fails, and stops at a fixpoint or after maxRounds accepted steps.
// The initial memory is held fixed; only the graph shrinks.
//
// The result is the smallest graph found — typically a handful of nodes
// for real mapper bugs, which is what makes the testdata reproducers
// readable and fast to replay.
//
// Shrink is the uninstrumented form; Pipeline.Shrink performs the same
// minimization and additionally emits per-step events to the pipeline's
// recorder.
func Shrink(g *cdfg.Graph, mem cdfg.Memory, fails FailFn, maxRounds int) *cdfg.Graph {
	return (&Pipeline{}).Shrink(g, mem, fails, maxRounds)
}

// shrinkStep returns the first strictly smaller failing candidate, or nil
// at a fixpoint. Transformations are tried in a deterministic order from
// coarsest (control flow) to finest (single constants).
func shrinkStep(g *cdfg.Graph, mem cdfg.Memory, fails FailFn) *cdfg.Graph {
	try := func(mutate func(*cdfg.Graph) bool) *cdfg.Graph {
		c := g.Clone()
		if !mutate(c) {
			return nil
		}
		cdfg.EliminateDeadNodes(c)
		cdfg.RemoveUnreachable(c)
		if !smaller(c, g) {
			return nil
		}
		if cdfg.Verify(c) != nil {
			return nil
		}
		if _, err := cdfg.Interp(c, mem.Clone()); err != nil {
			return nil
		}
		if !fails(c, mem) {
			return nil
		}
		return c
	}

	// Straighten branches: removes whole loop bodies or arms at once.
	for bb := range g.Blocks {
		for _, takeFirst := range []bool{false, true} {
			bb, takeFirst := cdfg.BBID(bb), takeFirst
			if c := try(func(c *cdfg.Graph) bool { return cdfg.Straighten(c, bb, takeFirst) }); c != nil {
				return c
			}
		}
	}
	// Drop live-outs: frees the defining chains for dead-code removal.
	for bb, b := range g.Blocks {
		var c *cdfg.Graph
		b.LiveOuts(func(sym string, _ cdfg.NodeID) bool {
			c = try(func(c *cdfg.Graph) bool {
				delete(c.Blocks[bb].LiveOut, sym)
				return true
			})
			return c == nil
		})
		if c != nil {
			return c
		}
	}
	// Drop stores: each store anchors an address and a value chain.
	for bb, b := range g.Blocks {
		for _, n := range b.Nodes {
			if n.Op != cdfg.OpStore {
				continue
			}
			bb, id := cdfg.BBID(bb), n.ID
			if c := try(func(c *cdfg.Graph) bool {
				return cdfg.RemoveNodes(c, bb, func(x cdfg.NodeID) bool { return x == id })
			}); c != nil {
				return c
			}
		}
	}
	// Bypass nodes: forward a node's first operand to its users.
	for bb, b := range g.Blocks {
		for _, n := range b.Nodes {
			if n.Op == cdfg.OpConst || n.Op == cdfg.OpSym || n.Op == cdfg.OpStore || n.Op == cdfg.OpBr {
				continue
			}
			bb, id := cdfg.BBID(bb), n.ID
			if c := try(func(c *cdfg.Graph) bool { return cdfg.BypassNode(c, bb, id) }); c != nil {
				return c
			}
		}
	}
	// Shrink constants toward zero: reduces trip counts and addresses.
	for bb, b := range g.Blocks {
		for _, n := range b.Nodes {
			if n.Op != cdfg.OpConst || n.Val == 0 {
				continue
			}
			bb, id := cdfg.BBID(bb), n.ID
			for _, v := range []int32{0, 1, n.Val / 2} {
				v := v
				if v == n.Val {
					continue
				}
				if c := try(func(c *cdfg.Graph) bool {
					c.Blocks[bb].Nodes[id].Val = v
					return true
				}); c != nil {
					return c
				}
			}
		}
	}
	return nil
}

// smaller orders graphs by node count, then block count, then total
// constant magnitude — the measure the greedy shrinker descends.
func smaller(a, b *cdfg.Graph) bool {
	an, bn := a.NumNodes(), b.NumNodes()
	if an != bn {
		return an < bn
	}
	if len(a.Blocks) != len(b.Blocks) {
		return len(a.Blocks) < len(b.Blocks)
	}
	return constMass(a) < constMass(b)
}

func constMass(g *cdfg.Graph) int64 {
	var mass int64
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if n.Op == cdfg.OpConst {
				v := int64(n.Val)
				if v < 0 {
					v = -v
				}
				mass += v
			}
		}
	}
	return mass
}
