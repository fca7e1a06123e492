package mapcache_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cdfg"
	"repro/internal/kernels"
	"repro/internal/mapcache"
)

// permuteGraph returns an isomorphic, semantically identical relabeling of
// g: blocks are shuffled (IDs, order, names), each block's nodes are
// renumbered along a random order that respects dataflow and the
// interpreter's memory-op ordering (stores are barriers; loads between two
// stores may swap), commutative operands are randomly swapped, and the
// graph is renamed. The cache key records all of it, so every output of
// this is a different key.
func permuteGraph(t *testing.T, g *cdfg.Graph, rng *rand.Rand) *cdfg.Graph {
	t.Helper()
	ng := g.Clone()
	ng.Name = fmt.Sprintf("perm-%d", rng.Int63())

	// Random block permutation.
	bp := rng.Perm(len(ng.Blocks)) // bp[old] = new position
	blocks := make([]*cdfg.BasicBlock, len(ng.Blocks))
	for old, b := range ng.Blocks {
		b.ID = cdfg.BBID(bp[old])
		b.Name = fmt.Sprintf("blk_%d_%d", bp[old], rng.Intn(1000))
		for i, s := range b.Succs {
			b.Succs[i] = cdfg.BBID(bp[s])
		}
		blocks[bp[old]] = b
	}
	ng.Blocks = blocks
	ng.Entry = cdfg.BBID(bp[ng.Entry])

	for _, b := range ng.Blocks {
		permuteBlockNodes(b, rng)
	}
	if err := cdfg.Verify(ng); err != nil {
		t.Fatalf("permuted graph is invalid (test bug): %v", err)
	}
	return ng
}

// commutes holds the binary opcodes whose two arguments may be swapped.
var commutes = map[cdfg.Opcode]bool{
	cdfg.OpAdd: true, cdfg.OpMul: true, cdfg.OpMulH: true, cdfg.OpAnd: true, cdfg.OpOr: true,
	cdfg.OpXor: true, cdfg.OpEq: true, cdfg.OpNe: true, cdfg.OpMin: true, cdfg.OpMax: true,
}

func permuteBlockNodes(b *cdfg.BasicBlock, rng *rand.Rand) {
	n := len(b.Nodes)
	if n == 0 {
		return
	}
	// Dependencies: args plus the memory chain (load→prev store,
	// store→prev store and loads since).
	deps := make([][]int, n)
	for i, nd := range b.Nodes {
		for _, a := range nd.Args {
			deps[i] = append(deps[i], int(a))
		}
	}
	lastStore := -1
	var loads []int
	for i, nd := range b.Nodes {
		switch nd.Op {
		case cdfg.OpLoad:
			if lastStore >= 0 {
				deps[i] = append(deps[i], lastStore)
			}
			loads = append(loads, i)
		case cdfg.OpStore:
			if lastStore >= 0 {
				deps[i] = append(deps[i], lastStore)
			}
			deps[i] = append(deps[i], loads...)
			lastStore = i
			loads = loads[:0]
		}
	}
	indeg := make([]int, n)
	succs := make([][]int, n)
	for i, ds := range deps {
		seen := map[int]bool{}
		for _, d := range ds {
			if !seen[d] {
				seen[d] = true
				indeg[i]++
				succs[d] = append(succs[d], i)
			}
		}
	}
	var ready []int
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n) // new position -> old id
	for len(ready) > 0 {
		k := rng.Intn(len(ready))
		picked := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, picked)
		for _, s := range succs[picked] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	newID := make([]cdfg.NodeID, n)
	for pos, old := range order {
		newID[old] = cdfg.NodeID(pos)
	}
	nodes := make([]*cdfg.Node, n)
	for pos, old := range order {
		nd := b.Nodes[old]
		nd.ID = cdfg.NodeID(pos)
		for ai, a := range nd.Args {
			nd.Args[ai] = newID[a]
		}
		if commutes[nd.Op] && rng.Intn(2) == 1 {
			nd.Args[0], nd.Args[1] = nd.Args[1], nd.Args[0]
		}
		nodes[pos] = nd
	}
	b.Nodes = nodes
	for s, id := range b.LiveOut {
		b.LiveOut[s] = newID[id]
	}
	if b.Branch != cdfg.None {
		b.Branch = newID[b.Branch]
	}
}

func testGraphs(t *testing.T) map[string]*cdfg.Graph {
	t.Helper()
	gs := map[string]*cdfg.Graph{}
	for _, k := range kernels.All() {
		gs[k.Name] = k.Build()
	}
	cfg := cdfg.DefaultGenConfig()
	for seed := int64(1); seed <= 8; seed++ {
		g, _ := cdfg.Generate(rand.New(rand.NewSource(seed)), cfg)
		gs[fmt.Sprintf("gen-%d", seed)] = g
	}
	return gs
}

// digest returns g's graph text and the graph half of its cache key.
func digest(t *testing.T, g *cdfg.Graph) ([]byte, [sha256.Size]byte) {
	t.Helper()
	text, sum, err := mapcache.GraphDigest(g)
	if err != nil {
		t.Fatal(err)
	}
	return text, sum
}

// TestCanonicalHashStable: the graph key is a pure function of the graph's
// text: keying twice, keying a deep clone, and keying the graph rebuilt
// from its own text all agree, and that rebuilt graph renders the same
// text again.
func TestCanonicalHashStable(t *testing.T) {
	for name, g := range testGraphs(t) {
		g := g
		t.Run(name, func(t *testing.T) {
			text, sum := digest(t, g)
			if _, again := digest(t, g); again != sum {
				t.Fatal("keying the same graph twice produced different keys")
			}
			if _, cs := digest(t, g.Clone()); cs != sum {
				t.Fatal("a deep clone keys differently from the original")
			}
			rg, err := cdfg.UnmarshalText(text)
			if err != nil {
				t.Fatalf("graph text is not a valid graph: %v", err)
			}
			rtext, rsum := digest(t, rg)
			if !bytes.Equal(rtext, text) || rsum != sum {
				t.Fatal("MarshalText round-trip changed the graph text or its key")
			}
		})
	}
}

// TestCanonicalHashInvariance: the key is invariant to exactly what the
// graph text does not record. A random relabeling (node renumbering,
// commutative-operand swaps, block reordering, renames) keeps its own key
// across a clone and a text round trip, but never shares the original's
// key: relabeled graphs are cached as distinct entries.
func TestCanonicalHashInvariance(t *testing.T) {
	for name, g := range testGraphs(t) {
		g := g
		t.Run(name, func(t *testing.T) {
			_, base := digest(t, g)
			for trial := 0; trial < 20; trial++ {
				rng := rand.New(rand.NewSource(int64(1000 + trial)))
				pg := permuteGraph(t, g, rng)
				ptext, psum := digest(t, pg)
				if psum == base {
					t.Fatalf("trial %d: relabeling kept the original's key", trial)
				}
				if _, cs := digest(t, pg.Clone()); cs != psum {
					t.Fatalf("trial %d: cloning the relabeled graph changed its key", trial)
				}
				rg, err := cdfg.UnmarshalText(ptext)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if _, rs := digest(t, rg); rs != psum {
					t.Fatalf("trial %d: round-tripping the relabeled graph changed its key", trial)
				}
			}
		})
	}
}

// TestCanonicalHashInequality: structural surgery — bypassing a node,
// eliminating dead nodes — must change the key whenever it changes the
// graph.
func TestCanonicalHashInequality(t *testing.T) {
	for name, g := range testGraphs(t) {
		g := g
		t.Run(name, func(t *testing.T) {
			origText, base := digest(t, g)
			mutated := 0
			for bb := range g.Blocks {
				for id := range g.Blocks[bb].Nodes {
					mg := g.Clone()
					if !cdfg.BypassNode(mg, cdfg.BBID(bb), cdfg.NodeID(id)) {
						continue
					}
					if err := cdfg.Verify(mg); err != nil {
						continue
					}
					// Bypassing a node nothing uses rewrites no edges;
					// only count mutations that actually changed the graph.
					mt, ms := digest(t, mg)
					if bytes.Equal(mt, origText) {
						continue
					}
					mutated++
					if ms == base {
						t.Fatalf("bypassing b%d n%d left the key unchanged", bb, id)
					}
					if mutated >= 5 {
						break
					}
				}
				if mutated >= 5 {
					break
				}
			}
			dg := g.Clone()
			if cdfg.EliminateDeadNodes(dg) > 0 {
				if _, ds := digest(t, dg); ds == base {
					t.Fatal("dead-node elimination changed the graph but not the key")
				}
			}
		})
	}
}
