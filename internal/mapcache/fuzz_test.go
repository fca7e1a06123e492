package mapcache_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/mapcache"
)

// FuzzCanonicalHash drives the graph key with arbitrary marshaled graphs
// and checks the properties a plain-text key rests on:
//
//  1. determinism — the graph text is a fixpoint of a MarshalText /
//     UnmarshalText round trip, so one graph always renders, and keys,
//     the same way;
//  2. separation — a random relabeling (block shuffle, node renumbering,
//     commutative-operand swaps, renames) shares the original's key
//     exactly when it renders the same text.
//
// The checked-in corpus (testdata/fuzz) seeds the search with every
// benchmark kernel and a spread of generated graphs. The name predates
// the plain-text key: it was written for a canonicalizer since removed.
func FuzzCanonicalHash(f *testing.F) {
	for _, k := range kernels.All() {
		g := k.Build()
		txt, err := g.MarshalText()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(txt, int64(1))
	}
	for seed := int64(1); seed <= 4; seed++ {
		g, _ := cdfg.Generate(rand.New(rand.NewSource(seed)), cdfg.DefaultGenConfig())
		txt, err := g.MarshalText()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(txt, seed)
	}
	f.Fuzz(func(t *testing.T, data []byte, permSeed int64) {
		g, err := cdfg.UnmarshalText(data)
		if err != nil {
			t.Skip() // not a well-formed graph
		}
		text, sum, err := mapcache.GraphDigest(g)
		if err != nil {
			t.Fatal(err)
		}
		rg, err := cdfg.UnmarshalText(text)
		if err != nil {
			t.Fatalf("graph text does not unmarshal: %v", err)
		}
		rtext, rsum, err := mapcache.GraphDigest(rg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rtext, text) || rsum != sum {
			t.Fatal("graph text is not a fixpoint of a MarshalText round trip")
		}
		pg := permuteGraph(t, g, rand.New(rand.NewSource(permSeed)))
		ptext, psum, err := mapcache.GraphDigest(pg)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(ptext, text) != (psum == sum) {
			t.Fatalf("relabeling (seed %d): text equal %v, key equal %v", permSeed, bytes.Equal(ptext, text), psum == sum)
		}
	})
}

// FuzzDiskEntry writes arbitrary bytes as the disk entry of one fixed
// request (FIR, HOM32, cab) and opens a fresh cache over the directory.
// Whatever the file holds, GetOrStore must not panic and must return the
// cold compile's image: served from disk when the entry survives every
// check, recomputed otherwise. A verbatim entry must be a disk hit.
//
// The checked-in corpus (testdata/fuzz) holds one real entry plus
// truncated and bit-flipped copies of it.
func FuzzDiskEntry(f *testing.F) {
	grid := arch.MustGrid(arch.HOM32)
	k, err := kernels.ByName("FIR")
	if err != nil {
		f.Fatal(err)
	}
	g := k.Build()
	opt := core.DefaultOptions(core.FlowCAB)
	m, err := core.Map(g, grid, opt)
	if err != nil {
		f.Fatal(err)
	}
	// Recomputes reuse the one mapping, so a rejected entry costs an
	// assemble, not a map.
	compute := func() (mapcache.Computed, error) {
		return mapcache.Computed{Mapping: m, Seed: opt.Seed, Backend: "heuristic"}, nil
	}
	req := mapcache.Request{Graph: g, Grid: grid, Opt: opt}

	dir := f.TempDir()
	cold, err := mapcache.New(mapcache.Config{Dir: dir}).GetOrStore(req, compute)
	if err != nil {
		f.Fatal(err)
	}
	files, err := mapcache.EntryFiles(dir)
	if err != nil || len(files) != 1 {
		f.Fatalf("EntryFiles = %v, %v; want exactly one entry", files, err)
	}
	name := filepath.Base(files[0])
	entry, err := os.ReadFile(files[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(entry)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := mapcache.New(mapcache.Config{Dir: dir}).GetOrStore(req, compute)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Image, cold.Image) {
			t.Fatalf("%s result differs from the cold image", res.Source)
		}
		if bytes.Equal(data, entry) && res.Source != "disk" {
			t.Fatalf("verbatim entry served by %s, want disk", res.Source)
		}
	})
}
