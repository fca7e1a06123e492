package mapcache_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/mapcache"
	"repro/internal/sim"
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

var updateCorpus = flag.Bool("update-corpus", false,
	"regenerate testdata/fuzz/FuzzDiskEntry and FuzzDiskImage from the current disk envelope and image")

// diskFixture is the one request FuzzDiskEntry, FuzzDiskImage and
// TestDiskEntryCorpus feed disk entries to (FIR, HOM32, cab), with the
// entry a cold compile writes for it.
type diskFixture struct {
	req     mapcache.Request
	compute func() (mapcache.Computed, error)
	cold    mapcache.Result
	name    string // the entry's file name in a cache directory
	entry   []byte // the entry's bytes
}

func newDiskFixture(tb testing.TB) *diskFixture {
	tb.Helper()
	grid := arch.MustGrid(arch.HOM32)
	k, err := kernels.ByName("FIR")
	if err != nil {
		tb.Fatal(err)
	}
	g := k.Build()
	opt := core.DefaultOptions(core.FlowCAB)
	m, err := core.Map(g, grid, opt)
	if err != nil {
		tb.Fatal(err)
	}
	// Recomputes reuse the one mapping, so a rejected entry costs an
	// assemble, not a map.
	fx := &diskFixture{
		req: mapcache.Request{Graph: g, Grid: grid, Opt: opt},
		compute: func() (mapcache.Computed, error) {
			return mapcache.Computed{Mapping: m, Seed: opt.Seed, Backend: "heuristic"}, nil
		},
	}
	dir := tb.TempDir()
	if fx.cold, err = mapcache.New(mapcache.Config{Dir: dir}).GetOrStore(fx.req, fx.compute); err != nil {
		tb.Fatal(err)
	}
	files, err := mapcache.EntryFiles(dir)
	if err != nil || len(files) != 1 {
		tb.Fatalf("EntryFiles = %v, %v; want exactly one entry", files, err)
	}
	fx.name = filepath.Base(files[0])
	if fx.entry, err = os.ReadFile(files[0]); err != nil {
		tb.Fatal(err)
	}
	return fx
}

// serve writes data as the fixture's disk entry in a fresh directory and
// returns what a fresh cache over it answers. The answer must be the cold
// compile's image whatever data holds.
func (fx *diskFixture) serve(t *testing.T, data []byte) mapcache.Result {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, fx.name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := mapcache.New(mapcache.Config{Dir: dir}).GetOrStore(fx.req, fx.compute)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Image, fx.cold.Image) {
		t.Fatalf("%s result differs from the cold image", res.Source)
	}
	return res
}

// FuzzDiskEntry writes arbitrary bytes as the disk entry of one fixed
// request (FIR, HOM32, cab) and opens a fresh cache over the directory.
// Whatever the file holds, GetOrStore must not panic and must return the
// cold compile's image: served from disk when the entry survives every
// check, recomputed otherwise. A verbatim entry must be a disk hit.
//
// The checked-in corpus (testdata/fuzz) holds one real entry plus
// truncated and bit-flipped copies of it; TestDiskEntryCorpus keeps it
// current and -update-corpus regenerates it.
func FuzzDiskEntry(f *testing.F) {
	fx := newDiskFixture(f)
	f.Add(fx.entry)
	f.Fuzz(func(t *testing.T, data []byte) {
		res := fx.serve(t, data)
		if bytes.Equal(data, fx.entry) && res.Source != "disk" {
			t.Fatalf("verbatim entry served by %s, want disk", res.Source)
		}
	})
}

// FuzzDiskImage reaches past the envelope digest FuzzDiskEntry's
// mutations rarely survive: it writes the fixture's real entry, replaces
// its bitstream image with the fuzzed bytes through RewriteEntry (which
// re-seals the digest) and opens a fresh cache over the directory.
// GetOrStore must not panic, and either recompute the cold compile's
// image or serve from disk a program that computes FIR's output: one
// that sim.RunVerified checks against the CDFG interpreter. The real
// image must be a disk hit.
//
// The invariant does not hold yet: the trust gate runs the verifier on
// the rebuilt program alone, and without a mapping the dataflow pass,
// the one that proves the contexts compute the graph, is skipped. An
// image with one flipped bit that turns an add into an and, or rebinds
// an operand, is served from disk and computes wrong values (ROADMAP
// item 6 gives a reproduction).
//
// The checked-in corpus (testdata/fuzz) holds the real image plus a
// truncated copy and copies with one byte flipped in the header, the
// block tables and the context words; regenerate it with
// TestDiskEntryCorpus -update-corpus.
func FuzzDiskImage(f *testing.F) {
	fx := newDiskFixture(f)
	k, err := kernels.ByName("FIR")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, image []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, fx.name)
		if err := os.WriteFile(path, fx.entry, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := mapcache.RewriteEntry(path, func([]byte) []byte { return image }); err != nil {
			t.Fatal(err)
		}
		res, err := mapcache.New(mapcache.Config{Dir: dir}).GetOrStore(fx.req, fx.compute)
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != "disk" {
			if !bytes.Equal(res.Image, fx.cold.Image) {
				t.Fatalf("%s result differs from the cold image", res.Source)
			}
			if bytes.Equal(image, fx.cold.Image) {
				t.Fatalf("real image served by %s, want disk", res.Source)
			}
			return
		}
		s, err := sim.New(res.Program)
		if err != nil {
			t.Fatalf("program served from disk does not load: %v", err)
		}
		if _, _, _, err := s.RunVerified(k.Init()); err != nil {
			t.Fatalf("program served from disk: %v", err)
		}
	})
}

// imageCorpus derives FuzzDiskImage's named corpus from a real image.
func imageCorpus(image []byte) map[string][]byte {
	flip := func(i int) []byte {
		b := bytes.Clone(image)
		b[i] ^= 1
		return b
	}
	return map[string][]byte{
		"real_image":     image,
		"truncated_half": image[:len(image)/2],
		"flip_header":    flip(8),               // the tile count
		"flip_tables":    flip(16),              // block 0's length
		"flip_words":     flip(len(image) - 12), // inside the last tile's context words
	}
}

// writeCorpus writes a named corpus as go-fuzz []byte files into dir.
func writeCorpus(t *testing.T, dir string, corpus map[string][]byte) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range corpus {
		file := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// diskCorpus derives FuzzDiskEntry's named corpus from a real entry.
func diskCorpus(entry []byte) map[string][]byte {
	flip := func(i int) []byte {
		b := bytes.Clone(entry)
		b[i] ^= 1
		return b
	}
	// The image is the third length-prefixed blob after magic and version.
	off := 8
	for range 2 {
		off += 4 + int(binary.LittleEndian.Uint32(entry[off:]))
	}
	imgLen := int(binary.LittleEndian.Uint32(entry[off:]))
	return map[string][]byte{
		"real_entry":       entry,
		"empty":            {},
		"truncated_header": entry[:8],
		"truncated_half":   entry[:len(entry)/2],
		"truncated_digest": entry[:len(entry)-1],
		"flip_version":     flip(4),
		"flip_image":       flip(off + 4 + imgLen/2),
		"flip_digest":      flip(len(entry) - 1),
	}
}

// TestDiskEntryCorpus feeds every checked-in FuzzDiskEntry corpus file to
// GetOrStore: real_entry must still be served from disk (so a change to
// the cache key or the envelope cannot leave the corpus stale unnoticed)
// and every mutated copy must be recomputed. Run with -update-corpus to
// regenerate the files from the current envelope.
func TestDiskEntryCorpus(t *testing.T) {
	fx := newDiskFixture(t)
	dir := filepath.Join("testdata", "fuzz", "FuzzDiskEntry")
	if *updateCorpus {
		writeCorpus(t, dir, diskCorpus(fx.entry))
		writeCorpus(t, filepath.Join("testdata", "fuzz", "FuzzDiskImage"), imageCorpus(fx.cold.Image))
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sawReal := false
	for _, file := range files {
		raw, err := os.ReadFile(filepath.Join(dir, file.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		lit, ok2 := strings.CutSuffix(lit, ")")
		data, err := strconv.Unquote(lit)
		if !ok || !ok2 || err != nil {
			t.Fatalf("%s: not a []byte corpus entry", file.Name())
		}
		want := "compute"
		if file.Name() == "real_entry" {
			want, sawReal = "disk", true
		}
		if res := fx.serve(t, []byte(data)); res.Source != want {
			t.Errorf("%s served by %s, want %s", file.Name(), res.Source, want)
		}
	}
	if !sawReal {
		t.Error("corpus has no real_entry")
	}
}
