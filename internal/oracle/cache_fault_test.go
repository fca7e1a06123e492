package oracle

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/mapcache"
	"repro/internal/obs"
)

// TestCacheDifferentialClean: with a cache directory attached, a clean
// sweep of generated graphs — each checked twice so the second pass reads
// the first pass's disk entries — stays all-pass and actually exercises
// both cache tiers.
func TestCacheDifferentialClean(t *testing.T) {
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	p := &Pipeline{CacheDir: t.TempDir(), Obs: rec}
	cell := Cell{Mode: ModeCAB, Config: arch.HOM32}
	gen := cdfg.DefaultGenConfig()
	gen.MaxBodyOps = 6
	for s := int64(300); s < 306; s++ {
		g, mem := cdfg.Generate(rand.New(rand.NewSource(s)), gen)
		for pass := 0; pass < 2; pass++ {
			if res := p.Check(g, mem, cell, s); res.Outcome != Pass && res.Outcome != NoMapping {
				t.Fatalf("seed %d pass %d: %s: %v", s, pass, res.Outcome, res.Err)
			}
		}
	}
	if rec.Counter("mapcache.disk_store").Value() == 0 {
		t.Error("cache differential never stored a disk entry")
	}
	if rec.Counter("mapcache.disk_hit").Value() == 0 {
		t.Error("cache differential never hit the disk tier")
	}
	if got := rec.Counter("oracle.outcome.cache_stale").Value(); got != 0 {
		t.Errorf("clean sweep produced %d cache-stale outcomes", got)
	}
}

// TestCachePoisonEntryRejected proves the disk tier's re-verify gate: a
// checksum-consistent but corrupted entry planted between the cold and
// warm passes must be rejected (mapcache.disk_reject) and transparently
// recomputed, so the check still passes with a byte-identical bitstream.
func TestCachePoisonEntryRejected(t *testing.T) {
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	dir := t.TempDir()
	p := &Pipeline{
		CacheDir: dir,
		Obs:      rec,
		fault: faultHooks{cacheEntry: func(dir string, g *cdfg.Graph, grid *arch.Grid) error {
			files, err := mapcache.EntryFiles(dir)
			if err != nil {
				return err
			}
			for _, f := range files {
				// Zero the image's tail: the envelope digest is recomputed
				// (so the checksum passes) but the decoded program no longer
				// matches what the graph needs — only the verify gate can
				// catch this.
				err := mapcache.RewriteEntry(f, func(img []byte) []byte {
					for i := len(img) - 8; i >= 16 && i >= len(img)-64; i -= 8 {
						copy(img[i:i+8], make([]byte, 8))
					}
					return img
				})
				if err != nil {
					return err
				}
			}
			return nil
		}},
	}
	cell := Cell{Mode: ModeCAB, Config: arch.HOM32}
	gen := cdfg.DefaultGenConfig()
	gen.MaxBodyOps = 6
	checked := false
	for s := int64(400); s < 410 && !checked; s++ {
		g, mem := cdfg.Generate(rand.New(rand.NewSource(s)), gen)
		res := p.Check(g, mem, cell, s)
		if res.Outcome == NoMapping {
			continue
		}
		if res.Outcome != Pass {
			t.Fatalf("seed %d: poisoned entry leaked: %s: %v", s, res.Outcome, res.Err)
		}
		checked = true
	}
	if !checked {
		t.Fatal("no generated graph mapped in seed range [400,410)")
	}
	if rec.Counter("mapcache.disk_reject").Value() == 0 {
		t.Error("poisoned disk entry was never rejected — the re-verify gate did not fire")
	}
}

// wrongImageFault returns a cache-entry fault hook that swaps every stored
// entry's bitstream for a legal program of the same graph compiled under
// different tuning — a corruption that passes both the envelope checksum
// and the structural verify gate, which is exactly the class of fault
// only the cold-vs-warm byte comparison can catch.
func wrongImageFault(t *testing.T) func(dir string, g *cdfg.Graph, grid *arch.Grid) error {
	return func(dir string, g *cdfg.Graph, grid *arch.Grid) error {
		opt := core.DefaultOptions(core.FlowCAB)
		opt.Seed = 1713
		m, err := core.Map(g, grid, opt)
		if err != nil {
			return nil // alternative tuning found no mapping; leave entries alone
		}
		prog, err := asm.Assemble(m)
		if err != nil {
			return err
		}
		img, err := asm.SaveImage(prog)
		if err != nil {
			return err
		}
		files, err := mapcache.EntryFiles(dir)
		if err != nil {
			return err
		}
		for _, f := range files {
			if err := mapcache.RewriteEntry(f, func([]byte) []byte { return img }); err != nil {
				return err
			}
		}
		return nil
	}
}

// findCacheStaleSeed scans for a generated graph where the wrong-image
// fault actually bites: the graph passes clean and the alternative tuning
// compiles to different bytes.
func findCacheStaleSeed(t *testing.T, clean, faulty *Pipeline, cell Cell) (*cdfg.Graph, cdfg.Memory, int64) {
	t.Helper()
	gen := cdfg.DefaultGenConfig()
	gen.MaxBodyOps = 5
	for s := int64(9000); s < 9060; s++ {
		// A fresh directory per probe: once a wrong image has been planted
		// it becomes the entry both passes agree on, so a reused directory
		// would mask the fault on every check after the first.
		faulty.CacheDir = t.TempDir()
		g, mem := cdfg.Generate(rand.New(rand.NewSource(s)), gen)
		if clean.Check(g, mem, cell, s).Outcome != Pass {
			continue
		}
		if faulty.Check(g, mem, cell, s).Outcome == CacheStale {
			return g, mem, s
		}
	}
	t.Fatal("no seed in [9000,9060) exposes the wrong-image cache fault")
	return nil, nil, 0
}

// TestCacheStaleFaultInjectionShrinks proves the sweep catches a cache
// serving the wrong bitstream: a legal-but-different image planted in the
// disk tier classifies as CacheStale — a bug outcome — and shrinks like
// any other failure.
func TestCacheStaleFaultInjectionShrinks(t *testing.T) {
	cell := Cell{Mode: ModeBasic, Config: arch.HOM64}
	clean := &Pipeline{CacheDir: t.TempDir()}
	faulty := &Pipeline{CacheDir: t.TempDir(), fault: faultHooks{cacheEntry: wrongImageFault(t)}}
	g, mem, seed := findCacheStaleSeed(t, clean, faulty, cell)

	faulty.CacheDir = t.TempDir()
	res := faulty.Check(g, mem, cell, seed)
	if res.Outcome != CacheStale || !res.Outcome.Bug() {
		t.Fatalf("fault classified as %s (bug=%v), want cache-stale bug", res.Outcome, res.Outcome.Bug())
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "byte-identical") {
		t.Fatalf("cache-stale outcome carries no detail: %v", res.Err)
	}

	fails := func(cg *cdfg.Graph, cmem cdfg.Memory) bool {
		faulty.CacheDir = t.TempDir()
		return faulty.Check(cg, cmem, cell, seed).Outcome == CacheStale
	}
	small := Shrink(g, mem, fails, 0)
	t.Logf("shrunk %d nodes -> %d nodes", g.NumNodes(), small.NumNodes())
	if !fails(small, mem) {
		t.Fatal("shrunk graph no longer exhibits the cache fault")
	}
	if got := clean.Check(small, mem, cell, seed).Outcome; got.Bug() {
		t.Fatalf("shrunk graph fails the clean pipeline too: %s", got)
	}
}
