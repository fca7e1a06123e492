package mapcache_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/mapcache"
	"repro/internal/obs"
	"repro/internal/verify"
)

func kernelGraph(t *testing.T, name string) *cdfg.Graph {
	t.Helper()
	for _, k := range kernels.All() {
		if k.Name == name {
			return k.Build()
		}
	}
	t.Fatalf("no kernel %q", name)
	return nil
}

func mapCompute(t *testing.T, g *cdfg.Graph, grid *arch.Grid, opt core.Options, calls *atomic.Int64) func() (mapcache.Computed, error) {
	t.Helper()
	return func() (mapcache.Computed, error) {
		if calls != nil {
			calls.Add(1)
		}
		m, err := core.Map(g, grid, opt)
		if err != nil {
			return mapcache.Computed{}, err
		}
		return mapcache.Computed{Mapping: m, Seed: opt.Seed, Backend: "heuristic"}, nil
	}
}

// TestCacheColdWarm: the second identical request is a memory hit with a
// byte-identical image and the same metadata, and the compute callback runs
// exactly once.
func TestCacheColdWarm(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	g := kernelGraph(t, "FIR")
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	c := mapcache.New(mapcache.Config{Obs: rec})
	opt := core.DefaultOptions(core.FlowCAB)
	var calls atomic.Int64

	req := mapcache.Request{Graph: g, Grid: grid, Opt: opt}
	cold, err := c.GetOrStore(req, mapCompute(t, g, grid, opt, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Hit || cold.Source != "compute" {
		t.Fatalf("cold request reported hit=%v source=%q", cold.Hit, cold.Source)
	}
	warm, err := c.GetOrStore(req, mapCompute(t, g, grid, opt, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Hit || warm.Source != "memory" {
		t.Fatalf("warm request reported hit=%v source=%q", warm.Hit, warm.Source)
	}
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
	if !bytes.Equal(cold.Image, warm.Image) {
		t.Fatal("warm image differs from cold image")
	}
	if cold.Meta.Words != warm.Meta.Words || cold.Meta.Words == 0 {
		t.Fatalf("meta mismatch: cold %d words, warm %d", cold.Meta.Words, warm.Meta.Words)
	}
	if r := verify.CheckProgram(warm.Program); r.Err() != nil {
		t.Fatalf("warm program fails verification: %v", r.Err())
	}
	if got := rec.Counter("mapcache.hit").Value(); got != 1 {
		t.Fatalf("mapcache.hit = %d, want 1", got)
	}
	if got := rec.Counter("mapcache.miss").Value(); got != 1 {
		t.Fatalf("mapcache.miss = %d, want 1", got)
	}
}

// TestCacheIsomorphicHit: a relabeled isomorphic graph is a different
// key. Its first request misses the original's entry and computes a
// program for the relabeled graph; from then on each graph hits its own
// entry, and each served program is exactly as legal as its cold compile.
func TestCacheIsomorphicHit(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	c := mapcache.New(mapcache.Config{Obs: rec})
	opt := core.DefaultOptions(core.FlowCAB)

	// A representative subset: full kernels with branches and memory traffic
	// plus generated graphs with larger block counts (mapping every kernel
	// under FlowCAB takes minutes).
	all := testGraphs(t)
	subset := map[string]*cdfg.Graph{
		"FIR": all["FIR"], "FFT": all["FFT"], "DCFilter": all["DCFilter"],
		"gen-1": all["gen-1"], "gen-4": all["gen-4"], "gen-6": all["gen-6"],
	}
	for name, g := range subset {
		g := g
		t.Run(name, func(t *testing.T) {
			pg := permuteGraph(t, g, rand.New(rand.NewSource(7)))
			var calls atomic.Int64
			cold := map[*cdfg.Graph]mapcache.Result{}
			for _, gr := range []*cdfg.Graph{g, pg} {
				res, err := c.GetOrStore(mapcache.Request{Graph: gr, Grid: grid, Opt: opt}, mapCompute(t, gr, grid, opt, &calls))
				if err != nil {
					t.Skipf("graph does not map on this grid: %v", err)
				}
				if res.Hit {
					t.Fatal("relabeled graph hit the original's entry")
				}
				cold[gr] = res
			}
			for _, gr := range []*cdfg.Graph{g, pg} {
				warm, err := c.GetOrStore(mapcache.Request{Graph: gr, Grid: grid, Opt: opt}, mapCompute(t, gr, grid, opt, &calls))
				if err != nil {
					t.Fatal(err)
				}
				if !warm.Hit || !bytes.Equal(warm.Image, cold[gr].Image) {
					t.Fatalf("repeat request: hit=%v, image equal=%v", warm.Hit, bytes.Equal(warm.Image, cold[gr].Image))
				}
				// Some generated graphs exceed CM capacity under default
				// options; the cache must not make a program less legal.
				if verify.CheckProgram(cold[gr].Program).Err() == nil {
					if r := verify.CheckProgram(warm.Program); r.Err() != nil {
						t.Fatalf("served program fails verification against its graph: %v", r.Err())
					}
				}
			}
			if calls.Load() != 2 {
				t.Fatalf("compute ran %d times, want 2", calls.Load())
			}
		})
	}
}

// TestCacheKeySeparation: changing any key ingredient — the graph's name
// or a constant, options, seeds, backends, objective — misses instead of
// returning the old entry.
func TestCacheKeySeparation(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	g := kernelGraph(t, "FIR")
	c := mapcache.New(mapcache.Config{})
	var calls atomic.Int64

	renamed := g.Clone()
	renamed.Name += "-renamed"
	constChanged := g.Clone()
	var konst *cdfg.Node
	for _, b := range constChanged.Blocks {
		for _, n := range b.Nodes {
			if n.Op == cdfg.OpConst && konst == nil {
				konst = n
			}
		}
	}
	if konst == nil {
		t.Fatal("FIR has no constant to change")
	}
	konst.Val++

	base := mapcache.Request{Graph: g, Grid: grid, Opt: core.DefaultOptions(core.FlowCAB)}
	seeded := core.DefaultOptions(core.FlowCAB)
	seeded.Seed = 3
	variants := []mapcache.Request{
		base,
		{Graph: renamed, Grid: grid, Opt: base.Opt},
		{Graph: constChanged, Grid: grid, Opt: base.Opt},
		{Graph: g, Grid: grid, Opt: seeded},
		{Graph: g, Grid: grid, Opt: base.Opt, Seeds: []int64{0, 1}},
		{Graph: g, Grid: grid, Opt: base.Opt, Backends: []string{"exact"}},
		{Graph: g, Grid: grid, Opt: base.Opt, Objective: "power"},
	}
	for i, req := range variants {
		if _, err := c.GetOrStore(req, mapCompute(t, req.Graph, grid, req.Opt, &calls)); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
	}
	if calls.Load() != int64(len(variants)) {
		t.Fatalf("compute ran %d times for %d distinct keys", calls.Load(), len(variants))
	}
	if c.Len() != len(variants) {
		t.Fatalf("cache holds %d entries, want %d", c.Len(), len(variants))
	}
}

// TestCacheLRUEviction: capacity is enforced per shard with the oldest
// entry evicted first.
func TestCacheLRUEviction(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	g := kernelGraph(t, "FIR")
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	// One shard, two slots: the third distinct key must evict the first.
	c := mapcache.New(mapcache.Config{Capacity: 2, Shards: 1, Obs: rec})
	var calls atomic.Int64
	var reqs []mapcache.Request
	for seed := int64(1); seed <= 3; seed++ {
		o := core.DefaultOptions(core.FlowCAB)
		o.Seed = seed
		reqs = append(reqs, mapcache.Request{Graph: g, Grid: grid, Opt: o})
	}
	for _, req := range reqs {
		if _, err := c.GetOrStore(req, mapCompute(t, g, grid, req.Opt, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries after eviction, want 2", c.Len())
	}
	if got := rec.Counter("mapcache.evict").Value(); got != 1 {
		t.Fatalf("mapcache.evict = %d, want 1", got)
	}
	// Seed 1 was evicted: requesting it again recomputes.
	before := calls.Load()
	if _, err := c.GetOrStore(reqs[0], mapCompute(t, g, grid, reqs[0].Opt, &calls)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != before+1 {
		t.Fatal("evicted entry was served from cache")
	}
}

// TestCacheSingleflight: concurrent identical requests coalesce onto one
// compute; every caller gets a byte-identical image.
func TestCacheSingleflight(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	g := kernelGraph(t, "FFT")
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	c := mapcache.New(mapcache.Config{Obs: rec})
	opt := core.DefaultOptions(core.FlowCAB)
	var calls atomic.Int64
	req := mapcache.Request{Graph: g, Grid: grid, Opt: opt}

	const workers = 8
	results := make([]mapcache.Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.GetOrStore(req, mapCompute(t, g, grid, opt, &calls))
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i].Image, results[0].Image) {
			t.Fatalf("worker %d image differs", i)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times under concurrency, want 1", calls.Load())
	}
}

// TestCacheDiskRoundTrip: a fresh Cache over the same directory serves the
// entry from disk — re-verified — with a byte-identical image.
func TestCacheDiskRoundTrip(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	g := kernelGraph(t, "FIR")
	dir := t.TempDir()
	opt := core.DefaultOptions(core.FlowCAB)
	var calls atomic.Int64

	c1 := mapcache.New(mapcache.Config{Dir: dir})
	req := mapcache.Request{Graph: g, Grid: grid, Opt: opt}
	cold, err := c1.GetOrStore(req, mapCompute(t, g, grid, opt, &calls))
	if err != nil {
		t.Fatal(err)
	}
	files, err := mapcache.EntryFiles(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("EntryFiles = %v, %v; want exactly one entry", files, err)
	}

	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	c2 := mapcache.New(mapcache.Config{Dir: dir, Obs: rec})
	warm, err := c2.GetOrStore(req, mapCompute(t, g, grid, opt, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Hit || warm.Source != "disk" {
		t.Fatalf("second process reported hit=%v source=%q, want disk hit", warm.Hit, warm.Source)
	}
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times across processes, want 1", calls.Load())
	}
	if !bytes.Equal(cold.Image, warm.Image) {
		t.Fatal("disk round-trip changed the image")
	}
	if got := rec.Counter("mapcache.disk_hit").Value(); got != 1 {
		t.Fatalf("mapcache.disk_hit = %d, want 1", got)
	}
	// The disk hit is promoted to memory: a third request stays in-process.
	third, err := c2.GetOrStore(req, mapCompute(t, g, grid, opt, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if third.Source != "memory" {
		t.Fatalf("post-promotion source = %q, want memory", third.Source)
	}
}

// TestCacheDiskEntryPure: two cold compiles of one request, each in its
// own cache directory, write byte-identical entry files. The disk hit
// reports compile time 0; the memory tier keeps the measured time.
func TestCacheDiskEntryPure(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	g := kernelGraph(t, "FIR")
	opt := core.DefaultOptions(core.FlowCAB)
	req := mapcache.Request{Graph: g, Grid: grid, Opt: opt}
	var entries [][]byte
	var cold mapcache.Result
	for range 2 {
		dir := t.TempDir()
		var err error
		cold, err = mapcache.New(mapcache.Config{Dir: dir}).GetOrStore(req, mapCompute(t, g, grid, opt, nil))
		if err != nil {
			t.Fatal(err)
		}
		files, err := mapcache.EntryFiles(dir)
		if err != nil || len(files) != 1 {
			t.Fatalf("EntryFiles = %v, %v; want exactly one entry", files, err)
		}
		data, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, data)
		if cold.Meta.Stats.CompileTime == 0 {
			t.Fatal("a cold compile reports compile time 0")
		}
		warm, err := mapcache.New(mapcache.Config{Dir: dir}).GetOrStore(req, mapCompute(t, g, grid, opt, nil))
		if err != nil {
			t.Fatal(err)
		}
		if warm.Source != "disk" || warm.Meta.Stats.CompileTime != 0 || warm.Meta.Stats.Phases != (core.PhaseTimes{}) {
			t.Fatalf("disk hit: source %q, compile time %v, phases %+v; want disk, 0, zero", warm.Source, warm.Meta.Stats.CompileTime, warm.Meta.Stats.Phases)
		}
	}
	if !bytes.Equal(entries[0], entries[1]) {
		t.Fatal("two cold compiles of one request wrote different entry files")
	}
}

// TestCacheDiskCorruption: flipping raw bytes on disk breaks the envelope
// checksum; the entry is rejected and recomputed, never served.
func TestCacheDiskCorruption(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	g := kernelGraph(t, "FIR")
	dir := t.TempDir()
	opt := core.DefaultOptions(core.FlowCAB)
	var calls atomic.Int64

	c1 := mapcache.New(mapcache.Config{Dir: dir})
	req := mapcache.Request{Graph: g, Grid: grid, Opt: opt}
	if _, err := c1.GetOrStore(req, mapCompute(t, g, grid, opt, &calls)); err != nil {
		t.Fatal(err)
	}
	files, _ := mapcache.EntryFiles(dir)
	if len(files) != 1 {
		t.Fatalf("want one entry file, got %d", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	c2 := mapcache.New(mapcache.Config{Dir: dir, Obs: rec})
	res, err := c2.GetOrStore(req, mapCompute(t, g, grid, opt, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("corrupted disk entry was served as a hit")
	}
	if got := rec.Counter("mapcache.disk_reject").Value(); got != 1 {
		t.Fatalf("mapcache.disk_reject = %d, want 1", got)
	}
	if calls.Load() != 2 {
		t.Fatalf("compute ran %d times, want 2 (recompute after corruption)", calls.Load())
	}
}

// TestCacheDiskPoisonVerifyGate: RewriteEntry produces a checksummed but
// wrong entry — the digest passes, so only the verify gate stands between
// the poison and the caller. It must fire.
func TestCacheDiskPoisonVerifyGate(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	g := kernelGraph(t, "DCFilter")
	dir := t.TempDir()
	opt := core.DefaultOptions(core.FlowCAB)
	var calls atomic.Int64

	c1 := mapcache.New(mapcache.Config{Dir: dir})
	req := mapcache.Request{Graph: g, Grid: grid, Opt: opt}
	if _, err := c1.GetOrStore(req, mapCompute(t, g, grid, opt, &calls)); err != nil {
		t.Fatal(err)
	}
	files, _ := mapcache.EntryFiles(dir)
	if len(files) != 1 {
		t.Fatalf("want one entry file, got %d", len(files))
	}
	// Zero every instruction word: the image still parses (header, lengths
	// and checksum all valid) but the program no longer implements g.
	if err := mapcache.RewriteEntry(files[0], func(image []byte) []byte {
		out := append([]byte(nil), image...)
		for i := len(out) - 8; i >= 16; i -= 8 {
			for j := 0; j < 8; j++ {
				out[i+j] = 0
			}
		}
		return out
	}); err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	c2 := mapcache.New(mapcache.Config{Dir: dir, Obs: rec})
	res, err := c2.GetOrStore(req, mapCompute(t, g, grid, opt, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("poisoned disk entry passed the verify gate")
	}
	if got := rec.Counter("mapcache.disk_reject").Value(); got != 1 {
		t.Fatalf("mapcache.disk_reject = %d, want 1", got)
	}
	if r := verify.CheckProgram(res.Program); r.Err() != nil {
		t.Fatalf("recomputed program fails verification: %v", r.Err())
	}
}

// TestCacheDiskWrongKey: a valid entry file renamed onto another key's path
// fails the embedded-key check and is rejected.
func TestCacheDiskWrongKey(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	gA := kernelGraph(t, "FIR")
	gB := kernelGraph(t, "FFT")
	dir := t.TempDir()
	opt := core.DefaultOptions(core.FlowCAB)
	var calls atomic.Int64

	c1 := mapcache.New(mapcache.Config{Dir: dir})
	if _, err := c1.GetOrStore(mapcache.Request{Graph: gA, Grid: grid, Opt: opt}, mapCompute(t, gA, grid, opt, &calls)); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.GetOrStore(mapcache.Request{Graph: gB, Grid: grid, Opt: opt}, mapCompute(t, gB, grid, opt, &calls)); err != nil {
		t.Fatal(err)
	}
	files, _ := mapcache.EntryFiles(dir)
	if len(files) != 2 {
		t.Fatalf("want two entry files, got %d", len(files))
	}
	// Swap the two files: each now sits at the other's content address.
	tmp := filepath.Join(dir, "swap")
	if err := os.Rename(files[0], tmp); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(files[1], files[0]); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, files[1]); err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	c2 := mapcache.New(mapcache.Config{Dir: dir, Obs: rec})
	res, err := c2.GetOrStore(mapcache.Request{Graph: gA, Grid: grid, Opt: opt}, mapCompute(t, gA, grid, opt, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("entry with mismatched embedded key was served")
	}
	if got := rec.Counter("mapcache.disk_reject").Value(); got != 1 {
		t.Fatalf("mapcache.disk_reject = %d, want 1", got)
	}
}

// TestNilCacheComputes: GetOrStore on a nil Cache computes and assembles
// the same Result a cold miss does, and stores nothing.
func TestNilCacheComputes(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	g := kernelGraph(t, "FIR")
	opt := core.DefaultOptions(core.FlowCAB)
	req := mapcache.Request{Graph: g, Grid: grid, Opt: opt}
	var calls atomic.Int64
	var nilCache *mapcache.Cache
	got, err := nilCache.GetOrStore(req, mapCompute(t, g, grid, opt, &calls))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := mapcache.New(mapcache.Config{}).GetOrStore(req, mapCompute(t, g, grid, opt, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("compute ran %d times, want once per call", calls.Load())
	}
	if got.Hit || got.Source != "compute" || got.Program == nil {
		t.Fatalf("nil cache reported hit=%v source=%q program=%v", got.Hit, got.Source, got.Program != nil)
	}
	if !bytes.Equal(got.Image, cold.Image) {
		t.Fatal("nil-cache image differs from a cold miss")
	}
	// Wall-clock fields differ from run to run.
	got.Meta.Stats.CompileTime, cold.Meta.Stats.CompileTime = 0, 0
	got.Meta.Stats.Phases, cold.Meta.Stats.Phases = core.PhaseTimes{}, core.PhaseTimes{}
	if !reflect.DeepEqual(got.Meta, cold.Meta) {
		t.Fatalf("nil-cache meta %+v, cold miss %+v", got.Meta, cold.Meta)
	}
}

// TestCacheDiskSkipsOverflow: a mapping that overflows a tile's context
// memory (the basic flow ignores capacity) is served from memory but
// never written to disk, where the verify gate (CM001) would reject it
// on every later read; a second process maps it again without a reject.
func TestCacheDiskSkipsOverflow(t *testing.T) {
	grid := arch.MustGrid(arch.HOM32)
	g := kernelGraph(t, "MatM")
	dir := t.TempDir()
	opt := core.DefaultOptions(core.FlowBasic)
	req := mapcache.Request{Graph: g, Grid: grid, Opt: opt}
	var calls atomic.Int64
	for run := 1; run <= 2; run++ {
		rec := obs.NewRecorder(obs.NewRegistry(), nil)
		c := mapcache.New(mapcache.Config{Dir: dir, Obs: rec})
		res, err := c.GetOrStore(req, mapCompute(t, g, grid, opt, &calls))
		if err != nil {
			t.Fatal(err)
		}
		if fits, _ := res.Program.FitsMemory(); fits {
			t.Fatal("MatM basic on HOM32 fits; the test needs an overflowing mapping")
		}
		if res.Source != "compute" || c.Len() != 1 {
			t.Fatalf("run %d: source %q, %d memory entries; want compute, 1", run, res.Source, c.Len())
		}
		for _, name := range []string{"mapcache.store", "mapcache.miss"} {
			if got := rec.Counter(name).Value(); got != 1 {
				t.Errorf("run %d: %s = %d, want 1", run, name, got)
			}
		}
		for _, name := range []string{"mapcache.disk_store", "mapcache.disk_reject", "mapcache.disk_write_err"} {
			if got := rec.Counter(name).Value(); got != 0 {
				t.Errorf("run %d: %s = %d, want 0", run, name, got)
			}
		}
		if files, err := mapcache.EntryFiles(dir); err != nil || len(files) != 0 {
			t.Fatalf("run %d: EntryFiles = %v, %v; want none", run, files, err)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("compute ran %d times, want once per process", calls.Load())
	}
}
