package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// TestArenaSurvivesGC pins that the mapper keeps its scratch memory across
// garbage collections. Once repeated Maps of a kernel allocate a steady
// count, a Map that follows two runtime.GC calls must allocate exactly that
// count, and so must a second such Map. Two collections are enough to
// empty a GC-cleared pool, which would make the Map rebuild its arena from
// nothing.
func TestArenaSurvivesGC(t *testing.T) {
	k, err := kernels.ByName("FIR")
	if err != nil {
		t.Fatal(err)
	}
	g, grid, opt := k.Build(), arch.MustGrid(arch.HOM64), DefaultOptions(FlowCAB)
	mapOnce := func() {
		if _, err := Map(g, grid, opt); err != nil {
			t.Fatal(err)
		}
	}
	// Warm until ten calls in a row allocate the same count.
	steady := -1.0
	for calls, same := 0, 0; same < 10; calls++ {
		if calls == 300 {
			t.Fatalf("allocations still changing after %d Maps", calls)
		}
		if n := testing.AllocsPerRun(1, mapOnce); n == steady {
			same++
		} else {
			steady, same = n, 1
		}
	}
	for i := 1; i <= 2; i++ {
		afterGC := testing.AllocsPerRun(1, func() {
			runtime.GC()
			runtime.GC()
			mapOnce()
		})
		if afterGC != steady {
			t.Fatalf("Map %d after two GCs allocated %v objects, steady state is %v", i, afterGC, steady)
		}
	}
}

// checkBuffers fails unless every tile and location buffer ar and its
// child arenas ever made is back on their free lists, once, with no
// reference left: no leak and no double release. Free partials hold no
// buffers.
func checkBuffers(t *testing.T, what string, ar *mapperArena) {
	t.Helper()
	for i, a := range append([]*mapperArena{ar}, ar.sub...) {
		tiles := map[*tileState]bool{}
		for _, ts := range a.tileFree {
			if ts.refs != 0 || tiles[ts] {
				t.Fatalf("%s: arena %d: free tile buffer with %d references, listed twice: %v", what, i, ts.refs, tiles[ts])
			}
			tiles[ts] = true
		}
		locs := map[*locBuf]bool{}
		for _, b := range a.locFree {
			if b.refs != 0 || locs[b] {
				t.Fatalf("%s: arena %d: free location buffer with %d references, listed twice: %v", what, i, b.refs, locs[b])
			}
			locs[b] = true
		}
		if len(tiles) != a.tilesMade || len(locs) != a.locsMade {
			t.Fatalf("%s: arena %d: %d of %d tile and %d of %d location buffers are free",
				what, i, len(tiles), a.tilesMade, len(locs), a.locsMade)
		}
		for _, p := range a.free {
			if len(p.tiles) != 0 || len(p.locs) != 0 {
				t.Fatalf("%s: arena %d: a free partial still holds buffers", what, i)
			}
		}
	}
}

// TestArenaBufferAccounting maps along every path that releases partials
// (a successful Map, a failing one, one whose speculative retry attempts
// are abandoned, and an exact search) and checks after each that every
// buffer is back on its arena's free list (see checkBuffers).
func TestArenaBufferAccounting(t *testing.T) {
	build := func(name string) *cdfg.Graph {
		k, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return k.Build()
	}
	ar := new(mapperArena)
	opt := DefaultOptions(FlowCAB)
	opt.arena = ar
	if _, err := Map(build("FIR"), arch.MustGrid(arch.HOM64), opt); err != nil {
		t.Fatal(err)
	}
	checkBuffers(t, "FIR/HOM64", ar)
	if _, err := Map(build("NonSepFilter"), arch.MustGrid(arch.HET2), opt); err == nil {
		t.Fatal("NonSepFilter maps on HET2 under CAB")
	}
	checkBuffers(t, "NonSepFilter/HET2", ar)

	// MatM on HOM32 maps on a retry attempt. With four workers, the
	// attempts above the winner are abandoned whenever they are still
	// running when it succeeds; map until that happens.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	matm, hom32 := build("MatM"), arch.MustGrid(arch.HOM32)
	abandoned := int64(0)
	for i := 0; i < 20 && abandoned == 0; i++ {
		rec := obs.NewRecorder(obs.NewRegistry(), nil)
		opt.Obs = rec
		if _, err := Map(matm, hom32, opt); err != nil {
			t.Fatal(err)
		}
		checkBuffers(t, "MatM/HOM32", ar)
		abandoned = rec.Counter("core.map.attempts_abandoned").Value()
	}
	if abandoned == 0 {
		t.Fatal("no retry attempt was abandoned in 20 Maps")
	}

	exactOpt := DefaultOptions(FlowBasic)
	exactOpt.arena = ar
	exactOpt.ExactNodeBudget = 2000
	if _, err := (ExactBackend{}).Map(context.Background(), build("DCFilter"), arch.MustGrid(arch.HOM64), exactOpt); err != nil {
		t.Fatal(err)
	}
	checkBuffers(t, "exact DCFilter/HOM64", ar)
}
