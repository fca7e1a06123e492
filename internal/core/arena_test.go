package core

import (
	"context"
	"math"
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

// checkBuffers fails unless every tile buffer ar and its child arenas
// ever made is back on their free lists, once, with no reference left
// (no leak and no double release), and no partial is alive: free
// partials hold no tiles or location references, and the arena may empty
// its location pool, as every block attempt and exact search starts by
// doing (resetLocs panics on a live partial).
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
		if len(tiles) != a.tilesMade {
			t.Fatalf("%s: arena %d: %d of %d tile buffers are free", what, i, len(tiles), a.tilesMade)
		}
		if a.live != 0 {
			t.Fatalf("%s: arena %d: %d partials still alive", what, i, a.live)
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

// TestArenaTablesMatchComputed checks the arena's memoized tables against
// the forms they replace, bit for bit: the torus distance table against
// Grid.Distance on every tile pair (across a change of grid shape and
// back), and stochasticPrune's rank weights and their in-order sum
// against math.Exp.
func TestArenaTablesMatchComputed(t *testing.T) {
	ar := new(mapperArena)
	strip := &arch.Grid{Name: "2x8", Rows: 2, Cols: 8}
	for id := range 16 {
		strip.Tiles = append(strip.Tiles, arch.Tile{ID: arch.TileID(id), Row: id / 8, Col: id % 8})
	}
	for _, g := range []*arch.Grid{arch.MustGrid(arch.HOM64), strip, arch.MustGrid(arch.HET2)} {
		for a := range g.NumTiles() {
			for b := range g.NumTiles() {
				from, to := arch.TileID(a), arch.TileID(b)
				if got, want := ar.distance(g, from, to), g.Distance(from, to); got != want {
					t.Fatalf("%s: distance(%d, %d) = %d, Grid.Distance %d", g.Name, a, b, got, want)
				}
			}
		}
	}
	// Descending sizes, as one prune's draws ask for them, then ascending.
	var sizes []int
	for n := 200; n >= 1; n-- {
		sizes = append(sizes, n)
	}
	for n := 1; n <= 400; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		w, total := ar.rankWeights(n)
		if len(w) != n {
			t.Fatalf("n=%d: %d weights", n, len(w))
		}
		sum := 0.0
		for i := range n {
			want := math.Exp(-float64(i) / float64(n))
			if math.Float64bits(w[i]) != math.Float64bits(want) {
				t.Fatalf("n=%d: weight %d = %v, math.Exp %v", n, i, w[i], want)
			}
			sum += want
		}
		if math.Float64bits(total) != math.Float64bits(sum) {
			t.Fatalf("n=%d: total %v, in-order sum %v", n, total, sum)
		}
	}
}
