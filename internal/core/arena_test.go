package core

import (
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/kernels"
)

// TestArenaSurvivesGC pins that the mapper keeps its scratch memory across
// garbage collections. Once repeated Maps of a kernel allocate a steady
// count, a Map that follows two runtime.GC calls must allocate exactly that
// count. Two collections are enough to empty a GC-cleared pool, which
// would make the Map rebuild its arena from nothing.
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
	afterGC := testing.AllocsPerRun(1, func() {
		runtime.GC()
		runtime.GC()
		mapOnce()
	})
	if afterGC != steady {
		t.Fatalf("a Map after two GCs allocated %v objects, steady state is %v", afterGC, steady)
	}
}
