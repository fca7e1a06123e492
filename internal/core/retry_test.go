package core_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// TestRetryAttemptsMatchSequential pins the contract of Map's side-by-side
// block retries: running the attempts on several workers must give
// exactly what running them one after another gives. GOMAXPROCS=1 runs
// the same code with a single worker, in attempt order, and is the
// reference. The cells are the CAB paper cells that retry: MatM and
// NonSepFilter on HOM32 map on a later attempt, NonSepFilter on HET2
// fails every attempt.
func TestRetryAttemptsMatchSequential(t *testing.T) {
	cells := []struct {
		kernel string
		config arch.ConfigName
	}{
		{"MatM", arch.HOM32},
		{"NonSepFilter", arch.HOM32},
		{"NonSepFilter", arch.HET2},
	}
	// The search counters come from the recorder, which Map fills on
	// failure too; a failed Map returns no Stats.
	names := []string{
		"core.map.partials", "core.map.retries", "core.map.recomputes",
		"core.route.planned", "core.route.screened",
		"core.prune.acmap", "core.prune.ecmap", "core.prune.stochastic",
		"core.map.attempts",
	}
	type outcome struct {
		img      []byte
		err      string
		counters map[string]int64
	}
	for _, c := range cells {
		c := c
		t.Run(c.kernel+"/"+string(c.config), func(t *testing.T) {
			k, err := kernels.ByName(c.kernel)
			if err != nil {
				t.Fatal(err)
			}
			g := k.Build()
			grid := arch.MustGrid(c.config)
			mapAt := func(procs int) outcome {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				rec := obs.NewRecorder(obs.NewRegistry(), nil)
				opt := core.DefaultOptions(core.FlowCAB)
				opt.Obs = rec
				m, err := core.Map(g, grid, opt)
				o := outcome{counters: map[string]int64{}}
				for _, name := range names {
					o.counters[name] = rec.Counter(name).Value()
				}
				if err != nil {
					o.err = err.Error()
				} else {
					o.img = imageOf(t, m)
				}
				return o
			}
			seq := mapAt(1)
			par := mapAt(4)
			if seq.err != par.err {
				t.Fatalf("error text differs:\nGOMAXPROCS=1: %s\nGOMAXPROCS=4: %s", seq.err, par.err)
			}
			if !bytes.Equal(seq.img, par.img) {
				t.Fatal("assembled images differ between GOMAXPROCS=1 and GOMAXPROCS=4")
			}
			for _, name := range names {
				if a, b := seq.counters[name], par.counters[name]; a != b {
					t.Errorf("%s: %d at GOMAXPROCS=1, %d at GOMAXPROCS=4", name, a, b)
				}
			}
			if n := seq.counters["core.map.attempts"]; n <= int64(len(g.Blocks)) {
				t.Fatalf("%d attempts over %d blocks: no block retried, so the check is vacuous", n, len(g.Blocks))
			}
		})
	}
}
