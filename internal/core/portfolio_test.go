package core_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/power"
)

// imageOf assembles the mapping and serializes its binary image — the
// byte-exact fingerprint the determinism tests compare.
func imageOf(t testing.TB, m *core.Mapping) []byte {
	t.Helper()
	prog, err := asm.Assemble(m)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	img, err := asm.SaveImage(prog)
	if err != nil {
		t.Fatalf("save image: %v", err)
	}
	return img
}

// tinyGrid is a 4×4 grid whose context memories are far too small for any
// benchmark kernel: every seed of a memory-aware portfolio must fail on
// it, deterministically.
func tinyGrid(t testing.TB) *arch.Grid {
	t.Helper()
	var cm [16]int
	for i := range cm {
		cm[i] = 2
	}
	g, err := arch.CustomGrid("TINY2", cm)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPortfolioSingleSeedEqualsMap(t *testing.T) {
	k, err := kernels.ByName("FIR")
	if err != nil {
		t.Fatal(err)
	}
	g := k.Build()
	grid := arch.MustGrid(arch.HOM32)
	opt := core.DefaultOptions(core.FlowCAB)
	opt.Seed = 5

	direct, err := core.Map(g, grid, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.MapPortfolio(context.Background(), g, grid, opt, core.PortfolioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seed != 5 {
		t.Errorf("winner seed %d, want the base seed 5", res.Seed)
	}
	if len(res.Reports) != 1 || !res.Reports[0].OK || !res.Reports[0].Winner {
		t.Errorf("reports: %+v", res.Reports)
	}
	if !bytes.Equal(imageOf(t, direct), imageOf(t, res.Mapping)) {
		t.Error("a 1-seed portfolio must reproduce plain Map byte for byte")
	}
}

func TestPortfolioAllSeedsFail(t *testing.T) {
	k, err := kernels.ByName("FIR")
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(core.FlowCAB)
	res, err := core.MapPortfolio(context.Background(), k.Build(), tinyGrid(t), opt, core.PortfolioOptions{NumSeeds: 3})
	if err == nil {
		t.Fatal("expected every seed to fail on the tiny grid")
	}
	if res != nil {
		t.Errorf("failed portfolio returned a result: %+v", res)
	}
	// The aggregated error names every job's failure.
	for _, want := range []string{"seed 1:", "seed 2:", "seed 3:", "portfolio of 3 jobs"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q misses %q", err, want)
		}
	}
}

func TestPortfolioPreCancelled(t *testing.T) {
	k, err := kernels.ByName("FIR")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := core.DefaultOptions(core.FlowCAB)
	res, err := core.MapPortfolio(ctx, k.Build(), arch.MustGrid(arch.HOM32), opt, core.PortfolioOptions{NumSeeds: 4})
	if err == nil {
		t.Fatalf("cancelled portfolio succeeded: %+v", res)
	}
	if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("error should reflect the cancellation: %v", err)
	}
}

// TestPortfolioTieBreaks drives the tie-break table: with a constant
// tie-break equal word counts must fall through to the lowest seed, a
// TieBreak must order equal word counts by Secondary, and an explicit
// unordered seed list must not bias the winner toward its first element.
func TestPortfolioTieBreaks(t *testing.T) {
	k, err := kernels.ByName("FIR")
	if err != nil {
		t.Fatal(err)
	}
	g := k.Build()
	grid := arch.MustGrid(arch.HOM32)
	opt := core.DefaultOptions(core.FlowCAB)

	// expectedWinner replays the portfolio serially with plain Map and
	// applies the documented rule: best score, ties to the lowest seed.
	expectedWinner := func(seeds []int64, tieBreak func(*core.Mapping) float64) (int64, bool) {
		bestSeed, ok := int64(0), false
		var bestScore core.Score
		for _, s := range seeds {
			o := opt
			o.Seed = s
			m, err := core.Map(g, grid, o)
			if err != nil {
				continue
			}
			sc := core.Score{Primary: float64(m.TotalWords())}
			if tieBreak != nil {
				sc.Secondary = tieBreak(m)
			}
			if !ok || sc.Less(bestScore) || (!bestScore.Less(sc) && s < bestSeed) {
				bestSeed, bestScore, ok = s, sc, true
			}
		}
		return bestSeed, ok
	}

	cases := []struct {
		name     string
		seeds    []int64
		tieBreak func(*core.Mapping) float64
	}{
		{"constant score falls through to lowest seed", []int64{4, 2, 9}, func(*core.Mapping) float64 { return 0 }},
		{"secondary breaks primary ties", []int64{1, 2, 3, 4}, func(m *core.Mapping) float64 {
			return float64(m.TotalMoves())
		}},
		{"default words objective", []int64{1, 2, 3, 4, 5, 6}, nil},
		{"energy-tie-break objective", []int64{1, 2, 3, 4, 5, 6}, power.Default().StaticMappingEnergy},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, ok := expectedWinner(tc.seeds, tc.tieBreak)
			if !ok {
				t.Fatal("no seed mapped")
			}
			res, err := core.MapPortfolio(context.Background(), g, grid, opt,
				core.PortfolioOptions{Seeds: tc.seeds, TieBreak: tc.tieBreak, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if res.Seed != want {
				t.Errorf("winner seed %d, want %d", res.Seed, want)
			}
			winners := 0
			for _, rep := range res.Reports {
				if rep.Winner {
					winners++
					if rep.Seed != res.Seed {
						t.Errorf("winner flag on seed %d, result says %d", rep.Seed, res.Seed)
					}
				}
			}
			if winners != 1 {
				t.Errorf("%d reports flagged as winner", winners)
			}
		})
	}
}

func TestPortfolioRenderReports(t *testing.T) {
	k, err := kernels.ByName("FIR")
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(core.FlowCAB)
	res, err := core.MapPortfolio(context.Background(), k.Build(), arch.MustGrid(arch.HOM32), opt,
		core.PortfolioOptions{NumSeeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := res.RenderReports()
	for _, want := range []string{"winner", "seed", "wall", "ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("render misses %q:\n%s", want, out)
		}
	}
}

// TestPortfolioGOMAXPROCSIndependence is the determinism half of the
// portfolio contract: the winner (down to the assembled binary image) must
// not depend on how many OS threads the workers share.
func TestPortfolioGOMAXPROCSIndependence(t *testing.T) {
	k, err := kernels.ByName("FIR")
	if err != nil {
		t.Fatal(err)
	}
	g := k.Build()
	grid := arch.MustGrid(arch.HOM32)
	opt := core.DefaultOptions(core.FlowCAB)
	popt := core.PortfolioOptions{NumSeeds: 8, TieBreak: power.Default().StaticMappingEnergy}

	runAt := func(procs int) (int64, core.Score, []byte) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		res, err := core.MapPortfolio(context.Background(), g, grid, opt, popt)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return res.Seed, res.Score, imageOf(t, res.Mapping)
	}

	seed1, score1, img1 := runAt(1)
	seed8, score8, img8 := runAt(8)
	if seed1 != seed8 {
		t.Errorf("winner seed differs: %d at GOMAXPROCS=1, %d at GOMAXPROCS=8", seed1, seed8)
	}
	if score1 != score8 {
		t.Errorf("winner score differs: %v vs %v", score1, score8)
	}
	if !bytes.Equal(img1, img8) {
		t.Error("winner image differs between GOMAXPROCS=1 and GOMAXPROCS=8")
	}
}
