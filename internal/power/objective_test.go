package power

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/kernels"
)

func mapFIR(t *testing.T, cfg arch.ConfigName) *core.Mapping {
	t.Helper()
	k, err := kernels.ByName("FIR")
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Map(k.Build(), arch.MustGrid(cfg), core.DefaultOptions(core.FlowCAB))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestStaticMappingEnergy(t *testing.T) {
	p := Default()
	m := mapFIR(t, arch.HOM32)
	e := p.StaticMappingEnergy(m)
	if e <= 0 {
		t.Fatalf("static energy %g", e)
	}
	// The estimate must price context words: the same kernel mapped onto
	// the all-64-word grid pays more configuration and leakage energy.
	if e64 := p.StaticMappingEnergy(mapFIR(t, arch.HOM64)); e64 <= e {
		t.Errorf("HOM64 static energy %g should exceed HOM32's %g (larger context memories)", e64, e)
	}
}

// TestPortfolioObjectiveOrdering checks the CLI tools' portfolio
// objective: the winner's score is its word count, tie-broken by the
// static energy estimate.
func TestPortfolioObjectiveOrdering(t *testing.T) {
	k, err := kernels.ByName("FIR")
	if err != nil {
		t.Fatal(err)
	}
	p := Default()
	res, err := core.MapPortfolio(context.Background(), k.Build(), arch.MustGrid(arch.HOM32),
		core.DefaultOptions(core.FlowCAB), core.PortfolioOptions{NumSeeds: 2, TieBreak: p.StaticMappingEnergy})
	if err != nil {
		t.Fatal(err)
	}
	s, m := res.Score, res.Mapping
	if s.Primary != float64(m.TotalWords()) {
		t.Errorf("primary %g, want total words %d", s.Primary, m.TotalWords())
	}
	if s.Secondary != p.StaticMappingEnergy(m) || s.Secondary <= 0 {
		t.Errorf("secondary %g, want the positive energy estimate %g", s.Secondary, p.StaticMappingEnergy(m))
	}
	// Score ordering: fewer words dominates any energy difference.
	a := core.Score{Primary: 10, Secondary: 99}
	b := core.Score{Primary: 11, Secondary: 1}
	if !a.Less(b) || b.Less(a) {
		t.Error("primary must dominate the ordering")
	}
	c := core.Score{Primary: 10, Secondary: 1}
	if !c.Less(a) {
		t.Error("secondary must break primary ties")
	}
}
