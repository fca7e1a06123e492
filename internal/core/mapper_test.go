package core

import (
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/kernels"
)

// smallLoop builds a compact loop kernel used throughout the mapper tests.
func smallLoop(n int32) *cdfg.Graph {
	b := cdfg.NewBuilder("small")
	e := b.Block("entry")
	e.SetSym("i", e.Const(0))
	e.Jump("loop")
	l := b.Block("loop")
	i := l.Sym("i")
	x := l.Load(i)
	l.Store(l.AddC(i, n), l.AddC(l.MulC(x, 5), 7))
	i2 := l.AddC(i, 1)
	l.SetSym("i", i2)
	l.BranchIf(l.Lt(i2, l.Const(n)), "loop", "exit")
	b.Block("exit")
	return b.Finish()
}

func TestMapSmallLoopAllFlowsAllConfigs(t *testing.T) {
	g := smallLoop(8)
	for _, cfg := range arch.ConfigNames() {
		for _, flow := range Flows() {
			m, err := Map(g, arch.MustGrid(cfg), DefaultOptions(flow))
			if err != nil {
				t.Fatalf("%s/%s: %v", cfg, flow, err)
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("%s/%s: Validate: %v", cfg, flow, err)
			}
			if err := dataflowCheck(m); err != nil {
				t.Fatalf("%s/%s: dataflow check: %v", cfg, flow, err)
			}
			if flow.memoryAware() {
				if ok, tile := m.FitsMemory(); !ok {
					t.Fatalf("%s/%s: overflow on tile %d", cfg, flow, tile+1)
				}
			}
		}
	}
}

func TestMapDeterminism(t *testing.T) {
	g := smallLoop(8)
	grid := arch.MustGrid(arch.HET1)
	opt := DefaultOptions(FlowCAB)
	a, err := Map(g, grid, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Map(g, grid, opt)
	if err != nil {
		t.Fatal(err)
	}
	wa, wb := a.TileWords(), b.TileWords()
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("same seed produced different mappings: %v vs %v", wa, wb)
		}
	}
	opt2 := opt
	opt2.Seed = 99
	if _, err := Map(g, grid, opt2); err != nil {
		t.Fatalf("different seed must still map: %v", err)
	}
}

func TestMapRejectsInvalidInputs(t *testing.T) {
	grid := arch.MustGrid(arch.HOM64)
	if _, err := Map(&cdfg.Graph{Name: "bad"}, grid, DefaultOptions(FlowBasic)); err == nil {
		t.Error("invalid graph should fail")
	}
	g := smallLoop(4)
	broken := arch.MustGrid(arch.HOM64)
	broken.RRFSize = 0
	if _, err := Map(g, broken, DefaultOptions(FlowBasic)); err == nil {
		t.Error("invalid grid should fail")
	}
}

// TestMapKernelsMatrix is the heavyweight integration test: every paper
// kernel under every flow on the configurations the evaluation uses, with
// the dataflow checker (enforced inside Map) and the memory constraint
// verified. Expected no-mapping cells are tolerated, matching Figs 6-8.
func TestMapKernelsMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("mapping matrix is slow; run without -short")
	}
	type cellKey struct {
		flow Flow
		cfg  arch.ConfigName
	}
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			g := k.Build()
			cells := []cellKey{
				{FlowBasic, arch.HOM64},
				{FlowACMAP, arch.HET1},
				{FlowECMAP, arch.HOM32},
				{FlowCAB, arch.HET1},
				{FlowCAB, arch.HET2},
			}
			mapped := 0
			for _, c := range cells {
				m, err := Map(g, arch.MustGrid(c.cfg), DefaultOptions(c.flow))
				if err != nil {
					continue // no-mapping cells are expected for tight configs
				}
				mapped++
				if err := m.Validate(); err != nil {
					t.Fatalf("%s/%s: %v", c.flow, c.cfg, err)
				}
				if c.flow.memoryAware() {
					if ok, tile := m.FitsMemory(); !ok {
						t.Fatalf("%s/%s: overflow on tile %d", c.flow, c.cfg, tile+1)
					}
				}
				for s := range m.SymHomes {
					found := false
					for _, b := range g.Blocks {
						_, live := b.LiveOut[s]
						found = found || live || slices.Contains(b.SymReads(), s)
					}
					if !found {
						t.Fatalf("%s/%s: home for unknown symbol %q", c.flow, c.cfg, s)
					}
				}
			}
			if mapped == 0 {
				t.Fatalf("no cell mapped for %s", k.Name)
			}
			// The basic flow on HOM64 must always map (the paper's
			// baseline premise).
			if _, err := Map(g, arch.MustGrid(arch.HOM64), DefaultOptions(FlowBasic)); err != nil {
				t.Fatalf("basic/HOM64 must map: %v", err)
			}
		})
	}
}

func TestScheduleOrder(t *testing.T) {
	g := smallLoop(4)
	blk := g.Blocks[1]
	order := scheduleOrderInto(blk, cdfg.Analyze(blk), cdfg.Users(blk), nil)
	pos := map[cdfg.NodeID]int{}
	for i, n := range order {
		pos[n] = i
	}
	count := 0
	for _, nd := range blk.Nodes {
		if nd.Op == cdfg.OpConst || nd.Op == cdfg.OpSym {
			if _, ok := pos[nd.ID]; ok {
				t.Fatalf("const/sym n%d should not be scheduled", nd.ID)
			}
			continue
		}
		count++
		p, ok := pos[nd.ID]
		if !ok {
			t.Fatalf("n%d missing from schedule order", nd.ID)
		}
		for _, a := range nd.Args {
			an := blk.Nodes[a]
			if an.Op == cdfg.OpConst || an.Op == cdfg.OpSym {
				continue
			}
			if pos[a] >= p {
				t.Fatalf("n%d scheduled before its argument n%d", nd.ID, a)
			}
		}
	}
	if len(order) != count {
		t.Fatalf("order has %d nodes, want %d", len(order), count)
	}
}

func TestStaticCyclesAndTotals(t *testing.T) {
	g := smallLoop(8)
	m, err := Map(g, arch.MustGrid(arch.HOM64), DefaultOptions(FlowBasic))
	if err != nil {
		t.Fatal(err)
	}
	plain := m.StaticCycles(nil)
	if plain <= 0 {
		t.Fatal("no static cycles")
	}
	profile := map[cdfg.BBID]int{1: 8} // the loop body runs 8 times
	weighted := m.StaticCycles(profile)
	if weighted <= plain {
		t.Errorf("profile weighting should grow cycles: %d vs %d", weighted, plain)
	}
	total := 0
	for _, w := range m.TileWords() {
		total += w
	}
	if got := m.TotalOps() + m.TotalMoves() + m.TotalPnops(); got != total {
		t.Errorf("word totals disagree: %d vs %d", got, total)
	}
}

// TestMapExtremeOptions stresses degenerate and restrictive tunings: the
// mapper must stay correct (dataflow check runs inside Map) even when the
// search is crippled.
func TestMapExtremeOptions(t *testing.T) {
	g := smallLoop(8)
	grid := arch.MustGrid(arch.HET1)
	cases := []struct {
		name string
		tune func(*Options)
	}{
		{"beam1", func(o *Options) { o.BeamWidth = 1 }},
		{"deterministic-beam", func(o *Options) { o.DetFraction = 1 }},
		{"sampled-beam", func(o *Options) { o.DetFraction = 0 }},
		{"hold1", func(o *Options) { o.MaxHold = 1 }},
		{"no-recompute", func(o *Options) { o.Recompute = false }},
		{"tiny-window", func(o *Options) { o.SlackWindow = 1; o.MaxSlack = 2 }},
		{"wide-window", func(o *Options) { o.MaxSlack = 100 }},
		{"tiny-candidates", func(o *Options) { o.CandidateCap = 2 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opt := DefaultOptions(FlowCAB)
			c.tune(&opt)
			m, err := Map(g, grid, opt)
			if err != nil {
				t.Fatalf("mapping failed: %v", err)
			}
			if ok, tile := m.FitsMemory(); !ok {
				t.Fatalf("overflow on tile %d", tile+1)
			}
		})
	}
}

// TestMapStatsPopulated checks the statistics the compile-time figure and
// the CLI report.
func TestMapStatsPopulated(t *testing.T) {
	m, err := Map(smallLoop(8), arch.MustGrid(arch.HOM32), DefaultOptions(FlowCAB))
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats
	if st.CompileTime <= 0 {
		t.Error("compile time not measured")
	}
	if st.Partials <= 0 {
		t.Error("no partials counted")
	}
	if st.PrunedStochastic < 0 || st.PrunedACMAP < 0 || st.PrunedECMAP < 0 {
		t.Error("negative pruning counters")
	}
}
