package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/obs"
)

// renderMapping serializes everything the assembler consumes, so equal
// renderings mean byte-identical binary images.
func renderMapping(m *Mapping) string {
	var sb strings.Builder
	for _, b := range m.Blocks {
		fmt.Fprintf(&sb, "bb%d len=%d branch=%d\n", b.BB, b.Len, b.BranchTile)
		for t, row := range b.Tiles {
			fmt.Fprintf(&sb, " t%d %v ops=%d moves=%d pnops=%d\n", t, row, b.Ops[t], b.Moves[t], b.Pnops[t])
		}
	}
	syms := make([]string, 0, len(m.SymHomes))
	for s := range m.SymHomes {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	for _, s := range syms {
		fmt.Fprintf(&sb, "home %s=%v\n", s, m.SymHomes[s])
	}
	return sb.String()
}

// TestMapObsInvariance pins the observability contract: attaching a
// recorder must not change the mapping (the search never consults the
// instrumentation), and the recorder must actually capture the mapper's
// phase structure.
func TestMapObsInvariance(t *testing.T) {
	g := smallLoop(8)
	grid := arch.MustGrid(arch.HET1)
	opt := DefaultOptions(FlowCAB)

	plain, err := Map(g, grid, opt)
	if err != nil {
		t.Fatal(err)
	}

	sink := obs.NewBufferSink(0)
	rec := obs.NewRecorder(obs.NewRegistry(), sink)
	opt.Obs = rec
	instr, err := Map(g, grid, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderMapping(plain), renderMapping(instr); a != b {
		t.Fatalf("recorder changed the mapping:\n--- plain ---\n%s\n--- instrumented ---\n%s", a, b)
	}

	st := instr.Stats
	total := st.Phases.Schedule + st.Phases.Route + st.Phases.Bind + st.Phases.Prune + st.Phases.Finalize
	if total <= 0 {
		t.Error("phase times not measured")
	}
	if total > st.CompileTime {
		t.Errorf("phase times %v exceed compile time %v", total, st.CompileTime)
	}
	if got := rec.Counter("core.map.calls").Value(); got != 1 {
		t.Errorf("core.map.calls = %d, want 1", got)
	}
	if got := rec.Counter("core.map.partials").Value(); got != int64(st.Partials) {
		t.Errorf("core.map.partials = %d, want %d", got, st.Partials)
	}

	events := sink.Events()
	// Spans emit begin/end pairs; the end event carries duration and args,
	// so it is the one counted as "the span" here.
	spans := map[string]int{}
	for _, e := range events {
		if e.Ph == obs.PhaseEnd {
			spans[e.Name]++
		}
		if e.PID != obs.PIDTool {
			t.Errorf("mapper event %q on pid %d, want PIDTool", e.Name, e.PID)
		}
	}
	if spans["core.map"] != 1 {
		t.Errorf("core.map spans = %d, want 1", spans["core.map"])
	}
	if want := len(g.Blocks); spans["core.map.block"] != want {
		t.Errorf("core.map.block spans = %d, want %d", spans["core.map.block"], want)
	}
}

// TestMapPortfolioObs checks the per-seed portfolio instrumentation.
func TestMapPortfolioObs(t *testing.T) {
	g := smallLoop(8)
	grid := arch.MustGrid(arch.HET1)
	opt := DefaultOptions(FlowCAB)
	sink := obs.NewBufferSink(0)
	rec := obs.NewRecorder(obs.NewRegistry(), sink)
	opt.Obs = rec

	res, err := MapPortfolio(context.Background(), g, grid, opt, PortfolioOptions{NumSeeds: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ok := rec.Counter("core.portfolio.seeds_ok").Value()
	failed := rec.Counter("core.portfolio.seeds_failed").Value()
	pruned := rec.Counter("core.portfolio.seeds_pruned").Value()
	if ok+failed+pruned != 3 {
		t.Errorf("seed outcomes %d ok + %d failed + %d pruned, want 3 total", ok, failed, pruned)
	}
	if got := rec.Counter("core.map.calls").Value(); got != 3 {
		t.Errorf("core.map.calls = %d, want 3", got)
	}
	// Count each seed span once, by its end event (the begin carries no
	// args yet).
	seedSpans, winners := 0, 0
	for _, e := range sink.Events() {
		switch {
		case e.Name == "core.portfolio.seed" && e.Ph == obs.PhaseEnd:
			seedSpans++
		case e.Name == "core.portfolio.winner":
			winners++
			if e.Args["seed"] != res.Seed {
				t.Errorf("winner event seed %v, want %d", e.Args["seed"], res.Seed)
			}
		}
	}
	if seedSpans != 3 {
		t.Errorf("per-seed spans = %d, want 3", seedSpans)
	}
	if winners != 1 {
		t.Errorf("winner events = %d, want 1", winners)
	}
}
