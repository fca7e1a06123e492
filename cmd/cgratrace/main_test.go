package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/obs"
)

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestReportGolden pins the full analysis report on the checked-in
// fixture: attribution, critical path and per-cell tables are part of
// the CLI contract scripts/ci.sh gates on.
func TestReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{filepath.Join("testdata", "trace_old.jsonl")}); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), golden(t, "golden_report.txt"); got != want {
		t.Fatalf("report drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestDiffGolden pins the -diff phase-attribution table between the two
// checked-in traces.
func TestDiffGolden(t *testing.T) {
	var buf bytes.Buffer
	err := runDiff(&buf,
		filepath.Join("testdata", "trace_old.jsonl"),
		filepath.Join("testdata", "trace_new.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), golden(t, "golden_diff.txt"); got != want {
		t.Fatalf("diff drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestDiffAttributesRegression checks the semantics behind the golden:
// the fixture pair regresses core.map.block by 500µs, and the diff must
// rank the mapper phases above the portfolio noise.
func TestDiffAttributesRegression(t *testing.T) {
	var buf bytes.Buffer
	err := runDiff(&buf,
		filepath.Join("testdata", "trace_old.jsonl"),
		filepath.Join("testdata", "trace_new.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	blockIdx := strings.Index(out, "core.map.block")
	seedIdx := strings.Index(out, "core.portfolio.seed")
	if blockIdx < 0 || seedIdx < 0 || blockIdx > seedIdx {
		t.Fatalf("regressed phase not ranked above stable one:\n%s", out)
	}
	if !strings.Contains(out, "+500") {
		t.Fatalf("core.map.block delta (+500) missing:\n%s", out)
	}
	if !strings.Contains(out, "TOTAL (tool wall)") {
		t.Fatalf("missing wall total row:\n%s", out)
	}
}

// TestCriticalPathThroughPortfolio checks the path picks the slowest
// seed track and descends into its mapper span.
func TestCriticalPathThroughPortfolio(t *testing.T) {
	roots, err := loadForest(filepath.Join("testdata", "trace_old.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := criticalPath(roots)
	if len(path) != 2 {
		t.Fatalf("critical path has %d hops, want 2: %+v", len(path), path)
	}
	if path[0].Name != "core.portfolio.seed" || path[0].Dur != 1210 || path[0].TID != 2 {
		t.Fatalf("path root %+v, want the slowest seed (tid 2, 1210µs)", path[0])
	}
	if path[1].Name != "core.map" || path[1].Dur != 1195 {
		t.Fatalf("path leaf %+v, want its core.map", path[1])
	}
}

// TestSelfVsTotalAttribution checks self-time subtracts nested children:
// core.map's fixture spans total 2780µs but 800µs belong to its
// core.map.block children on tid 0.
func TestSelfVsTotalAttribution(t *testing.T) {
	roots, err := loadForest(filepath.Join("testdata", "trace_old.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*phaseAgg{}
	for _, a := range attribution(roots) {
		byName[a.name] = a
	}
	m := byName["core.map"]
	if m == nil || m.count != 3 || m.total != 2780 || m.self != 1980 {
		t.Fatalf("core.map attribution %+v, want count=3 total=2780 self=1980", m)
	}
	b := byName["core.map.block"]
	if b == nil || b.total != 800 || b.self != 800 {
		t.Fatalf("core.map.block attribution %+v, want total=self=800 (leaf)", b)
	}
	// The sim's cycle-domain X event must not leak into wall attribution.
	if _, found := byName["block"]; found {
		t.Fatal("PIDSim event attributed as tool wall time")
	}
}

// TestMalformedTraceRejected: structural violations must fail the load,
// not skew the report, with an error that names the violation.
func TestMalformedTraceRejected(t *testing.T) {
	cases := map[string]struct{ content, wantErr string }{
		"unmatched begin": {`{"name":"a","ph":"B","ts":0,"pid":1,"tid":0,"id":1}` + "\n", "no matching end"},
		"unmatched end":   {`{"name":"a","ph":"E","ts":5,"dur":5,"pid":1,"tid":0,"id":1}` + "\n", "without a begin"},
		"negative duration": {`{"name":"a","ph":"B","ts":0,"pid":1,"tid":0,"id":1}` + "\n" +
			`{"name":"a","ph":"E","ts":5,"dur":-5,"pid":1,"tid":0,"id":1}` + "\n", "negative duration"},
		"negative complete duration": {`{"name":"x","ph":"X","ts":0,"dur":-1,"pid":1,"tid":0}` + "\n", "negative duration"},
		"backwards timestamps": {`{"name":"a","ph":"i","ts":10,"pid":1,"tid":0}` + "\n" +
			`{"name":"b","ph":"i","ts":5,"pid":1,"tid":0}` + "\n", "goes backwards"},
		"mismatched ids": {`{"name":"a","ph":"B","ts":0,"pid":1,"tid":0,"id":1}` + "\n" +
			`{"name":"a","ph":"E","ts":5,"dur":5,"pid":1,"tid":0,"id":9}` + "\n", "does not match open span"},
		"not an event": {`{"name":"a","kind":"counter","value":1}` + "\n", "unknown field"},
	}
	dir := t.TempDir()
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(name, " ", "_")+".jsonl")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := loadForest(path)
			if err == nil {
				t.Fatalf("malformed trace (%s) loaded without error", name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q misses %q", err, tc.wantErr)
			}
		})
	}
}

// TestLoadForestValidTrace: a paired begin/end span and a complete sim
// span load as two roots.
func TestLoadForestValidTrace(t *testing.T) {
	roots, err := loadForest(writeTrace(t,
		`{"name":"core.map","ph":"B","ts":0,"pid":1,"tid":0,"id":1}`,
		`{"name":"core.map","ph":"E","ts":10,"dur":10,"pid":1,"tid":0,"id":1}`,
		`{"name":"block","cat":"sim","ph":"X","ts":0,"dur":4,"pid":2,"tid":0}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 2 {
		t.Fatalf("got %d root spans, want 2", len(roots))
	}
}

// TestLoadForestAllowsSimTimestampRestart: sim-track timestamps restart
// per run; only wall-clock tracks are held to monotone order.
func TestLoadForestAllowsSimTimestampRestart(t *testing.T) {
	_, err := loadForest(writeTrace(t,
		`{"name":"block","cat":"sim","ph":"X","ts":100,"dur":4,"pid":2,"tid":0}`,
		`{"name":"block","cat":"sim","ph":"X","ts":0,"dur":4,"pid":2,"tid":0}`))
	if err != nil {
		t.Fatalf("sim cycle restart rejected: %v", err)
	}
}

// writeTrace writes one JSONL event per line to a temporary file.
func writeTrace(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestEndToEndRecorderTrace drives the real pipeline: record an actual
// portfolio mapping, flush the Chrome-trace artifact the CLIs write, and
// analyze it. Timings vary run to run, so this asserts structure, not
// numbers.
func TestEndToEndRecorderTrace(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.trace")
	f := obs.FileOutputs("", events)
	k, err := kernels.ByName("FIR")
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(core.FlowCAB)
	opt.Obs = f.Recorder
	popt := core.PortfolioOptions{NumSeeds: 3, Workers: 2}
	if _, err := core.MapPortfolio(context.Background(), k.Build(), arch.MustGrid(arch.HOM64), opt, popt); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}

	roots, err := loadForest(events)
	if err != nil {
		t.Fatalf("recorder-written trace failed validation: %v", err)
	}
	byName := map[string]*phaseAgg{}
	for _, a := range attribution(roots) {
		byName[a.name] = a
	}
	seeds := byName["core.portfolio.seed"]
	if seeds == nil || seeds.count != 3 {
		t.Fatalf("portfolio seed attribution %+v, want 3 seed spans", seeds)
	}
	if byName["core.map"] == nil || byName["core.map"].total <= 0 {
		t.Fatalf("core.map attribution missing: %+v", byName)
	}
	if len(criticalPath(roots)) == 0 {
		t.Fatal("no critical path through a live portfolio trace")
	}
	var report bytes.Buffer
	if err := run(&report, []string{events}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "phase attribution") {
		t.Fatalf("report missing attribution section:\n%s", report.String())
	}
}
