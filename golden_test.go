package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/oracle"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_mappings.txt and testdata/golden_search_work.txt from the current mapper output")

const (
	goldenPath     = "testdata/golden_mappings.txt"
	goldenWorkPath = "testdata/golden_search_work.txt"
)

// goldenOutcome is one (kernel, mode, config) cell's golden values: the
// bitstream checksum and the search work that produced it.
type goldenOutcome struct {
	sum, work string
}

// goldenRuns memoizes the cells' outcomes, so the checksum and the
// search-work goldens read the same Map call and a test process maps
// each cell once.
var goldenRuns struct {
	sync.Mutex
	cells map[string]goldenOutcome
}

// goldenWorkCounters are the recorder counters that make up a cell's
// search work, with the names the golden line gives them. A failed Map
// returns no Stats, but it fills the recorder.
var goldenWorkCounters = []struct{ name, counter string }{
	{"partials", "core.map.partials"},
	{"acmap", "core.prune.acmap"},
	{"ecmap", "core.prune.ecmap"},
	{"stochastic", "core.prune.stochastic"},
	{"planned", "core.route.planned"},
	{"screened", "core.route.screened"},
	{"retries", "core.map.retries"},
	{"recomputes", "core.map.recomputes"},
}

// goldenCell maps one cell, or returns its memoized outcome. The checksum
// is a short SHA-256 of the assembled bitstream image, or "no-mapping"
// when the flow finds no solution. The search work lists every search
// counter of core.Stats and a short SHA-256 of the error text ("-" on
// success). The mapper is seeded (DefaultOptions Seed = 1), so both are
// pure functions of the mapper code: any silent drift in placement,
// routing, scheduling, encoding or in the work the search does shows.
func goldenCell(t *testing.T, kernel kernels.Kernel, mode oracle.Mode, cfg arch.ConfigName) goldenOutcome {
	t.Helper()
	key := kernel.Name + " " + mode.String() + " " + string(cfg)
	goldenRuns.Lock()
	defer goldenRuns.Unlock()
	if o, ok := goldenRuns.cells[key]; ok {
		return o
	}
	g := kernel.Build()
	grid := arch.MustGrid(cfg)
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	opt := mode.Options()
	opt.Obs = rec
	m, err := core.Map(g, grid, opt)
	var work strings.Builder
	for _, c := range goldenWorkCounters {
		fmt.Fprintf(&work, "%s=%d ", c.name, rec.Counter(c.counter).Value())
	}
	o := goldenOutcome{sum: "no-mapping"}
	if err != nil {
		sum := sha256.Sum256([]byte(err.Error()))
		work.WriteString("err=" + hex.EncodeToString(sum[:6]))
	} else {
		work.WriteString("err=-")
		prog, err := asm.Assemble(m)
		if err != nil {
			t.Fatalf("%s: assemble of a valid mapping failed: %v", key, err)
		}
		img, err := asm.SaveImage(prog)
		if err != nil {
			t.Fatalf("%s: image encode failed: %v", key, err)
		}
		sum := sha256.Sum256(img)
		o.sum = hex.EncodeToString(sum[:6])
	}
	o.work = work.String()
	if goldenRuns.cells == nil {
		goldenRuns.cells = map[string]goldenOutcome{}
	}
	goldenRuns.cells[key] = o
	return o
}

// goldenMatrix renders one golden file's lines, "kernel mode config
// value", for every suite kernel × mapping mode × CM configuration, or
// under -short for the cheapest and the most complex mode on the two
// homogeneous configurations, which still catch gross drift.
func goldenMatrix(t *testing.T, value func(goldenOutcome) string) string {
	t.Helper()
	modes := oracle.Modes()
	configs := arch.ConfigNames()
	if testing.Short() {
		modes = []oracle.Mode{oracle.ModeBasic, oracle.ModeCAB}
		configs = []arch.ConfigName{arch.HOM64, arch.HOM32}
	}
	var sb strings.Builder
	for _, k := range kernels.All() {
		for _, mode := range modes {
			for _, cfg := range configs {
				fmt.Fprintf(&sb, "%s %s %s %s\n", k.Name, mode, cfg, value(goldenCell(t, k, mode, cfg)))
			}
		}
	}
	return sb.String()
}

// checkGolden compares got against the golden file at path cell by cell,
// or rewrites the file under -update-golden. A line is "kernel mode
// config value", where the value may hold spaces.
func checkGolden(t *testing.T, path, got, what string) {
	t.Helper()
	cell := func(line string) (string, string) {
		f := strings.SplitN(line, " ", 4)
		if len(f) != 4 {
			t.Fatalf("%s: malformed golden line %q", path, line)
		}
		return f[0] + " " + f[1] + " " + f[2], f[3]
	}
	if *updateGolden {
		if testing.Short() {
			t.Fatal("refusing to write a partial golden file under -short")
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cells)", path, strings.Count(got, "\n"))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-golden): %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		k, v := cell(line)
		want[k] = v
	}
	checked := 0
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		k, v := cell(line)
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: cell missing from %s (regenerate with -update-golden)", k, path)
			continue
		}
		checked++
		if v != w {
			t.Errorf("%s: %s\n  got    %s\n  golden %s", k, what, v, w)
		}
	}
	if checked == 0 {
		t.Fatalf("no cells of %s checked", path)
	}
}

// TestGoldenMappingChecksums pins a checksum of the assembled bitstream
// for every suite kernel × mapping mode × CM configuration. The golden
// file proves that performance rewrites of the mapper hot path (arena
// pooling, route memoization) are bit-exact: identical Options + seed
// must keep producing byte-identical programs. Regenerate deliberately
// with:
//
//	go test -run 'TestGoldenMappingChecksums|TestGoldenSearchWork' -update-golden .
func TestGoldenMappingChecksums(t *testing.T) {
	got := goldenMatrix(t, func(o goldenOutcome) string { return o.sum })
	checkGolden(t, goldenPath, got, "the mapper's output drifted")
}

// TestGoldenSearchWork pins, on the same cells and the same Map calls as
// TestGoldenMappingChecksums, every search counter of core.Stats and a
// hash of each failure's error text. A rewrite of the search that keeps
// the images but changes which partials it builds, prunes or plans, how
// often it retries, or why a cell fails shows here.
func TestGoldenSearchWork(t *testing.T) {
	got := goldenMatrix(t, func(o goldenOutcome) string { return o.work })
	checkGolden(t, goldenWorkPath, got, "the search work drifted")
}
