package static_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/oracle"
	"repro/internal/static"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/report_cab_HET1.golden from the current Report output")

const reportGoldenPath = "testdata/report_cab_HET1.golden"

// TestReportGolden pins (*Analysis).Report, the cgramap -analyze text,
// on cab/HET1 for the seven suite kernels and ten generated graphs: the
// def-use, constant-operand and per-block bound numbers Report builds on
// demand. The kernels carry no provable constant operand and no dead
// cell; the generated graphs do. Regenerate deliberately with:
//
//	go test -run TestReportGolden -update-golden ./internal/static
func TestReportGolden(t *testing.T) {
	var sb strings.Builder
	for _, k := range kernels.All() {
		prog, skip := mapCell(t, k, oracle.ModeCAB, arch.HET1)
		if prog == nil {
			t.Fatalf("%s: %s", k.Name, skip)
		}
		a, err := static.Analyze(prog)
		if err != nil {
			t.Fatalf("%s: analyze: %v", k.Name, err)
		}
		sb.WriteString(a.Report())
	}
	for seed := int64(0); seed < 10; seed++ {
		g, _ := cdfg.Generate(rand.New(rand.NewSource(seed)), cdfg.DefaultGenConfig())
		m, err := core.Map(g, arch.MustGrid(arch.HET1), oracle.ModeCAB.Options())
		if err != nil {
			fmt.Fprintf(&sb, "seed %d: no mapping\n", seed)
			continue
		}
		prog, err := asm.Assemble(m)
		if err != nil {
			t.Fatalf("seed %d: assemble: %v", seed, err)
		}
		a, err := static.Analyze(prog)
		if err != nil {
			t.Fatalf("seed %d: analyze: %v", seed, err)
		}
		fmt.Fprintf(&sb, "seed %d: ", seed)
		sb.WriteString(a.Report())
	}
	got := sb.String()
	if *updateGolden {
		if err := os.WriteFile(reportGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(reportGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("Report drifted from %s:\n%s", reportGoldenPath, got)
	}
}
