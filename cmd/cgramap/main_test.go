package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mapcli"
)

func TestRunFIRSmoke(t *testing.T) {
	var sb strings.Builder
	o := cliOptions{Flags: mapcli.Flags{Kernel: "FIR", Config: "HOM32", Flow: "cab", Seed: 1, Seeds: 1}}
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"mapped FIR onto HOM32",
		"context-memory occupancy:",
		"tile 16",
		"symbol",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "WARNING") {
		t.Errorf("CAB mapping of FIR on HOM32 must fit:\n%s", out)
	}
}

func TestRunPortfolioSmoke(t *testing.T) {
	var sb strings.Builder
	o := cliOptions{Flags: mapcli.Flags{Kernel: "FIR", Config: "HOM32", Flow: "cab", Seed: 1, Seeds: 3, Parallel: 2}}
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"portfolio: 3 seeds", "<- winner", "portfolio wall time", "mapped FIR onto HOM32"} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}
}

func TestRunDotAndListing(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, cliOptions{Flags: mapcli.Flags{Kernel: "FIR"}, dot: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "digraph") {
		t.Errorf("dot output:\n%s", sb.String())
	}
	sb.Reset()
	o := cliOptions{Flags: mapcli.Flags{Kernel: "FIR", Config: "HOM32", Flow: "cab", Seed: 1}, listing: true}
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "tile") {
		t.Errorf("listing output:\n%s", sb.String())
	}
}

func TestRunVerifySmoke(t *testing.T) {
	var sb strings.Builder
	o := cliOptions{Flags: mapcli.Flags{Kernel: "FIR", Config: "HOM32", Flow: "cab", Seed: 1}, verify: true}
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"static verification", "dataflow", "encode", "ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FAIL") || strings.Contains(out, "skipped") {
		t.Errorf("verify on a mapped kernel should run every pass cleanly:\n%s", out)
	}
}

func TestRunAnalyzeStripSmoke(t *testing.T) {
	var sb strings.Builder
	o := cliOptions{Flags: mapcli.Flags{Kernel: "DCFilter", Config: "HOM64", Flow: "cab", Seed: 1}, analyze: true, strip: true}
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"static analysis: dcfilter on HOM64",
		"per-block static cost",
		"never taken",
		"dead-context elimination:",
		"stripped bitstream re-verification:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}
	// The DCFilter ships a configuration-dead seed arm; stripping it must
	// actually reclaim context words, and the result must verify clean.
	if strings.Contains(out, "(0 saved)") {
		t.Errorf("strip reclaimed nothing on DCFilter:\n%s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("stripped bitstream failed re-verification:\n%s", out)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	var sb strings.Builder
	for _, o := range []cliOptions{
		{Flags: mapcli.Flags{Kernel: "nope", Config: "HOM64", Flow: "cab"}},
		{Flags: mapcli.Flags{Kernel: "FIR", Config: "HOM65", Flow: "cab"}},
		{Flags: mapcli.Flags{Kernel: "FIR", Config: "HOM64", Flow: "quantum"}},
	} {
		if err := run(&sb, o); err == nil {
			t.Errorf("%+v should fail", o)
		}
	}
}

// TestBuiltBinary builds the real binary and runs it on FIR with a tiny
// config, asserting exit code 0, the expected stanzas on stdout, and that
// the -cpuprofile/-memprofile hooks write non-empty profiles — the
// end-to-end path including flag parsing.
func TestBuiltBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	dir := t.TempDir()
	bin := dir + "/cgramap"
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	out, err := exec.Command(bin, "-kernel", "FIR", "-config", "HOM32", "-flow", "cab", "-seeds", "2",
		"-cpuprofile", cpu, "-memprofile", mem).CombinedOutput()
	if err != nil {
		t.Fatalf("cgramap exited non-zero: %v\n%s", err, out)
	}
	for _, want := range []string{"portfolio: 2 seeds", "mapped FIR onto HOM32"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("stdout misses %q:\n%s", want, out)
		}
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}
