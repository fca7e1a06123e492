package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mapcli"
	"repro/internal/obs"
	"repro/internal/sim"
)

func TestRunFIRSmoke(t *testing.T) {
	var sb strings.Builder
	o := cliOptions{Flags: mapcli.Flags{Kernel: "FIR", Config: "HOM32", Flow: "cab", Seed: 1, Seeds: 1}}
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"FIR on HOM32", "verified OK", "cycles", "energy"} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}
}

// TestRunBatchSmoke drives the -batch knob: the batched engine re-runs
// the kernel with identical lanes, every lane cross-checks against the
// verified result, and the throughput line lands in the output. At
// -batch 64 and GOMAXPROCS 4 the engine splits the lanes into four
// shards.
func TestRunBatchSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, batch := range []int{4, 64} {
		var sb strings.Builder
		o := cliOptions{Flags: mapcli.Flags{Kernel: "FIR", Config: "HOM32", Flow: "cab", Seed: 1, Seeds: 1}, batch: batch}
		if err := run(&sb, o); err != nil {
			t.Fatal(err)
		}
		out := sb.String()
		for _, want := range []string{"verified OK", fmt.Sprintf("batch B=%d", batch), "all lanes verified identical", "/input"} {
			if !strings.Contains(out, want) {
				t.Errorf("-batch %d: output misses %q:\n%s", batch, want, out)
			}
		}
	}
}

func TestRunPortfolioWithCPUBaseline(t *testing.T) {
	var sb strings.Builder
	o := cliOptions{Flags: mapcli.Flags{Kernel: "FIR", Config: "HOM32", Flow: "cab", Seed: 1, Seeds: 3, Parallel: 2}, withCPU: true}
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"portfolio: 3 seeds", "<- winner", "verified OK", "or1k CPU", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}
}

func TestRunVerifySmoke(t *testing.T) {
	var sb strings.Builder
	o := cliOptions{Flags: mapcli.Flags{Kernel: "FIR", Config: "HOM32", Flow: "cab", Seed: 1, Seeds: 1}, verify: true}
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"static verification", "dataflow", "encode", "ok", "verified OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FAIL") || strings.Contains(out, "skipped") {
		t.Errorf("verify run on a full context should be clean:\n%s", out)
	}
}

// TestDivergenceReportGolden pins the failure printout users see when a
// simulated run diverges from the interpreter.
func TestDivergenceReportGolden(t *testing.T) {
	div := &sim.DivergenceError{
		Kernel: "FIR",
		Config: "HOM32",
		Mismatches: []sim.Mismatch{
			{Addr: 3, Ref: 10, Got: -1},
			{Addr: 17, Ref: 0, Got: 255},
		},
		Total:  5,
		Cycles: 1234,
	}
	got := divergenceReport(div, "cab")
	want := strings.Join([]string{
		"divergence: FIR under cab on HOM32 (1234 cycles, 5 divergent words)",
		"first divergent word: mem[3] interpreter 10, CGRA -1",
		"word  interpreter  cgra",
		"-----------------------",
		"3     10           -1  ",
		"17    0            255 ",
		"...   (+3 more)        ",
		"",
	}, "\n")
	if got != want {
		t.Errorf("divergence report changed:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRunRefusesOverflowWithCache: the basic flow ignores context-memory
// capacity, and MatM's basic mapping overflows tile 1 on HOM32. Going
// through the mapping cache must not let that mapping run: the refusal
// is the same with and without -cache.
func TestRunRefusesOverflowWithCache(t *testing.T) {
	for _, cache := range []bool{false, true} {
		var sb strings.Builder
		o := cliOptions{Flags: mapcli.Flags{Kernel: "MatM", Config: "HOM32", Flow: "basic", Seed: 1, Seeds: 1, Cache: cache}}
		err := run(&sb, o)
		if err == nil || !strings.Contains(err.Error(), "overflows tile 1's context memory") {
			t.Errorf("-cache=%v: err = %v, want the tile 1 overflow refusal\n%s", cache, err, sb.String())
		}
		if strings.Contains(sb.String(), "verified OK") {
			t.Errorf("-cache=%v: an overflowing mapping was simulated:\n%s", cache, sb.String())
		}
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

// TestBuiltBinary builds the real binary and runs FIR end to end on a
// tiny config, asserting exit code 0 and the expected stanzas.
func TestBuiltBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := t.TempDir() + "/cgrasim"
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-kernel", "FIR", "-config", "HOM32", "-flow", "cab").CombinedOutput()
	if err != nil {
		t.Fatalf("cgrasim exited non-zero: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "verified OK") {
		t.Errorf("stdout misses %q:\n%s", "verified OK", out)
	}
}

// TestMetricsEventsArtifacts drives run with the -metrics/-events wiring
// and validates both artifacts: the metrics file is one well-formed JSON
// object per line, and the events file is a Chrome trace whose
// traceEvents array is non-empty.
func TestMetricsEventsArtifacts(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	events := filepath.Join(dir, "e.trace")
	fr := obs.FileOutputs(metrics, events)
	o := cliOptions{Flags: mapcli.Flags{Kernel: "FIR", Config: "HOM32", Flow: "cab", Seed: 1, Seeds: 1}, rec: fr.Recorder}
	var sb strings.Builder
	if err := run(&sb, o); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := fr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 {
		t.Fatal("metrics file is empty")
	}
	names := map[string]bool{}
	for _, line := range lines {
		var m struct {
			Name  string `json:"name"`
			Kind  string `json:"kind"`
			Value int64  `json:"value"`
		}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad metrics line %q: %v", line, err)
		}
		if m.Name == "" || m.Kind == "" {
			t.Fatalf("metrics line %q misses name or kind", line)
		}
		names[m.Name] = true
	}
	for _, want := range []string{"core.map.calls", "sim.cycles", "sim.alu_ops"} {
		if !names[want] {
			t.Errorf("metrics file misses %s; have %d metrics", want, len(names))
		}
	}

	tdata, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			PID  int     `json:"pid"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(tdata, &tr); err != nil {
		t.Fatalf("events file is not a Chrome trace: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	var sawCore, sawSim bool
	for _, e := range tr.TraceEvents {
		switch e.Name {
		case "core.map":
			sawCore = true
		}
		if e.PID == 2 && e.Ph == "X" {
			sawSim = true
		}
	}
	if !sawCore || !sawSim {
		t.Errorf("trace misses core.map span (%v) or sim block events (%v)", sawCore, sawSim)
	}
}
