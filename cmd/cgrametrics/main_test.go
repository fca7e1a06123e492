package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunPrintsValidFile(t *testing.T) {
	path := writeFile(t, "m.json", strings.Join([]string{
		`{"name":"core.map.calls","kind":"counter","value":7}`,
		`{"name":"core.map.duration_us","kind":"histogram","value":900,"count":3,"p50":300,"p99":600}`,
		``,
	}, "\n"))
	var sb strings.Builder
	if err := run(&sb, []string{path}); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"m.json: 2 metrics", "core.map.calls", "7", "p99=600"} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}
}

// TestRunRejectsMalformed pins the gate behaviour ci.sh relies on: a
// damaged metrics artifact must fail, with file:line context.
func TestRunRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, content, wantErr string
	}{
		{"truncated", `{"name":"a","kind":"counter"` + "\n", "malformed"},
		{"unknown field", `{"name":"a","kind":"counter","ph":"i"}` + "\n", "malformed"},
		{"trailing data", `{"name":"a","kind":"counter","value":1} {"x":1}` + "\n", "trailing data"},
		{"no name", `{"kind":"counter","value":1}` + "\n", "no name"},
		{"bad kind", `{"name":"a","kind":"meter","value":1}` + "\n", "unknown kind"},
		{"empty", "\n\n", "no metrics"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeFile(t, "m.json", tc.content)
			var sb strings.Builder
			err := run(&sb, []string{path})
			if err == nil {
				t.Fatalf("run accepted %s file", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q misses %q", err, tc.wantErr)
			}
		})
	}
}

func TestRunMissingFile(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, []string{filepath.Join(t.TempDir(), "absent.json")}); err == nil {
		t.Fatal("run accepted a missing file")
	}
}

func TestValidatePrometheus(t *testing.T) {
	good := []byte(strings.Join([]string{
		"# TYPE core_map_calls counter",
		"core_map_calls 7",
		"# TYPE core_map_us summary",
		`core_map_us{quantile="0.5"} 120`,
		"core_map_us_sum 900",
		"core_map_us_count 3",
		"",
	}, "\n"))
	n, err := validatePrometheus(good)
	if err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	if n != 4 {
		t.Fatalf("counted %d samples, want 4", n)
	}
	bad := []struct{ name, body string }{
		{"no value", "core_map_calls\n"},
		{"bad value", "core_map_calls seven\n"},
		{"bad name", "core.map.calls 7\n"},
		{"duplicate type", "# TYPE a counter\n# TYPE a counter\na 1\n"},
		{"unknown type", "# TYPE a meter\na 1\n"},
	}
	for _, tc := range bad {
		if _, err := validatePrometheus([]byte(tc.body)); err == nil {
			t.Errorf("validatePrometheus accepted %s: %q", tc.name, tc.body)
		}
	}
}

// TestScrapeAndGet exercises the HTTP probe modes against a live
// telemetry server end to end.
func TestScrapeAndGet(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("core.map.calls").Add(7)
	reg.Histogram("core.map.us").Observe(120)
	srv, err := telemetry.Start(telemetry.Config{Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var sb strings.Builder
	if err := runScrape(&sb, "http://"+srv.Addr()+"/metrics"); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	if !strings.Contains(sb.String(), "core_map_calls 7") {
		t.Fatalf("scrape output:\n%s", sb.String())
	}

	sb.Reset()
	if err := runGet(&sb, "http://"+srv.Addr()+"/healthz"); err != nil {
		t.Fatalf("get healthz: %v", err)
	}
	if !strings.Contains(sb.String(), "ok") {
		t.Fatalf("healthz body:\n%s", sb.String())
	}
	// A 404 must fail the probe.
	if err := runGet(&sb, "http://"+srv.Addr()+"/no-such-endpoint"); err == nil {
		t.Fatal("get accepted a 404")
	}
}
