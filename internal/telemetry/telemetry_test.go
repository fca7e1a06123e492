package telemetry

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// scrape GETs a URL and returns the body, failing the test on transport
// or status errors.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestLiveScrapeMetrics runs a real mapping through a telemetry-wired
// recorder, then scrapes /metrics over real HTTP and checks that the
// mapper's instrumentation comes back as well-formed Prometheus text.
func TestLiveScrapeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, nil)

	k, err := kernels.ByName("FIR")
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(core.FlowCAB)
	opt.Obs = rec
	if _, err := core.Map(k.Build(), arch.MustGrid(arch.HOM64), opt); err != nil {
		t.Fatalf("map: %v", err)
	}

	srv, err := Start(Config{Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	body := scrape(t, serverURL(srv, "/metrics"))

	// Parse the exposition: every non-comment line must be "name value"
	// or "name{labels} value".
	samples := map[string]bool{}
	types := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line: %q", line)
		}
		samples[fields[0]] = true
	}

	want := []string{
		"core_map_calls",
		"core_map_partials",
		"core_map_retries",
		"core_prune_acmap",
		"core_prune_ecmap",
		"core_prune_stochastic",
		"core_phase_schedule_us",
		"core_phase_route_us",
		"core_phase_bind_us",
		"core_arena_partials_free",
	}
	for _, name := range want {
		if !samples[name] {
			t.Errorf("scrape missing metric %s", name)
		}
	}
	// The compile-time histogram must expose summary quantiles.
	if types["core_map_us"] != "summary" {
		t.Fatalf("core_map_us type = %q, want summary", types["core_map_us"])
	}
	for _, s := range []string{
		`core_map_us{quantile="0.5"}`,
		`core_map_us{quantile="0.95"}`,
		`core_map_us{quantile="0.99"}`,
		"core_map_us_sum",
		"core_map_us_count",
	} {
		if !samples[s] {
			t.Errorf("scrape missing histogram sample %s", s)
		}
	}
	if len(samples) < 10 {
		t.Fatalf("scrape produced %d samples, want >= 10", len(samples))
	}
}

// TestHealthzAndReadyz pins the liveness probe: /healthz answers 200
// with exactly "ok\n", and /readyz is not served.
func TestHealthzAndReadyz(t *testing.T) {
	srv, err := Start(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if body := scrape(t, serverURL(srv, "/healthz")); body != "ok\n" {
		t.Fatalf("healthz body = %q, want %q", body, "ok\n")
	}
	resp, err := http.Get(serverURL(srv, "/readyz"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /readyz: status %d, want 404", resp.StatusCode)
	}
}

// TestUnconfiguredEndpoints: without a registry /metrics answers 404,
// /events is not served, and the index lists exactly the served
// surfaces.
func TestUnconfiguredEndpoints(t *testing.T) {
	srv, err := Start(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/metrics", "/events"} {
		resp, err := http.Get(serverURL(srv, path))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s on unconfigured server: status %d, want 404", path, resp.StatusCode)
		}
	}
	// The index and pprof surfaces are always mounted.
	var listed []string
	for _, line := range strings.Split(scrape(t, serverURL(srv, "/")), "\n") {
		if strings.HasPrefix(line, "/") {
			listed = append(listed, line)
		}
	}
	if got, want := strings.Join(listed, " "), "/metrics /healthz /debug/pprof/"; got != want {
		t.Fatalf("index lists %q, want %q", got, want)
	}
	if body := scrape(t, serverURL(srv, "/debug/pprof/cmdline")); body == "" {
		t.Fatal("pprof cmdline endpoint returned nothing")
	}
}

func TestWritePrometheus(t *testing.T) {
	var buf bytes.Buffer
	err := WritePrometheus(&buf, []obs.MetricValue{
		{Name: "a.count", Kind: obs.KindCounter, Value: 3},
		{Name: "a-count", Kind: obs.KindCounter, Value: 9}, // collides after sanitization
		{Name: "b.gauge", Kind: obs.KindGauge, Value: -2},
		{Name: "c.hist", Kind: obs.KindHistogram, Value: 5050, Count: 100, P50: 63, P95: 127, P99: 127},
		{Name: "0weird name", Kind: obs.KindCounter, Value: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `# TYPE a_count counter
a_count 3
# TYPE b_gauge gauge
b_gauge -2
# TYPE c_hist summary
c_hist{quantile="0.5"} 63
c_hist{quantile="0.95"} 127
c_hist{quantile="0.99"} 127
c_hist_sum 5050
c_hist_count 100
# TYPE _0weird_name counter
_0weird_name 1
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// startFlags starts f, failing the test on error, and returns the run's
// recorder and the server's base URL scraped from the announcement line.
func startFlags(t *testing.T, f *Flags, out *bytes.Buffer) (*obs.Recorder, string) {
	t.Helper()
	rec, err := f.Start(out)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Finish(nil) })
	line, _, _ := strings.Cut(out.String(), "\n")
	addr, ok := strings.CutPrefix(line, "telemetry: serving on ")
	if !ok {
		t.Fatalf("no serving announcement on the writer: %q", out.String())
	}
	return rec, addr
}

// TestServeArtifacts checks the shared CLI wiring: one Start yields a
// recorder feeding the file artifacts and the live endpoints at once,
// and Finish writes the artifacts and profiles, lingers and shuts the
// server down.
func TestServeArtifacts(t *testing.T) {
	dir := t.TempDir()
	f := Flags{
		Metrics:    filepath.Join(dir, "metrics.json"),
		Events:     filepath.Join(dir, "events.trace"),
		CPUProfile: filepath.Join(dir, "cpu.pprof"),
		MemProfile: filepath.Join(dir, "mem.pprof"),
		Serve:      "127.0.0.1:0",
		Linger:     time.Millisecond,
	}
	var out bytes.Buffer
	rec, url := startFlags(t, &f, &out)

	rec.Counter("demo.calls").Inc()
	sp := rec.StartSpan("demo.phase", "demo", 0)
	sp.End(nil)

	// The same instrumentation is visible live...
	page := scrape(t, url+"/metrics")
	if !strings.Contains(page, "demo_calls 1") {
		t.Fatalf("live /metrics misses the counter:\n%s", page)
	}

	// ...and lands in the file artifacts on Finish.
	if err := f.Finish(nil); err != nil {
		t.Fatal(err)
	}
	for _, a := range [][2]string{{f.Metrics, "demo.calls"}, {f.Events, "demo.phase"}} {
		data, err := os.ReadFile(a[0])
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), a[1]) {
			t.Fatalf("%s misses %s:\n%s", a[0], a[1], data)
		}
	}
	for _, p := range []string{f.CPUProfile, f.MemProfile} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written: %v", p, err)
		}
	}
	if !strings.Contains(out.String(), "telemetry: lingering 1ms before exit\n") {
		t.Errorf("clean Finish did not announce its linger:\n%s", out.String())
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("server still answers after Finish")
	}
	// Finish is idempotent: a second call only hands back the run error.
	runErr := errors.New("run failed")
	if err := f.Finish(runErr); err != runErr {
		t.Errorf("second Finish = %v, want the run error", err)
	}
}

// TestServeArtifactsPathless: with no file paths the recorder must still
// be live (a registry) so -serve works without -metrics/-events, its
// flush is a no-op, and a failed run neither lingers nor loses its error.
// With no flag at all the recorder is nil and Start/Finish are no-ops.
func TestServeArtifactsPathless(t *testing.T) {
	f := Flags{Serve: "127.0.0.1:0"}
	var out bytes.Buffer
	rec, url := startFlags(t, &f, &out)
	if !rec.Enabled() {
		t.Fatal("pathless -serve recorder is disabled")
	}
	rec.Counter("demo.calls").Inc()
	if !strings.Contains(scrape(t, url+"/metrics"), "demo_calls 1") {
		t.Fatal("pathless server does not expose the registry")
	}
	if err := f.Finish(nil); err != nil {
		t.Fatalf("pathless Flush must be a no-op, got %v", err)
	}

	f = Flags{Serve: "127.0.0.1:0", Linger: time.Hour}
	out.Reset()
	startFlags(t, &f, &out)
	runErr := errors.New("run failed")
	if err := f.Finish(runErr); err != runErr {
		t.Fatalf("Finish = %v, want the run error", err)
	}
	if strings.Contains(out.String(), "lingering") {
		t.Errorf("a failed run lingered:\n%s", out.String())
	}

	var off Flags
	out.Reset()
	if rec, err := off.Start(&out); err != nil || rec != nil {
		t.Fatalf("flagless Start = %v, %v; want a nil recorder", rec, err)
	}
	if err := off.Finish(nil); err != nil || out.Len() != 0 {
		t.Fatalf("flagless Finish = %v, wrote %q", err, out.String())
	}
}

// TestServeArtifactsBadAddr: an unusable listen address or profile path
// surfaces as a Start error instead of a dead server.
func TestServeArtifactsBadAddr(t *testing.T) {
	var out bytes.Buffer
	f := Flags{Serve: "127.0.0.1:-1"}
	if _, err := f.Start(&out); err == nil {
		t.Fatal("Start accepted an invalid address")
	}
	f = Flags{Serve: "127.0.0.1:0", CPUProfile: filepath.Join(t.TempDir(), "missing", "cpu.pprof")}
	if _, err := f.Start(&out); err == nil {
		t.Fatal("Start accepted an unwritable profile path")
	}
	if err := f.Finish(nil); err != nil {
		t.Fatalf("Finish after a failed Start = %v", err)
	}
}

// serverURL returns an absolute http URL for a path on srv.
func serverURL(srv *Server, path string) string { return "http://" + srv.Addr() + path }
