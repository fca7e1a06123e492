package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
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
	ring := NewRingSink(0)
	reg := obs.NewRegistry()
	ring.Meter(reg)
	rec := obs.NewRecorder(reg, ring)

	k, err := kernels.ByName("FIR")
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(core.FlowCAB)
	opt.Obs = rec
	if _, err := core.Map(k.Build(), arch.MustGrid(arch.HOM64), opt); err != nil {
		t.Fatalf("map: %v", err)
	}

	srv, err := Start(Config{Addr: "127.0.0.1:0", Registry: reg, Events: ring})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	body := scrape(t, srv.URL("/metrics"))

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
		"telemetry_events_dropped",
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

// TestSlowReaderDropsNotBlocks pins the backpressure policy: a
// subscriber that never drains loses events while the emitting side
// keeps running at full speed.
func TestSlowReaderDropsNotBlocks(t *testing.T) {
	reg := obs.NewRegistry()
	ring := NewRingSink(8)
	ring.Meter(reg)
	_, sub := ring.Subscribe(2)
	defer ring.Unsubscribe(sub)

	const n = 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			ring.Emit(obs.Event{Name: "e", Ph: obs.PhaseInstant, TS: float64(i), PID: obs.PIDTool})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit blocked on a slow subscriber")
	}
	// 2 events fit the channel, the rest must have been dropped.
	if got := sub.Dropped(); got != n-2 {
		t.Fatalf("subscriber dropped %d events, want %d", got, n-2)
	}
	if got := ring.Dropped(); got != n-2 {
		t.Fatalf("ring dropped %d events, want %d", got, n-2)
	}
	if got := reg.Counter("telemetry.events.dropped").Value(); got != n-2 {
		t.Fatalf("telemetry.events.dropped = %d, want %d", got, n-2)
	}
	// The ring itself holds the most recent window regardless of readers.
	snap := ring.Snapshot()
	if len(snap) != 8 || snap[0].TS != n-8 || snap[7].TS != n-1 {
		t.Fatalf("ring snapshot wrong window: len=%d first=%v last=%v", len(snap), snap[0].TS, snap[len(snap)-1].TS)
	}
}

// TestEventsEndpoint covers both /events modes: the backlog dump and the
// ?follow=1 live stream delivering an event emitted after the client
// connected.
func TestEventsEndpoint(t *testing.T) {
	ring := NewRingSink(0)
	rec := obs.NewRecorder(nil, ring)
	sp := rec.StartSpan("phase.a", "test", 0)
	sp.End(map[string]any{"k": "v"})

	srv, err := Start(Config{Addr: "127.0.0.1:0", Events: ring})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Backlog mode: the response terminates and parses as event JSONL.
	body := scrape(t, srv.URL("/events"))
	events, err := obs.ReadEvents(strings.NewReader(body))
	if err != nil {
		t.Fatalf("backlog not valid event JSONL: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("backlog has %d events, want 2 (span begin+end)", len(events))
	}
	if events[0].Ph != obs.PhaseBegin || events[1].Ph != obs.PhaseEnd || events[0].ID != events[1].ID {
		t.Fatalf("backlog span pair broken: %+v", events)
	}

	// Follow mode: connect, drain the backlog, then emit one more event
	// and expect it to arrive on the open stream.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL("/events?follow=1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 2; i++ {
		if !sc.Scan() {
			t.Fatalf("stream ended during backlog replay: %v", sc.Err())
		}
	}
	rec.Emit("live.tick", "test", 0, nil)
	if !sc.Scan() {
		t.Fatalf("stream ended before live event: %v", sc.Err())
	}
	var live obs.Event
	if err := decodeLine(sc.Bytes(), &live); err != nil {
		t.Fatalf("live line not an event: %v", err)
	}
	if live.Name != "live.tick" || live.Ph != obs.PhaseInstant {
		t.Fatalf("live event %+v", live)
	}
}

func decodeLine(b []byte, e *obs.Event) error {
	events, err := obs.ReadEvents(bytes.NewReader(b))
	if err != nil {
		return err
	}
	if len(events) != 1 {
		return fmt.Errorf("got %d events", len(events))
	}
	*e = events[0]
	return nil
}

func TestHealthzAndReadyz(t *testing.T) {
	fail := errors.New("backend exploded")
	var failing bool
	srv, err := Start(Config{
		Addr: "127.0.0.1:0",
		Checks: []Check{
			{Name: "registry", Probe: func() error { return nil }},
			{Name: "backend", Probe: func() error {
				if failing {
					return fail
				}
				return nil
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	body := scrape(t, srv.URL("/healthz"))
	// Checks render in name order.
	if !strings.Contains(body, "ok backend\nok registry\n") {
		t.Fatalf("healthz body:\n%s", body)
	}

	// Not ready until the embedding tool says so.
	resp, err := http.Get(srv.URL("/readyz"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before SetReady: status %d, want 503", resp.StatusCode)
	}
	srv.SetReady(true)
	if body := scrape(t, srv.URL("/readyz")); !strings.Contains(body, "ok registry") {
		t.Fatalf("readyz body:\n%s", body)
	}

	// A failing probe flips healthz to 503 and names the failure.
	failing = true
	resp, err = http.Get(srv.URL("/healthz"))
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with failing check: status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body2), "fail backend: backend exploded") {
		t.Fatalf("healthz failure body:\n%s", body2)
	}
}

func TestUnconfiguredEndpoints(t *testing.T) {
	srv, err := Start(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/metrics", "/events"} {
		resp, err := http.Get(srv.URL(path))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s on unconfigured server: status %d, want 404", path, resp.StatusCode)
		}
	}
	// The index and pprof surfaces are always mounted.
	if body := scrape(t, srv.URL("/")); !strings.Contains(body, "/debug/pprof/") {
		t.Fatalf("index body:\n%s", body)
	}
	if body := scrape(t, srv.URL("/debug/pprof/cmdline")); body == "" {
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

func TestRingWrapAndUnsubscribe(t *testing.T) {
	ring := NewRingSink(4)
	for i := 0; i < 6; i++ {
		ring.Emit(obs.Event{Name: "e", Ph: obs.PhaseInstant, TS: float64(i), PID: obs.PIDTool})
	}
	snap := ring.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(snap))
	}
	for i, e := range snap {
		if e.TS != float64(2+i) {
			t.Fatalf("snapshot[%d].TS = %v, want %v (oldest-first tail window)", i, e.TS, 2+i)
		}
	}

	backlog, sub := ring.Subscribe(4)
	if len(backlog) != 4 {
		t.Fatalf("backlog len = %d, want 4", len(backlog))
	}
	ring.Emit(obs.Event{Name: "live", Ph: obs.PhaseInstant, TS: 99, PID: obs.PIDTool})
	if e := <-sub.C; e.TS != 99 {
		t.Fatalf("live event TS = %v, want 99", e.TS)
	}
	ring.Unsubscribe(sub)
	if _, ok := <-sub.C; ok {
		t.Fatal("subscription channel not closed by Unsubscribe")
	}
	// Double unsubscribe is safe; later emits go nowhere.
	ring.Unsubscribe(sub)
	ring.Emit(obs.Event{Name: "after", Ph: obs.PhaseInstant, PID: obs.PIDTool})
	if got := sub.Dropped(); got != 0 {
		t.Fatalf("events counted against a dead subscription: %d", got)
	}
}

// TestServeArtifacts checks the shared CLI wiring: one call yields a
// recorder feeding the file artifacts and the live endpoints at once,
// and the caller still owns flush and shutdown.
func TestServeArtifacts(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	eventsPath := filepath.Join(dir, "events.trace")
	fr, srv, err := ServeArtifacts("127.0.0.1:0", metricsPath, eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetReady(true)

	fr.Counter("demo.calls").Inc()
	sp := fr.StartSpan("demo.phase", "demo", 0)
	sp.End(nil)

	// The same instrumentation is visible live...
	page := scrape(t, srv.URL("/metrics"))
	if !strings.Contains(page, "demo_calls 1") {
		t.Fatalf("live /metrics misses the counter:\n%s", page)
	}
	if !strings.Contains(scrape(t, srv.URL("/events")), "demo.phase") {
		t.Fatalf("live /events misses the span")
	}
	if !strings.Contains(scrape(t, srv.URL("/readyz")), "ok") {
		t.Fatal("readyz not ok after SetReady")
	}

	// ...and lands in the file artifacts on Flush.
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	m, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(m), "demo.calls") {
		t.Fatalf("metrics artifact misses the counter:\n%s", m)
	}
	ev, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ev), "demo.phase") {
		t.Fatalf("events artifact misses the span:\n%s", ev)
	}
}

// TestServeArtifactsPathless: with no file paths the recorder must still
// be live (registry + ring) so -serve works without -metrics/-events.
func TestServeArtifactsPathless(t *testing.T) {
	fr, srv, err := ServeArtifacts("127.0.0.1:0", "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !fr.Recorder.Enabled() {
		t.Fatal("pathless ServeArtifacts recorder is disabled")
	}
	fr.Counter("demo.calls").Inc()
	if !strings.Contains(scrape(t, srv.URL("/metrics")), "demo_calls 1") {
		t.Fatal("pathless server does not expose the registry")
	}
	if err := fr.Flush(); err != nil {
		t.Fatalf("pathless Flush must be a no-op, got %v", err)
	}
}

// TestServeArtifactsBadAddr: an unusable listen address surfaces as an
// error instead of a dead server.
func TestServeArtifactsBadAddr(t *testing.T) {
	if _, _, err := ServeArtifacts("127.0.0.1:-1", "", ""); err == nil {
		t.Fatal("ServeArtifacts accepted an invalid address")
	}
}
