package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestNilNoOps(t *testing.T) {
	// Every handle in the no-op chain must be callable at nil.
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Counter("x").Add(3)
	r.Gauge("x").Set(3)
	r.Histogram("x").Observe(3)
	r.Emit("e", "c", 0, nil)
	r.EmitEvent(Event{Name: "e"})
	r.StartSpan("s", "c", 0).End(nil)
	if got := r.Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	var reg *Registry
	if reg.Snapshot() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
	if reg.Counter("y") != nil {
		t.Fatal("nil registry handed out a live counter")
	}
}

func TestNilPathAllocFree(t *testing.T) {
	// The disabled path is what the mapper hot loop pays; it must not
	// allocate at all.
	var r *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		if r.Enabled() {
			t.Fatal("unexpectedly enabled")
		}
		r.Counter("x").Inc()
		r.StartSpan("s", "c", 0).End(nil)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder path allocates %.1f/op, want 0", allocs)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.count").Add(2)
	reg.Counter("b.count").Inc()
	reg.Gauge("a.gauge").Set(7)
	h := reg.Histogram("c.hist")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	snap := reg.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics, want 3", len(snap))
	}
	if snap[0].Name != "a.gauge" || snap[1].Name != "b.count" || snap[2].Name != "c.hist" {
		t.Fatalf("snapshot not sorted: %+v", snap)
	}
	if snap[0].Value != 7 || snap[0].Kind != KindGauge {
		t.Fatalf("gauge snapshot %+v", snap[0])
	}
	if snap[1].Value != 3 || snap[1].Kind != KindCounter {
		t.Fatalf("counter snapshot %+v", snap[1])
	}
	if snap[2].Count != 100 || snap[2].Value != 5050 {
		t.Fatalf("histogram snapshot %+v", snap[2])
	}
	// Power-of-two buckets: the p50 upper bound must cover the true
	// median (50) and stay below the max bucket's bound.
	if snap[2].P50 < 50 || snap[2].P50 > 127 {
		t.Fatalf("p50 = %d, want in [50,127]", snap[2].P50)
	}
	if snap[2].P95 < 95 || snap[2].P95 > 127 {
		t.Fatalf("p95 = %d, want in [95,127]", snap[2].P95)
	}
	if snap[2].P99 < 100 {
		t.Fatalf("p99 = %d, want >= 100", snap[2].P99)
	}
	if snap[2].P50 > snap[2].P95 || snap[2].P95 > snap[2].P99 {
		t.Fatalf("quantiles not monotone: p50=%d p95=%d p99=%d", snap[2].P50, snap[2].P95, snap[2].P99)
	}
}

func TestRegistryKindCollision(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x").Inc()
	// Same name, different kind: must not panic, hands out a detached
	// metric and keeps the original.
	reg.Gauge("x").Set(9)
	snap := reg.Snapshot()
	if len(snap) != 1 || snap[0].Kind != KindCounter || snap[0].Value != 1 {
		t.Fatalf("collision snapshot %+v", snap)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				reg.Counter("shared").Inc()
				reg.Histogram("h").Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != 8000 {
		t.Fatalf("shared counter = %d, want 8000", got)
	}
}

func TestWriteJSONL(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("map.blocks").Add(4)
	reg.Gauge("arena.free").Set(12)
	var buf bytes.Buffer
	if err := reg.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", lines, err, sc.Text())
		}
		for _, k := range []string{"name", "kind", "value"} {
			if _, ok := m[k]; !ok {
				t.Fatalf("line %d missing %q: %s", lines, k, sc.Text())
			}
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("wrote %d JSONL lines, want 2", lines)
	}
}

func TestBufferSinkCap(t *testing.T) {
	s := NewBufferSink(3)
	for i := 0; i < 5; i++ {
		s.Emit(Event{Name: "e", Ph: PhaseInstant})
	}
	if got := len(s.Events()); got != 3 {
		t.Fatalf("buffered %d events, want 3", got)
	}
}

func TestRecorderSpanAndTrace(t *testing.T) {
	buf := NewBufferSink(0)
	r := NewRecorder(NewRegistry(), buf)
	sp := r.StartSpan("map.block", "core", 1)
	r.Emit("memo.reset", "core", 1, map[string]any{"n": 3})
	sp.End(map[string]any{"block": "entry"})
	r.EmitEvent(Event{Name: "block", Cat: "sim", Ph: PhaseComplete, TS: 100, Dur: 40, PID: PIDSim, TID: 0})

	events := buf.Events()
	// Span begin, instant, span end, sim complete.
	if len(events) != 4 {
		t.Fatalf("captured %d events, want 4", len(events))
	}
	var begin, end *Event
	for i := range events {
		if events[i].Name != "map.block" {
			continue
		}
		switch events[i].Ph {
		case PhaseBegin:
			begin = &events[i]
		case PhaseEnd:
			end = &events[i]
		}
	}
	if begin == nil || end == nil {
		t.Fatalf("span missing begin/end pair: %+v", events)
	}
	if begin.ID == 0 || begin.ID != end.ID {
		t.Fatalf("span begin/end ids not linked: begin=%d end=%d", begin.ID, end.ID)
	}
	if end.Dur <= 0 || end.TS < begin.TS {
		t.Fatalf("span end %+v before begin %+v", end, begin)
	}
	if end.Args["block"] != "entry" {
		t.Fatalf("span args %+v", end.Args)
	}

	var tr bytes.Buffer
	if err := buf.WriteTrace(&tr); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(tr.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// 2 process-name metadata records + the 4 events.
	if len(parsed.TraceEvents) != 6 {
		t.Fatalf("trace has %d records, want 6", len(parsed.TraceEvents))
	}
	for i, e := range parsed.TraceEvents {
		if _, ok := e["ph"]; !ok {
			t.Fatalf("trace record %d missing ph: %v", i, e)
		}
	}
}

func TestFileOutputs(t *testing.T) {
	dir := t.TempDir()
	mPath := filepath.Join(dir, "m.json")
	ePath := filepath.Join(dir, "e.trace")
	f := FileOutputs(mPath, ePath)
	if !f.Enabled() {
		t.Fatal("file recorder with paths is disabled")
	}
	f.Counter("runs").Inc()
	f.StartSpan("work", "t", 0).End(nil)
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	mb, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	// Two lines: the metered obs.sink.dropped (zero, but visible) and runs.
	var names []string
	runs := false
	for _, line := range bytes.Split(bytes.TrimSpace(mb), []byte("\n")) {
		var mv MetricValue
		if err := json.Unmarshal(line, &mv); err != nil {
			t.Fatalf("metrics file not JSONL: %v\n%s", err, line)
		}
		names = append(names, mv.Name)
		if mv.Name == "runs" && mv.Value == 1 {
			runs = true
		}
	}
	if !runs {
		t.Fatalf("metrics file missing runs=1: %v", names)
	}
	eb, err := os.ReadFile(ePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf map[string]any
	if err := json.Unmarshal(eb, &tf); err != nil {
		t.Fatalf("trace file not JSON: %v", err)
	}
	if _, ok := tf["traceEvents"]; !ok {
		t.Fatal("trace file missing traceEvents")
	}

	// An events-only recorder still counts: an enabled recorder always
	// has a registry for a live /metrics endpoint to serve.
	if FileOutputs("", ePath).Registry() == nil {
		t.Fatal("events-only recorder has no registry")
	}

	// Fully disabled: nil recorder inside, Flush a no-op.
	off := FileOutputs("", "")
	if off.Enabled() {
		t.Fatal("empty-path recorder is enabled")
	}
	off.Counter("x").Inc()
	if err := off.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferSinkMeterDropped(t *testing.T) {
	reg := NewRegistry()
	s := NewBufferSink(2)
	s.Meter(reg)
	for i := 0; i < 5; i++ {
		s.Emit(Event{Name: "e", Ph: PhaseInstant})
	}
	if got := len(s.Events()); got != 2 {
		t.Fatalf("buffered %d events, want 2", got)
	}
	if got := reg.Counter("obs.sink.dropped").Value(); got != 3 {
		t.Fatalf("obs.sink.dropped = %d, want 3", got)
	}
}

func TestFileOutputsErrorPaths(t *testing.T) {
	// Unwritable destination directory: Flush must report the error, not
	// panic or half-write.
	missing := filepath.Join(t.TempDir(), "no", "such", "dir")
	f := FileOutputs(filepath.Join(missing, "m.json"), "")
	f.Counter("x").Inc()
	if err := f.Flush(); err == nil {
		t.Fatal("flush into a missing dir succeeded")
	}
	f2 := FileOutputs("", filepath.Join(missing, "e.trace"))
	f2.StartSpan("s", "t", 0).End(nil)
	if err := f2.Flush(); err == nil {
		t.Fatal("trace flush into a missing dir succeeded")
	}

	// Flush is idempotent: a second call rewrites the same artifacts.
	dir := t.TempDir()
	mPath := filepath.Join(dir, "m.json")
	ok := FileOutputs(mPath, "")
	ok.Counter("runs").Inc()
	if err := ok.Flush(); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.Flush(); err != nil {
		t.Fatalf("second flush: %v", err)
	}
	second, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("double flush changed the artifact:\n%s\nvs\n%s", first, second)
	}
}

func TestReadEventsFormats(t *testing.T) {
	// Round-trip through both on-disk forms.
	buf := NewBufferSink(0)
	r := NewRecorder(nil, buf)
	sp := r.StartSpan("phase", "t", 0)
	r.Emit("tick", "t", 0, map[string]any{"n": float64(1)})
	sp.End(nil)

	var jsonl bytes.Buffer
	enc := json.NewEncoder(&jsonl)
	for _, e := range buf.Events() {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	fromJSONL, err := ReadEvents(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatalf("jsonl: %v", err)
	}
	if len(fromJSONL) != 3 {
		t.Fatalf("jsonl read %d events, want 3", len(fromJSONL))
	}

	var trace bytes.Buffer
	if err := buf.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	fromTrace, err := ReadEvents(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	// Trace form includes the two process-name metadata records.
	if len(fromTrace) != 5 {
		t.Fatalf("trace read %d events, want 5", len(fromTrace))
	}

	for _, bad := range []string{
		"",
		"not json\n",
		`{"name":"x","ph":"i","ts":1,"pid":1,"tid":0,"bogus":true}` + "\n",
		`{"name":"x","ts":1,"pid":1,"tid":0}` + "\n", // no phase
	} {
		if _, err := ReadEvents(bytes.NewReader([]byte(bad))); err == nil {
			t.Fatalf("ReadEvents accepted malformed input %q", bad)
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	h.Observe(0)
	if h.Quantile(0.5) != 0 {
		t.Fatal("zero-sample quantile != 0")
	}
	h.Observe(-5) // clamps to zero
	if h.Count() != 2 || h.Sum() != 0 {
		t.Fatalf("count=%d sum=%d after clamp", h.Count(), h.Sum())
	}
}
