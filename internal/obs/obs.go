// Package obs is the repository's unified instrumentation layer: atomic
// counters, gauges and histograms behind a Registry, structured events
// behind a Sink, and a Recorder tying both to a common clock.
//
// The package is dependency-free (stdlib only) and built around one
// contract: a nil *Recorder, *Registry, *Counter, *Gauge or *Histogram is
// a valid no-op. Instrumented code holds a possibly-nil recorder and
// calls it unconditionally on cold paths; hot loops gate on
// Recorder.Enabled() (a nil check) so the disabled path costs nothing —
// the BenchmarkCoreMapObsOff guard pins the mapper's off-path at zero
// extra allocations.
//
// Events are exported as a Chrome trace_event file (WriteTrace) that
// chrome://tracing and https://ui.perfetto.dev open directly; ReadEvents
// also accepts one JSON event per line.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The nil Counter
// discards updates and reads as zero.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value-wins metric. The nil Gauge discards
// updates and reads as zero.
type Gauge struct{ v atomic.Int64 }

// Set records the gauge's current value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value returns the last recorded value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates a distribution of int64 observations into
// power-of-two buckets (bucket i counts values with bit length i). The
// nil Histogram discards observations.
type Histogram struct {
	buckets [65]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one sample. Negative samples clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns an upper bound of the q-quantile (0 ≤ q ≤ 1) from the
// power-of-two buckets: the top of the bucket the quantile falls in.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > rank {
			if i == 0 {
				return 0
			}
			return (1 << uint(i)) - 1
		}
	}
	return h.sum.Load()
}

// Kind classifies a metric in snapshots.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// MetricValue is one metric's snapshot, the unit of the JSONL metrics
// artifact.
type MetricValue struct {
	Name  string `json:"name"`
	Kind  Kind   `json:"kind"`
	Value int64  `json:"value"`
	// Histogram-only fields.
	Count int64 `json:"count,omitempty"`
	P50   int64 `json:"p50,omitempty"`
	P95   int64 `json:"p95,omitempty"`
	P99   int64 `json:"p99,omitempty"`
}

// Display renders the snapshot value for text tables (trace.Metrics).
func (m MetricValue) Display() string {
	if m.Kind == KindHistogram {
		return fmt.Sprintf("n=%d sum=%d p50=%d p95=%d p99=%d", m.Count, m.Value, m.P50, m.P95, m.P99)
	}
	return fmt.Sprint(m.Value)
}

// Registry is a concurrent-safe, named metric store. Metrics are created
// on first use and keep their identity for the registry's lifetime, so
// hot paths can resolve a *Counter once and update it lock-free. The nil
// Registry hands out nil metrics, completing the no-op chain.
type Registry struct {
	mu sync.Mutex
	m  map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{m: map[string]any{}} }

func lookup[T any](r *Registry, name string, make func() *T) *T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.m[name]; ok {
		if t, ok := v.(*T); ok {
			return t
		}
		// Name reused with a different kind: a caller bug, but metrics
		// must never panic production flows — hand out a detached metric.
		return make()
	}
	t := make()
	r.m[name] = t
	return t
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return lookup(r, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return lookup(r, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return lookup(r, name, func() *Histogram { return &Histogram{} })
}

// Snapshot returns every metric's current value, sorted by name.
func (r *Registry) Snapshot() []MetricValue {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	metrics := make(map[string]any, len(r.m))
	for n, v := range r.m {
		metrics[n] = v
	}
	r.mu.Unlock()
	sort.Strings(names)
	out := make([]MetricValue, 0, len(names))
	for _, n := range names {
		switch v := metrics[n].(type) {
		case *Counter:
			out = append(out, MetricValue{Name: n, Kind: KindCounter, Value: v.Value()})
		case *Gauge:
			out = append(out, MetricValue{Name: n, Kind: KindGauge, Value: v.Value()})
		case *Histogram:
			out = append(out, MetricValue{
				Name: n, Kind: KindHistogram,
				Value: v.Sum(), Count: v.Count(),
				P50: v.Quantile(0.50), P95: v.Quantile(0.95), P99: v.Quantile(0.99),
			})
		}
	}
	return out
}

// WriteJSONL writes the snapshot as JSON lines: one metric object per
// line, the format of the CLIs' -metrics artifact.
func (r *Registry) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, m := range r.Snapshot() {
		if err := enc.Encode(m); err != nil {
			return fmt.Errorf("obs: writing metrics: %w", err)
		}
	}
	return nil
}
