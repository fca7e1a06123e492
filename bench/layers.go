package main

import (
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// layers times every call the benchmark makes into a toolchain layer, from
// the outside, and in a traced run records one span per call. Nothing is
// threaded into the toolchain itself: the recorder only sees the calls the
// benchmark makes, so an untraced run executes exactly the library code a
// CLI would.
type layers struct {
	// rec is nil in an untraced run; every span operation is then a no-op.
	rec *obs.Recorder
	// acc accumulates calls and time per layer name (the per-layer metric
	// name without its unit suffix).
	acc map[string]*layerTime
	// mapper aggregates core.Stats over successful Map calls.
	mapper mapperStats
	// traceCost is the wall time spent inside span bookkeeping; spans
	// counts the spans recorded.
	traceCost time.Duration
	spans     int
	// phases keeps each successful Map call's phase split, labelled by
	// cell, for the traced run's dominant-phase report.
	phases []cellPhases
}

type layerTime struct {
	n int
	d time.Duration
}

// mapperStats sums the core.Stats counters of successful Map calls.
type mapperStats struct {
	ok                  int
	phases              core.PhaseTimes
	partials, pruned    int
	retries, recomputes int
	memoHits, memoMiss  int
	allocBytes          uint64
}

type cellPhases struct {
	label  string
	wall   time.Duration
	phases core.PhaseTimes
}

func newLayers(rec *obs.Recorder) *layers {
	return &layers{rec: rec, acc: map[string]*layerTime{}}
}

// add counts n calls to the named layer taking d in total.
func (l *layers) add(name string, n int, d time.Duration) {
	a := l.acc[name]
	if a == nil {
		a = &layerTime{}
		l.acc[name] = a
	}
	a.n += n
	a.d += d
}

// meanMS is the mean time per call of a layer, in milliseconds.
func (l *layers) meanMS(name string) float64 {
	a := l.acc[name]
	if a == nil || a.n == 0 {
		return 0
	}
	return ms(a.d) / float64(a.n)
}

// call is one in-flight layer call.
type call struct {
	l      *layers
	name   string
	t0     time.Time
	traced bool
	sp     obs.Span
}

// maxSpans keeps a traced run's begin and end events inside the event
// buffer (obs.DefaultBufferCap), which drops events past its cap and would
// leave spans unpaired. Calls past it are timed but not traced.
const maxSpans = obs.DefaultBufferCap/2 - 1<<14

// start opens a call to the named layer. Pair with stop.
func (l *layers) start(name string) call {
	c := call{l: l, name: name}
	if l.rec != nil && l.spans < maxSpans {
		t := time.Now()
		c.sp = l.rec.StartSpan(name, name[:strings.IndexByte(name+".", '.')], 0)
		c.traced = true
		l.spans++
		l.traceCost += time.Since(t)
	}
	c.t0 = time.Now()
	return c
}

// stop closes the call, attaching args to its span, adds its duration to
// the layer and returns it.
func (c call) stop(args map[string]any) time.Duration { return c.stopN(1, args) }

// stopN is stop for a span that covers n calls into the layer.
func (c call) stopN(n int, args map[string]any) time.Duration {
	d := time.Since(c.t0)
	c.l.add(c.name, n, d)
	if c.traced {
		t := time.Now()
		c.sp.End(args)
		c.l.traceCost += time.Since(t)
	}
	return d
}

// mapGraph runs core.Map as one layer call and folds its statistics in. A
// failed call has no Stats (the mapper returns none), so its wall time
// reaches only core.map and, through it, core.unattributed. Allocation is
// measured in traced runs only: runtime.ReadMemStats stops the world.
func (l *layers) mapGraph(c *cell) (*core.Mapping, error) {
	var before runtime.MemStats
	if l.rec != nil {
		runtime.ReadMemStats(&before)
	}
	cl := l.start("core.map")
	m, err := core.Map(c.graph, c.grid, c.opt)
	wall := cl.stop(c.args())
	if l.rec != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		l.mapper.allocBytes += after.TotalAlloc - before.TotalAlloc
	}
	if err != nil {
		return nil, err
	}
	st := &m.Stats
	s := &l.mapper
	s.ok++
	s.phases.Schedule += st.Phases.Schedule
	s.phases.Route += st.Phases.Route
	s.phases.Bind += st.Phases.Bind
	s.phases.Prune += st.Phases.Prune
	s.phases.Finalize += st.Phases.Finalize
	s.partials += st.Partials
	s.pruned += st.PrunedACMAP + st.PrunedECMAP + st.PrunedStochastic
	s.retries += st.Retries
	s.recomputes += st.Recomputes
	s.memoHits += st.MemoHits
	s.memoMiss += st.MemoMisses
	if l.rec != nil {
		l.phases = append(l.phases, cellPhases{label: c.label, wall: wall, phases: st.Phases})
	}
	return m, nil
}

// recorderFiles is a traced run's recorder: spans go to a Chrome trace,
// counters to a JSONL file, the formats cgratrace and cgrametrics read.
type recorderFiles struct{ *obs.FileRecorder }

func newRecorderFiles(base string) *recorderFiles {
	return &recorderFiles{obs.FileOutputs(base+".metrics.jsonl", base+".trace.json")}
}

// flush publishes each layer's calls and total time as counters and
// writes both files.
func (f *recorderFiles) flush(l *layers) error {
	for _, name := range sortedKeys(l.acc) {
		a := l.acc[name]
		f.Counter(name + ".calls").Add(int64(a.n))
		f.Counter(name + ".us").Add(a.d.Microseconds())
	}
	return f.Flush()
}

func phaseSum(p core.PhaseTimes) time.Duration {
	return p.Schedule + p.Route + p.Bind + p.Prune + p.Finalize
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
