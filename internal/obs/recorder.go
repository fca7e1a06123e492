package obs

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// Recorder ties a metric Registry and an event Sink to one clock. It is
// the handle instrumented code holds: a nil *Recorder is a complete
// no-op (every method is nil-safe), so packages accept a recorder
// unconditionally and callers opt in by supplying one.
//
// Recorders are safe for concurrent use when their sink is (all sinks in
// this package are).
type Recorder struct {
	reg   *Registry
	sink  Sink
	start time.Time
	// spanID hands every span a process-unique id linking its begin and
	// end events, so concurrent tracks interleaved in one stream stay
	// pairable offline (cgratrace).
	spanID atomic.Int64
}

// NewRecorder binds a registry and a sink. Either may be nil: a recorder
// with only a registry counts, one with only a sink traces.
func NewRecorder(reg *Registry, sink Sink) *Recorder {
	return &Recorder{reg: reg, sink: sink, start: time.Now()}
}

// Enabled reports whether the recorder is live. Hot paths gate their
// instrumentation on this single nil check.
func (r *Recorder) Enabled() bool { return r != nil }

// Registry returns the recorder's registry (nil for the nil recorder).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Counter resolves a named counter (nil-safe at every level).
func (r *Recorder) Counter(name string) *Counter { return r.Registry().Counter(name) }

// Gauge resolves a named gauge.
func (r *Recorder) Gauge(name string) *Gauge { return r.Registry().Gauge(name) }

// Histogram resolves a named histogram.
func (r *Recorder) Histogram(name string) *Histogram { return r.Registry().Histogram(name) }

// now returns microseconds since the recorder started.
func (r *Recorder) now() float64 {
	return float64(time.Since(r.start)) / float64(time.Microsecond)
}

// Emit records an instant event on the toolchain track now.
func (r *Recorder) Emit(name, cat string, tid int, args map[string]any) {
	if r == nil || r.sink == nil {
		return
	}
	r.sink.Emit(Event{Name: name, Cat: cat, Ph: PhaseInstant, TS: r.now(), PID: PIDTool, TID: tid, Args: args})
}

// EmitEvent records a fully caller-built event (the simulator uses this
// to stamp events in the cycle domain on the PIDSim track).
func (r *Recorder) EmitEvent(e Event) {
	if r == nil || r.sink == nil {
		return
	}
	r.sink.Emit(e)
}

// Span is an in-flight duration measurement. StartSpan emits the
// PhaseBegin event when the span opens and End emits the matching
// PhaseEnd carrying the duration and args, so each track's events reach
// the sink in timestamp order, the order BuildSpanForest checks. The
// zero Span (from a nil recorder) is a no-op.
type Span struct {
	r    *Recorder
	name string
	cat  string
	tid  int
	id   int64
	t0   time.Time
}

// StartSpan opens a wall-clock span on the toolchain track and emits its
// begin event. Always pair with End.
func (r *Recorder) StartSpan(name, cat string, tid int) Span {
	if r == nil || r.sink == nil {
		return Span{}
	}
	s := Span{r: r, name: name, cat: cat, tid: tid, id: r.spanID.Add(1), t0: time.Now()}
	r.sink.Emit(Event{
		Name: name, Cat: cat, Ph: PhaseBegin,
		TS:  float64(s.t0.Sub(r.start)) / float64(time.Microsecond),
		PID: PIDTool, TID: tid, ID: s.id,
	})
	return s
}

// End closes the span, attaching the args to the emitted end event. Dur
// repeats the begin-to-end distance on the end event, where
// BuildSpanForest and cgratrace read a span's duration.
func (s Span) End(args map[string]any) {
	if s.r == nil {
		return
	}
	dur := time.Since(s.t0)
	s.r.sink.Emit(Event{
		Name: s.name, Cat: s.cat, Ph: PhaseEnd,
		TS:  float64(s.t0.Sub(s.r.start)+dur) / float64(time.Microsecond),
		Dur: float64(dur) / float64(time.Microsecond),
		PID: PIDTool, TID: s.tid, ID: s.id, Args: args,
	})
}

// FileRecorder is a Recorder whose outputs land in files when flushed.
type FileRecorder struct {
	*Recorder
	buf         *BufferSink
	metricsPath string
	eventsPath  string
}

// FileOutputs builds the CLIs' standard -metrics/-events wiring: a
// recorder whose registry snapshot is written as JSONL to metricsPath and
// whose events are written as a Chrome trace to eventsPath by Flush.
// Either path may be empty; with both empty the recorder is nil (fully
// disabled) and Flush is still safe to call. An enabled recorder always
// has a registry, so a live /metrics endpoint can serve it whichever
// artifacts were asked for.
func FileOutputs(metricsPath, eventsPath string) *FileRecorder {
	f := &FileRecorder{metricsPath: metricsPath, eventsPath: eventsPath}
	if metricsPath == "" && eventsPath == "" {
		return f
	}
	reg := NewRegistry()
	var sink Sink
	if eventsPath != "" {
		f.buf = NewBufferSink(0)
		f.buf.Meter(reg)
		sink = f.buf
	}
	f.Recorder = NewRecorder(reg, sink)
	return f
}

// Flush writes the configured artifacts. It is idempotent in effect
// (rewrites the same content) and safe on a disabled recorder.
func (f *FileRecorder) Flush() error {
	if f == nil || f.Recorder == nil {
		return nil
	}
	if f.metricsPath != "" {
		w, err := os.Create(f.metricsPath)
		if err != nil {
			return fmt.Errorf("obs: %w", err)
		}
		if err := f.Registry().WriteJSONL(w); err != nil {
			w.Close()
			return err
		}
		if err := w.Close(); err != nil {
			return fmt.Errorf("obs: %w", err)
		}
	}
	if f.eventsPath != "" {
		w, err := os.Create(f.eventsPath)
		if err != nil {
			return fmt.Errorf("obs: %w", err)
		}
		if err := f.buf.WriteTrace(w); err != nil {
			w.Close()
			return err
		}
		if err := w.Close(); err != nil {
			return fmt.Errorf("obs: %w", err)
		}
	}
	return nil
}
