package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Phase codes follow the Chrome trace_event format: "B"/"E" open and
// close a duration span, "X" is a self-contained complete event, "i" an
// instant event, "M" metadata. Recorder spans emit a begin/end pair; the
// simulator's cycle-domain block events stay single "X" records.
const (
	PhaseBegin    = "B"
	PhaseEnd      = "E"
	PhaseComplete = "X"
	PhaseInstant  = "i"
	PhaseMeta     = "M"
)

// Well-known process IDs partitioning the timeline into Perfetto tracks:
// wall-clock spans of the toolchain vs. the simulator's cycle-domain
// timeline (1 simulated cycle rendered as 1 µs).
const (
	PIDTool = 1 // mapper / verifier / CLI phases, wall-clock µs
	PIDSim  = 2 // simulator block executions, cycle-stamped
)

// Event is one structured instrumentation event. Field names mirror the
// Chrome trace_event JSON keys so one struct serves both the trace
// exporter and the JSONL form ReadEvents accepts.
type Event struct {
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	// Ph is the phase code (PhaseComplete, PhaseInstant).
	Ph string `json:"ph"`
	// TS is the event timestamp in microseconds since the recorder
	// started (or in simulated cycles for PIDSim events).
	TS float64 `json:"ts"`
	// Dur is the span duration in the same unit, for complete events.
	Dur float64 `json:"dur,omitempty"`
	PID int     `json:"pid"`
	TID int     `json:"tid"`
	// ID links a span's begin and end events: the recorder stamps every
	// span with a process-unique id, so offline analyzers (cgratrace)
	// pair PhaseBegin with PhaseEnd even when spans from concurrent
	// tracks interleave in the stream. Zero on instant, complete and
	// metadata events.
	ID int64 `json:"id,omitempty"`
	// Args carries event-specific payload (kept small; values must be
	// JSON-encodable).
	Args map[string]any `json:"args,omitempty"`
}

// Sink consumes events. Implementations must be safe for concurrent
// Emit calls (portfolio workers share one sink).
type Sink interface {
	Emit(Event)
}

// BufferSink collects events in memory, bounded by Cap, for later export
// (WriteTrace). Events past the cap are dropped and counted on the
// registry counter Meter installs.
type BufferSink struct {
	mu      sync.Mutex
	events  []Event
	cap     int
	dropCtr *Counter
}

// DefaultBufferCap bounds a BufferSink when no explicit cap is given:
// large enough for a full cgrabench evaluation, small enough that a
// runaway event source cannot exhaust memory.
const DefaultBufferCap = 1 << 18

// NewBufferSink returns a buffering sink holding at most cap events
// (DefaultBufferCap when cap <= 0).
func NewBufferSink(cap int) *BufferSink {
	if cap <= 0 {
		cap = DefaultBufferCap
	}
	return &BufferSink{cap: cap}
}

// Meter surfaces the sink's cap overflow as the registry counter
// obs.sink.dropped: silent event loss becomes a visible metric on every
// snapshot and /metrics scrape.
func (s *BufferSink) Meter(reg *Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropCtr = reg.Counter("obs.sink.dropped")
}

// Emit appends the event, dropping it when the buffer is full.
func (s *BufferSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.events) >= s.cap {
		s.dropCtr.Inc()
		return
	}
	s.events = append(s.events, e)
}

// Events returns a copy of the buffered events.
func (s *BufferSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// WriteTrace writes the buffered events in the Chrome trace_event JSON
// format (the {"traceEvents": [...]} object form), which chrome://tracing
// and Perfetto's trace viewer load directly. Process-name metadata labels
// the PIDTool and PIDSim tracks.
func (s *BufferSink) WriteTrace(w io.Writer) error {
	events := s.Events()
	type traceFile struct {
		TraceEvents     []json.RawMessage `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
	}
	tf := traceFile{DisplayTimeUnit: "ms"}
	meta := func(pid int, name string) json.RawMessage {
		b, _ := json.Marshal(map[string]any{
			"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
			"args": map[string]any{"name": name},
		})
		return b
	}
	tf.TraceEvents = append(tf.TraceEvents, meta(PIDTool, "toolchain (wall µs)"), meta(PIDSim, "simulator (cycles)"))
	for i := range events {
		b, err := json.Marshal(&events[i])
		if err != nil {
			return fmt.Errorf("obs: encoding trace event %q: %w", events[i].Name, err)
		}
		tf.TraceEvents = append(tf.TraceEvents, b)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(tf); err != nil {
		return fmt.Errorf("obs: writing trace: %w", err)
	}
	return nil
}

// ReadEvents parses an event artifact in either of the repository's two
// on-disk forms: JSON lines (one Event per line — the form of the
// cgratrace fixtures) or the Chrome trace_event object form the CLIs'
// -events flag writes ({"traceEvents": [...]}). Decoding is strict — an
// unknown field or trailing garbage is an error naming the offending
// line — so a corrupted or mis-routed artifact cannot pass cgratrace's
// load check silently.
func ReadEvents(r io.Reader) ([]Event, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("obs: reading events: %w", err)
	}
	if len(bytes.TrimSpace(data)) == 0 {
		return nil, fmt.Errorf("obs: no events (empty input)")
	}
	// The Chrome trace form is one JSON object wrapping the event array.
	var tf struct {
		TraceEvents     []json.RawMessage `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tf); err == nil && !dec.More() && tf.TraceEvents != nil {
		out := make([]Event, 0, len(tf.TraceEvents))
		for i, raw := range tf.TraceEvents {
			e, err := decodeEvent(raw)
			if err != nil {
				return nil, fmt.Errorf("obs: trace event %d: %w", i+1, err)
			}
			out = append(out, e)
		}
		return out, nil
	}
	var out []Event
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	ln := 0
	for sc.Scan() {
		ln++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		e, err := decodeEvent(line)
		if err != nil {
			return nil, fmt.Errorf("obs: events line %d: %w", ln, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading events: %w", err)
	}
	return out, nil
}

// decodeEvent strictly decodes one event object.
func decodeEvent(raw []byte) (Event, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var e Event
	if err := dec.Decode(&e); err != nil {
		return Event{}, err
	}
	if dec.More() {
		return Event{}, fmt.Errorf("trailing data after event object")
	}
	if e.Ph == "" {
		return Event{}, fmt.Errorf("event has no phase (not an event object?)")
	}
	return e, nil
}
