package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cdfg"
	"repro/internal/obs"
)

// smallOptions is each workload at a test-only size: the FIR and DCFilter
// cells, 2 random graphs, 2 passes (rounds), one setup.
func smallOptions(t *testing.T) options {
	o := defaultOptions()
	o.seconds = 0
	o.setups = 1
	o.minPasses = 2
	o.dir = t.TempDir()
	o.kernels = []string{"FIR", "DCFilter"}
	o.graphs = 2
	return o
}

// runSmall runs one workload at the test size; traced runs write their
// spans and counters under a temporary directory returned as base.
func runSmall(t *testing.T, w workload, o options, traced bool) (r *run, res result, base string) {
	t.Helper()
	lay := newLayers(nil)
	var fr *recorderFiles
	if traced {
		base = filepath.Join(t.TempDir(), w.name)
		fr = newRecorderFiles(base)
		lay = newLayers(fr.Recorder)
	}
	r = newRun(o, lay)
	if err := r.execute(w); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if traced {
		if err := fr.flush(lay); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
	}
	return r, r.result(traced), base
}

// exactMetrics are the per-layer metrics a deterministic toolchain must
// reproduce bit for bit.
var exactMetrics = []string{
	"core.context_words", "core.fail_ratio", "core.partials", "core.retries",
	"core.recomputes", "core.memo_hit_ratio", "core.prune_ratio",
	"mapcache.hit_ratio", "static.dead_words", "sim.cycles",
	"sim.stall_cycles", "power.energy_uj",
}

func TestExactMetricsRepeat(t *testing.T) {
	for _, w := range workloads {
		_, first, base := runSmall(t, w, smallOptions(t), true)
		_, second, _ := runSmall(t, w, smallOptions(t), true)
		if !first.Correct || !second.Correct {
			t.Errorf("%s: correct = %v, %v", w.name, first.Correct, second.Correct)
		}
		if first.Attempted != second.Attempted {
			t.Errorf("%s: attempted %d then %d", w.name, first.Attempted, second.Attempted)
		}
		for _, name := range exactMetrics {
			if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
				t.Errorf("%s: %s = %v then %v", w.name, name, a, b)
			}
		}
		if first.Metrics["sim.cycles"].Value == 0 {
			t.Errorf("%s: no cycles simulated", w.name)
		}
		// The span file must pass the checks cgrametrics -events applies.
		f, err := os.Open(base + ".trace.json")
		if err != nil {
			t.Fatal(err)
		}
		events, err := obs.ReadEvents(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if roots, err := obs.BuildSpanForest(events); err != nil || len(roots) == 0 {
			t.Errorf("%s: span forest: %d roots, %v", w.name, len(roots), err)
		}
	}
}

func TestMetricsMatchSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []specMetric `json:"end_to_end"`
		PerLayer  []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	sameList := func(kind string, code []metricSpec, listed []specMetric) {
		if len(code) != len(listed) {
			t.Errorf("%s: code reports %d metrics, BENCHMARK.json lists %d", kind, len(code), len(listed))
			return
		}
		for i, m := range listed {
			if c := code[i]; c.name != m.Name || c.unit != m.Unit || c.better != m.Better {
				t.Errorf("%s %d: code %v, BENCHMARK.json %+v", kind, i, c, m)
			}
		}
	}
	sameList("end_to_end", endToEnd, spec.EndToEnd)
	sameList("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: code %q (%q), BENCHMARK.json %+v", i, w.name, w.why, spec.Workloads[i])
		}
	}

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			_, res, _ := runSmall(t, w, smallOptions(t), traced)
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: no %s", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

func TestWrongReferenceFails(t *testing.T) {
	for _, w := range workloads {
		o := smallOptions(t)
		o.corrupt = func(mem cdfg.Memory) { mem[len(mem)-1]++ }
		r, res, _ := runSmall(t, w, o, false)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a wrong expected memory went unnoticed (correct=%v, failed=%d)", w.name, res.Correct, res.Failed)
			continue
		}
		if !strings.Contains(strings.Join(r.errs, "\n"), "interpreter says") {
			t.Errorf("%s: failures do not name the memory mismatch: %v", w.name, r.errs)
		}
	}
}

func TestCLIRejectsUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := cli([]string{"-workload", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("printed a result: %s", out.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 4, 8, 16}, 1.5, 12},
	} {
		if q1, q3 := quartiles(c.in); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

// writeRuns writes one synthetic result file: a run per row, each row a
// value per metric.
func writeRuns(t *testing.T, path string, metrics []string, rows [][]float64) {
	t.Helper()
	for _, row := range rows {
		rec := record{Workload: "w", result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}}
		for i, name := range metrics {
			rec.Metrics[name] = metric{Value: row[i], Unit: "x"}
		}
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareLabels(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	err := os.WriteFile(spec, []byte(`{
  "end_to_end": [
    {"name": "slower", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "faster", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "same", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "noisy", "unit": "s", "better": "lower", "bound": 0.1}
  ],
  "per_layer": [
    {"name": "words", "unit": "words", "better": "lower"},
    {"name": "layer", "unit": "ms", "better": "lower"}
  ]
}`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"slower", "faster", "same", "noisy", "words", "layer"}
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	writeRuns(t, a, names, [][]float64{
		{100, 10, 50, 1, 7, 3}, {101, 10.1, 50.5, 2, 7, 3.1}, {99, 9.9, 49.5, 3, 7, 2.9},
		{100, 10, 50, 1.5, 7, 3}, {100, 10, 50, 2.5, 7, 3},
	})
	writeRuns(t, b, names, [][]float64{
		{130, 12, 51, 1.2, 7, 4}, {131, 12.1, 50, 2.2, 7, 4.1}, {129, 11.9, 50.4, 3.1, 7, 3.9},
		{130, 12, 50.2, 1.4, 7, 4}, {130, 12, 50.1, 2.6, 7, 4},
	})
	var out, errOut bytes.Buffer
	if code := compareFiles([]string{a, b}, spec, &out, &errOut); code != 1 {
		t.Errorf("exit %d, want 1 (a metric is worse); stderr: %s", code, errOut.String())
	}
	want := map[string]string{
		"slower": worse, "faster": better, "same": unchanged, "noisy": unresolved,
		"words": unchanged, "layer": info,
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "w" {
			continue
		}
		if got := f[len(f)-1]; got != want[f[1]] {
			t.Errorf("%s labelled %s, want %s", f[1], got, want[f[1]])
		}
		delete(want, f[1])
	}
	if len(want) != 0 {
		t.Errorf("no row for %v in:\n%s", want, out.String())
	}

	// Comparing a file with itself finds nothing worse.
	out.Reset()
	if code := compareFiles([]string{a, a}, spec, &out, &errOut); code != 0 {
		t.Errorf("self-compare exit %d, want 0:\n%s", code, out.String())
	}
}

func TestCompareNeedsFiveRuns(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [{"name": "m", "unit": "ms", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a := filepath.Join(dir, "a.jsonl")
	writeRuns(t, a, []string{"m"}, [][]float64{{1}, {2}, {3}, {4}})
	var out, errOut bytes.Buffer
	if code := compareFiles([]string{a, a}, spec, &out, &errOut); code != 2 {
		t.Errorf("exit %d with 4 runs a side, want 2", code)
	}
}
