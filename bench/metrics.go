package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
	"time"
)

// metricSpec names one reported metric. BENCHMARK.json lists the same
// names and units; bench_test.go keeps the two in step.
type metricSpec struct {
	name, unit, better string
}

// endToEnd is what a user of the toolchain sees, reported by untraced runs.
// Times are host times rescaled by the run's clock to the reference
// machine speed.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},        // median of the run's setups
	{"op_ms_geomean", "ms", "lower"}, // geometric mean time per op
	{"ops_per_s", "1/s", "higher"},   // ops per second of time spent in ops
}

// timedLayers are the layer calls reported as mean milliseconds per call.
var timedLayers = []string{
	"core.map", "asm.assemble", "verify.run", "mapcache.lookup",
	"static.analyze", "static.strip", "sim.new", "sim.run",
	"cdfg.interp", "power.energy",
}

// perLayer is reported by traced runs. Layer times are raw host means per
// call over the whole run, setups included, so every workload reaches
// every layer. The words, cycles and energy are one pass's exact totals.
var perLayer = []metricSpec{
	{"core.map_ms", "ms", "lower"},
	{"core.schedule_ms", "ms", "lower"},
	{"core.route_ms", "ms", "lower"},
	{"core.bind_ms", "ms", "lower"},
	{"core.prune_ms", "ms", "lower"},
	{"core.finalize_ms", "ms", "lower"},
	{"core.unattributed_ms", "ms", "lower"},
	{"core.partials", "count", "lower"},
	{"core.retries", "count", "lower"},
	{"core.recomputes", "count", "lower"},
	{"core.memo_hit_ratio", "ratio", "higher"},
	{"core.prune_ratio", "ratio", "higher"},
	{"core.alloc_mb", "MB", "lower"},
	{"core.context_words", "words", "lower"},
	{"core.fail_ratio", "ratio", "lower"},
	{"asm.assemble_ms", "ms", "lower"},
	{"verify.run_ms", "ms", "lower"},
	{"mapcache.lookup_ms", "ms", "lower"},
	{"mapcache.hit_ratio", "ratio", "higher"},
	{"static.analyze_ms", "ms", "lower"},
	{"static.strip_ms", "ms", "lower"},
	{"static.dead_words", "words", "higher"},
	{"sim.new_ms", "ms", "lower"},
	{"sim.run_ms", "ms", "lower"},
	{"sim.mcycles_per_s", "Mcycles/s", "higher"},
	{"sim.cycles", "cycles", "lower"},
	{"sim.stall_cycles", "cycles", "lower"},
	{"cdfg.interp_ms", "ms", "lower"},
	{"power.energy_ms", "ms", "lower"},
	{"power.energy_uj", "uJ", "lower"},
	{"obs.trace_overhead_pct", "%", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// values computes every metric of the run, end-to-end and per-layer.
func (r *run) values() map[string]float64 {
	v := map[string]float64{}
	c := r.clock
	setups := make([]float64, len(r.setups))
	var setupTotal time.Duration
	for i, iv := range r.setups {
		setups[i] = c.ref(iv)
		setupTotal += iv.d
	}
	ops := make([]float64, len(r.ops))
	var opTotal float64
	var simCycles int64
	var simTime time.Duration
	for i, op := range r.ops {
		ops[i] = 1000 * c.ref(op.interval)
		opTotal += ops[i] / 1000
		simCycles += op.cycles
		simTime += op.sim
	}
	v["setup_s"] = median(setups)
	v["op_ms_geomean"] = geomean(ops)
	v["ops_per_s"] = ratio(float64(len(ops)), opTotal)
	v["sim.mcycles_per_s"] = ratio(float64(simCycles)/1e6, simTime.Seconds())

	l := r.lay
	for _, name := range timedLayers {
		v[name+"_ms"] = l.meanMS(name)
	}
	s := &l.mapper
	ok := float64(s.ok)
	v["core.schedule_ms"] = ratio(ms(s.phases.Schedule), ok)
	v["core.route_ms"] = ratio(ms(s.phases.Route), ok)
	v["core.bind_ms"] = ratio(ms(s.phases.Bind), ok)
	v["core.prune_ms"] = ratio(ms(s.phases.Prune), ok)
	v["core.finalize_ms"] = ratio(ms(s.phases.Finalize), ok)
	if a := l.acc["core.map"]; a != nil {
		v["core.unattributed_ms"] = ratio(ms(a.d-phaseSum(s.phases)), float64(a.n))
		v["core.alloc_mb"] = ratio(float64(s.allocBytes)/1e6, float64(a.n))
	}
	v["core.partials"] = ratio(float64(s.partials), ok)
	v["core.retries"] = ratio(float64(s.retries), ok)
	v["core.recomputes"] = ratio(float64(s.recomputes), ok)
	v["core.memo_hit_ratio"] = ratio(float64(s.memoHits), float64(s.memoHits+s.memoMiss))
	v["core.prune_ratio"] = ratio(float64(s.pruned), float64(s.partials))

	if q := r.first; q != nil {
		v["core.context_words"] = float64(q.words)
		v["core.fail_ratio"] = ratio(float64(q.noMapping+q.overflow), float64(q.cells))
		v["mapcache.hit_ratio"] = ratio(float64(q.hits), float64(q.lookups))
		v["static.dead_words"] = float64(q.deadWords)
		v["sim.cycles"] = float64(q.cycles)
		v["sim.stall_cycles"] = float64(q.stalls)
		v["power.energy_uj"] = q.energy
	}
	v["obs.trace_overhead_pct"] = 100 * ratio(l.traceCost.Seconds(), (setupTotal+r.wall).Seconds())
	return v
}

// result selects the metrics a run reports: end-to-end untraced, per-layer
// traced.
func (r *run) result(traced bool) result {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	v := r.values()
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, s := range specs {
		res.Metrics[s.name] = metric{Value: v[s.name], Unit: s.unit}
	}
	return res
}

// median returns the middle of the values (the mean of the two middle
// ones for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive values: the mean the compiler
// literature uses over programs of different sizes, and steadier here than
// a median, which rests on the one or two ops in the middle.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printTable writes the run's metrics by name with their units.
func printTable(w io.Writer, name string, r *run, res result, traced bool) {
	cal := make([]float64, len(r.clock.samples))
	for i, s := range r.clock.samples {
		cal[i] = float64(s.d.Microseconds())
	}
	fmt.Fprintf(w, "%s: seed %d, %d setups, %d passes, %d ops, %d failed, %.1f s measured, calibration %.0f µs (reference %d µs)\n",
		name, r.opts.seed, len(r.setups), r.passes, r.attempted, r.failed, r.wall.Seconds(), median(cal), calRef.Microseconds())
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, s := range specs {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", s.name, res.Metrics[s.name].Value, s.unit)
	}
	tw.Flush()
}

// printPhases writes each mapped cell's mapper phase split and its
// dominant phase (traced runs). Repeated setups map a cell more than once;
// their times are summed.
func printPhases(w io.Writer, l *layers) {
	if len(l.phases) == 0 {
		return
	}
	byLabel := map[string]*cellPhases{}
	for _, p := range l.phases {
		a := byLabel[p.label]
		if a == nil {
			a = &cellPhases{label: p.label}
			byLabel[p.label] = a
		}
		a.wall += p.wall
		a.phases.Schedule += p.phases.Schedule
		a.phases.Route += p.phases.Route
		a.phases.Bind += p.phases.Bind
		a.phases.Prune += p.phases.Prune
		a.phases.Finalize += p.phases.Finalize
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "cell\tmap_ms\tschedule\troute\tbind\tprune\tfinalize\tdominant\t")
	for _, label := range sortedKeys(byLabel) {
		a := byLabel[label]
		p := a.phases
		names := []string{"schedule", "route", "bind", "prune", "finalize"}
		ds := []time.Duration{p.Schedule, p.Route, p.Bind, p.Prune, p.Finalize}
		top := 0
		for i := range ds {
			if ds[i] > ds[top] {
				top = i
			}
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%s\t\n", label, ms(a.wall),
			ms(ds[0]), ms(ds[1]), ms(ds[2]), ms(ds[3]), ms(ds[4]), names[top])
	}
	tw.Flush()
}
