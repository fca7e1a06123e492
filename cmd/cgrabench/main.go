// Command cgrabench regenerates the paper's evaluation: Figs 2, 5, 6, 7,
// 8, 9, 10, 11 and Table II, printed as text tables and ASCII charts.
//
// Usage:
//
//	cgrabench             # the whole evaluation
//	cgrabench -fig 6      # one figure (2, 5, 6, 7, 8, 9, 10, 11)
//	cgrabench -table 2    # Table II
//	cgrabench -gap 5000   # heuristic-vs-exact optimality gap at that node budget
//	cgrabench -parallel 4 # bound the evaluation worker pool
//
// Cells fan out across a worker pool (default: one worker per CPU); the
// rendered tables are byte-identical at any parallelism.
//
// -cpuprofile/-memprofile write runtime/pprof profiles covering the whole
// evaluation, for inspecting the mapper and simulator hot paths under a
// realistic workload.
//
// -serve ADDR exposes live telemetry while the evaluation runs:
// /metrics (Prometheus text over the instrumentation registry),
// /healthz and /debug/pprof. The bound address is announced on stderr as
// "telemetry: serving on http://HOST:PORT" so scripts can scrape an
// ephemeral :0 port; -linger keeps the server (and process) up that
// long after the run so a scraper always finds the final counters.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/mapcache"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	var tf telemetry.Flags
	tf.Register(flag.CommandLine)
	tf.RegisterServe(flag.CommandLine)
	fig := flag.Int("fig", 0, "regenerate one figure (2, 5, 6, 7, 8, 9, 10, 11); 0 = all")
	table := flag.Int("table", 0, "regenerate one table (2); 0 = all")
	gap := flag.Int("gap", 0, "render the heuristic-vs-exact optimality gap table at this exact node budget instead of the evaluation; 0 = off")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "evaluation worker pool size (1 = serial)")
	cache := flag.Bool("cache", false, "reuse compiled mappings through the content-addressed mapping cache")
	cachedir := flag.String("cachedir", "", "on-disk mapping-cache directory (implies -cache; entries are re-verified before use)")
	flag.Parse()

	rec, err := tf.Start(os.Stderr)
	if err == nil {
		// The deferred call only matters on a panic: Finish is idempotent.
		defer tf.Finish(nil)
		r := exp.NewRunner()
		r.Workers = *parallel
		r.Obs = rec
		if *cache || *cachedir != "" {
			// The whole evaluation is a few hundred distinct cells; a large
			// capacity keeps every one resident for the duration of the run.
			r.Cache = mapcache.New(mapcache.Config{Capacity: 1024, Dir: *cachedir, Obs: rec})
		}
		err = run(os.Stdout, r, *fig, *table, *gap)
		if err == nil && rec.Enabled() {
			fmt.Fprint(os.Stdout, r.InstrumentationSummary())
			rows := make([]trace.MetricRow, 0, 64)
			for _, m := range rec.Registry().Snapshot() {
				rows = append(rows, trace.MetricRow{Name: m.Name, Value: m.Display()})
			}
			fmt.Fprint(os.Stdout, trace.Metrics("instrumentation counters", rows))
		}
		err = tf.Finish(err)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgrabench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, r *exp.Runner, fig, table, gap int) error {
	if gap > 0 {
		t, err := r.RunGapTable(arch.HOM64, gap)
		if err != nil {
			return err
		}
		fmt.Fprint(w, t.Render())
		return nil
	}
	if fig == 0 && table == 0 {
		out, err := r.RenderAll()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, out)
		return nil
	}
	if table == 2 {
		t, err := r.RunTableII()
		if err != nil {
			return err
		}
		fmt.Fprint(w, t.Render())
		return nil
	}
	switch fig {
	case 2:
		f, err := r.RunFig2()
		if err != nil {
			return err
		}
		fmt.Fprint(w, f.Render())
	case 5:
		f, err := r.RunFig5()
		if err != nil {
			return err
		}
		fmt.Fprint(w, f.Render())
	case 6, 7, 8:
		flow := map[int]core.Flow{6: core.FlowACMAP, 7: core.FlowECMAP, 8: core.FlowCAB}[fig]
		f, err := r.RunLatencyFig(flow)
		if err != nil {
			return err
		}
		fmt.Fprint(w, f.Render())
	case 9:
		f, err := r.RunFig9()
		if err != nil {
			return err
		}
		fmt.Fprint(w, f.Render())
	case 10:
		f, err := r.RunFig10()
		if err != nil {
			return err
		}
		fmt.Fprint(w, f.Render())
	case 11:
		f, err := r.RunFig11()
		if err != nil {
			return err
		}
		fmt.Fprint(w, f.Render())
	default:
		return fmt.Errorf("unknown figure %d", fig)
	}
	return nil
}
