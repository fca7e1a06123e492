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
// /healthz and /readyz, /events (live JSONL span feed) and
// /debug/pprof. The bound address is announced on stderr as
// "telemetry: serving on http://HOST:PORT" so scripts can scrape an
// ephemeral :0 port; -linger keeps the server (and process) up that
// long after the run so a scraper always finds the final counters.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/mapcache"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	fig := flag.Int("fig", 0, "regenerate one figure (2, 5, 6, 7, 8, 9, 10, 11); 0 = all")
	table := flag.Int("table", 0, "regenerate one table (2); 0 = all")
	gap := flag.Int("gap", 0, "render the heuristic-vs-exact optimality gap table at this exact node budget instead of the evaluation; 0 = off")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "evaluation worker pool size (1 = serial)")
	cache := flag.Bool("cache", false, "reuse compiled mappings through the content-addressed mapping cache")
	cachedir := flag.String("cachedir", "", "on-disk mapping-cache directory (implies -cache; entries are re-verified before use)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	metrics := flag.String("metrics", "", "write instrumentation counters as JSONL to this file")
	events := flag.String("events", "", "write a Chrome trace_event timeline to this file")
	serve := flag.String("serve", "", "serve live telemetry (/metrics, /healthz, /events, /debug/pprof) on this address for the duration of the run (host:port; :0 picks a port, announced on stderr)")
	linger := flag.Duration("linger", 0, "with -serve, keep the telemetry server up this long after the run so scrapers catch the final state")
	flag.Parse()

	fr := obs.FileOutputs(*metrics, *events)
	var tsrv *telemetry.Server
	if *serve != "" {
		var serr error
		// The closure probes the final fr: ServeArtifacts reassigns it to
		// the recorder that feeds both the files and the live ring.
		fr, tsrv, serr = telemetry.ServeArtifacts(*serve, *metrics, *events, telemetry.Check{
			Name: "recorder",
			Probe: func() error {
				if !fr.Recorder.Enabled() {
					return errors.New("recorder disabled")
				}
				return nil
			},
		})
		if serr != nil {
			fmt.Fprintln(os.Stderr, "cgrabench:", serr)
			os.Exit(1)
		}
		defer tsrv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving on http://%s\n", tsrv.Addr())
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile, fr.Recorder)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgrabench:", err)
		os.Exit(1)
	}
	// The deferred call is the panic safety net; the explicit call below
	// collects the stop error (stop is idempotent).
	defer stopProf()
	r := exp.NewRunner()
	r.Workers = *parallel
	r.Obs = fr.Recorder
	if *cache || *cachedir != "" {
		// The whole evaluation is a few hundred distinct cells; a large
		// capacity keeps every one resident for the duration of the run.
		r.Cache = mapcache.New(mapcache.Config{Capacity: 1024, Dir: *cachedir, Obs: fr.Recorder})
	}
	if tsrv != nil {
		tsrv.SetReady(true)
	}
	err = run(os.Stdout, r, *fig, *table, *gap)
	if err == nil && fr.Recorder.Enabled() {
		fmt.Fprint(os.Stdout, r.InstrumentationSummary())
		if reg := fr.Registry(); reg != nil {
			rows := make([]trace.MetricRow, 0, 64)
			for _, m := range reg.Snapshot() {
				rows = append(rows, trace.MetricRow{Name: m.Name, Value: m.Display()})
			}
			fmt.Fprint(os.Stdout, trace.Metrics("instrumentation counters", rows))
		}
	}
	if perr := stopProf(); perr != nil && err == nil {
		err = perr
	}
	if ferr := fr.Flush(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgrabench:", err)
		os.Exit(1)
	}
	if tsrv != nil && *linger > 0 {
		// Hold the endpoints open after a clean run so an external scraper
		// polling the stderr announcement always reaches the final state.
		fmt.Fprintf(os.Stderr, "telemetry: lingering %s before exit\n", *linger)
		time.Sleep(*linger)
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
