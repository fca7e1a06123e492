// Command cgrasim maps, assembles and simulates a benchmark kernel on a
// CGRA configuration, verifies the result against the golden reference
// and the CDFG interpreter, and reports latency and energy, optionally
// next to the or1k CPU baseline.
//
// With -seeds N > 1 the mapping step runs a parallel seed portfolio and
// simulates the deterministic winner (fewest context words, ties broken
// by estimated energy, then the lowest seed).
//
// Usage:
//
//	cgrasim -kernel FFT -config HET1 -flow cab [-cpu] [-seeds 8] [-parallel 4] [-batch 64]
//	cgrasim -kernel DCFilter -flow basic -backend exact|race [-exact-budget N]
//
// With -batch B > 1 the winner is additionally executed through the
// batched struct-of-arrays engine with B identical input lanes; every
// lane is cross-checked against the verified run and the per-input
// throughput is reported.
//
// -metrics/-events write the run's counters and span timeline;
// -cpuprofile/-memprofile write runtime/pprof profiles of it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"time"

	"repro/internal/cdfg"
	"repro/internal/cpu"
	"repro/internal/mapcli"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/verify"
)

// cliOptions collects the flag values so tests can drive run directly.
type cliOptions struct {
	mapcli.Flags
	withCPU bool
	verify  bool
	// batch > 1 re-runs the kernel through the batched engine with that
	// many identical input lanes after the verified run, cross-checks every
	// lane against it, and reports per-input throughput.
	batch int
	// rec threads the -metrics/-events recorder into the mapper and the
	// simulator; nil (the zero value the tests use) disables it.
	rec *obs.Recorder
}

func main() {
	var o cliOptions
	var tf telemetry.Flags
	o.Register(flag.CommandLine)
	tf.Register(flag.CommandLine)
	flag.BoolVar(&o.withCPU, "cpu", false, "also run the or1k CPU baseline")
	flag.BoolVar(&o.verify, "verify", false, "statically verify mapping and bitstream before simulating")
	flag.IntVar(&o.batch, "batch", 1, "also run N identical input lanes through the batched engine and report per-input throughput")
	flag.Parse()

	rec, err := tf.Start(os.Stderr)
	if err == nil {
		// The deferred call only matters on a panic: Finish is idempotent.
		defer tf.Finish(nil)
		o.rec = rec
		err = tf.Finish(run(os.Stdout, o))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgrasim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, o cliOptions) error {
	job, err := o.Resolve(o.rec)
	if err != nil {
		return err
	}
	k, g, grid, flow := job.Kernel, job.Graph, job.Grid, job.Opt.Flow
	c, err := job.Compile()
	if err != nil {
		return err
	}
	if c.Portfolio != nil {
		fmt.Fprint(w, c.Portfolio.RenderReports())
	}
	if o.UseCache() {
		fmt.Fprintf(w, "cache: %s\n", c.Source)
	}
	if ok, t := c.Program.FitsMemory(); !ok {
		return fmt.Errorf("mapping overflows tile %d's context memory on %s", t+1, grid.Name)
	}
	if o.verify {
		// On a cache hit Mapping is nil and the mapping-level passes skip;
		// the bitstream passes still run (the cache itself re-verified any
		// disk entry before serving it).
		vres := verify.Run(&verify.Context{Graph: g, Grid: grid, Mapping: c.Mapping, Program: c.Program})
		fmt.Fprintf(w, "static verification (%d passes):\n%s", len(vres.Ran), vres.Report())
		if err := vres.Err(); err != nil {
			return err
		}
	}
	s, err := sim.New(c.Program, sim.WithObs(o.rec))
	if err != nil {
		return err
	}
	res, _, mem, err := s.RunVerified(k.Init())
	if err != nil {
		var div *sim.DivergenceError
		if errors.As(err, &div) {
			fmt.Fprint(w, divergenceReport(div, flow.String()))
		}
		return err
	}
	if err := k.Check(mem); err != nil {
		return fmt.Errorf("golden check failed: %w", err)
	}
	params := power.Default()
	e := params.CGRAEnergy(grid, res)
	fmt.Fprintf(w, "%s on %s (%s): verified OK\n", o.Kernel, grid.Name, flow)
	fmt.Fprintf(w, "cycles %d (stalls %d), context words %d (config), compile %s\n",
		res.Cycles, res.StallCycles, res.ConfigWords, c.Meta.Stats.CompileTime.Round(1_000_000))
	fmt.Fprintf(w, "energy %.4f µJ (config %.4f, fetch %.4f, compute %.4f, memory %.4f, leak %.4f)\n",
		e.Total(), e.Config, e.Fetch, e.Compute, e.Memory, e.Leak)
	if o.batch > 1 {
		lanes := make([]cdfg.Memory, o.batch)
		for l := range lanes {
			lanes[l] = k.Init()
		}
		start := time.Now()
		bres, err := s.Engine().RunBatch(lanes)
		elapsed := time.Since(start)
		if err != nil {
			return fmt.Errorf("batch run (B=%d): %w", o.batch, err)
		}
		for l := range lanes {
			if !reflect.DeepEqual(bres[l], res) {
				return fmt.Errorf("batch lane %d diverges from the verified run", l)
			}
			if err := k.Check(lanes[l]); err != nil {
				return fmt.Errorf("batch lane %d golden check failed: %w", l, err)
			}
		}
		fmt.Fprintf(w, "batch B=%d: all lanes verified identical, %s/input (%s total)\n",
			o.batch, (elapsed / time.Duration(o.batch)).Round(time.Microsecond),
			elapsed.Round(time.Microsecond))
	}
	if o.withCPU {
		cmem := k.Init()
		cres, err := cpu.Run(g, cmem, cpu.DefaultCosts())
		if err != nil {
			return err
		}
		if err := k.Check(cmem); err != nil {
			return fmt.Errorf("CPU golden check failed: %w", err)
		}
		ce := params.CPUEnergy(cres)
		fmt.Fprintf(w, "or1k CPU: %d cycles, %d instrs, %.4f µJ — CGRA speedup %.1fx, energy gain %.1fx\n",
			cres.Cycles, cres.Instrs, ce.Total(),
			float64(cres.Cycles)/float64(res.Cycles), ce.Total()/e.Total())
	}
	return nil
}

// divergenceReport renders a simulator/interpreter divergence the way
// cgrasim prints it: the trace-package table of divergent memory words.
func divergenceReport(div *sim.DivergenceError, flow string) string {
	words := make([]trace.DivergentWord, len(div.Mismatches))
	for i, m := range div.Mismatches {
		words[i] = trace.DivergentWord{Addr: m.Addr, Ref: m.Ref, Got: m.Got}
	}
	return trace.Divergence(div.Kernel, flow, div.Config, div.Cycles, div.Total, words)
}
