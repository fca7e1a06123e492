// Command cgramap maps one benchmark kernel onto a CGRA configuration
// with a selected mapping flow and reports the mapping statistics: per-
// tile context-memory occupancy, instruction mix, and compile time.
//
// With -seeds N > 1 it runs a parallel portfolio: N pruning seeds are
// mapped concurrently and the best mapping wins (fewest context words,
// ties broken by estimated energy, then by the lowest seed — the winner
// is deterministic regardless of scheduling).
//
// Usage:
//
//	cgramap -kernel MatM -config HET1 -flow cab [-verify] [-listing] [-dot]
//	cgramap -kernel MatM -config HET1 -seeds 8 [-parallel 4]
//	cgramap -kernel DCFilter -flow basic -backend exact|race [-exact-budget N]
//
// -cpuprofile/-memprofile write runtime/pprof profiles of the mapping run
// for inspecting the search hot path on a single kernel/config pair;
// -metrics/-events write its counters and span timeline.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/kernels"
	"repro/internal/mapcli"
	"repro/internal/obs"
	"repro/internal/static"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/verify"
)

// cliOptions collects the flag values so tests can drive run directly.
type cliOptions struct {
	mapcli.Flags
	listing bool
	dot     bool
	verify  bool
	analyze bool
	strip   bool
	// rec threads the -metrics/-events recorder into the mapper; nil (the
	// zero value the tests use) disables instrumentation entirely.
	rec *obs.Recorder
}

func main() {
	var o cliOptions
	var tf telemetry.Flags
	o.Register(flag.CommandLine)
	tf.Register(flag.CommandLine)
	flag.BoolVar(&o.listing, "listing", false, "print the per-tile context disassembly")
	flag.BoolVar(&o.dot, "dot", false, "print the kernel CDFG in Graphviz DOT form and exit")
	flag.BoolVar(&o.verify, "verify", false, "assemble and statically verify the mapping, reporting per-pass verdicts")
	flag.BoolVar(&o.analyze, "analyze", false, "run the static bitstream analyzer and report reachability, dead context and energy bounds")
	flag.BoolVar(&o.strip, "strip", false, "run dead-context elimination, report the words saved, and re-verify the stripped bitstream")
	flag.Parse()

	rec, err := tf.Start(os.Stderr)
	if err == nil {
		// The deferred call only matters on a panic: Finish is idempotent.
		defer tf.Finish(nil)
		o.rec = rec
		err = tf.Finish(run(os.Stdout, o))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgramap:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, o cliOptions) error {
	if o.dot {
		k, err := kernels.ByName(o.Kernel)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, cdfg.Dot(k.Build()))
		return nil
	}
	job, err := o.Resolve(o.rec)
	if err != nil {
		return err
	}
	g, grid, fl := job.Graph, job.Grid, job.Opt.Flow
	c, err := job.Compile()
	if err != nil {
		return err
	}
	if res := c.Portfolio; res != nil {
		fmt.Fprint(w, res.RenderReports())
		fmt.Fprintf(w, "portfolio wall time %s\n", res.Wall.Round(1_000_000))
	}
	if o.UseCache() {
		fmt.Fprintf(w, "cache: %s\n", c.Source)
		fmt.Fprintf(w, "image sha256 %x\n", sha256.Sum256(c.Image))
	}
	meta, prog := c.Meta, c.Program
	if c.Hit {
		fmt.Fprintf(w, "mapped %s onto %s with %s from cache (originally %s, seed %d via %s)\n",
			o.Kernel, grid.Name, fl, meta.Stats.CompileTime.Round(1_000_000), meta.Seed, meta.Backend)
	} else {
		fmt.Fprintf(w, "mapped %s onto %s with %s in %s\n", o.Kernel, grid.Name, fl, meta.Stats.CompileTime.Round(1_000_000))
	}
	st := meta.Stats
	if ex := st.Exact; ex.NodeBudget > 0 {
		status := fmt.Sprintf("budget %d exhausted", ex.NodeBudget)
		if ex.Proven {
			status = "proven optimal"
		}
		fmt.Fprintf(w, "exact search: warm start %d -> best %d words (%s; expanded %d, bound-pruned %d, conflict-pruned %d)\n",
			ex.WarmWords, ex.BestWords, status, ex.Expanded, ex.BoundPruned, ex.ConflictPruned)
	}
	fmt.Fprintf(w, "ops %d, moves %d, pnops %d; partials explored %d (ACMAP pruned %d, ECMAP pruned %d, stochastic %d)\n",
		meta.Ops, meta.Moves, meta.Pnops, st.Partials, st.PrunedACMAP, st.PrunedECMAP, st.PrunedStochastic)
	caps := make([]int, grid.NumTiles())
	for i := range caps {
		caps[i] = grid.Tile(arch.TileID(i)).CMWords
	}
	fmt.Fprint(w, trace.Utilization("context-memory occupancy:", meta.TileWords, caps))
	if ok, t := prog.FitsMemory(); !ok {
		fmt.Fprintf(w, "WARNING: tile %d overflows its context memory — this mapping cannot run on %s\n", t+1, grid.Name)
	}
	// A cache hit carries no Mapping, so no symbol homes; the verifier's
	// Needs gating likewise skips the mapping-level passes and checks the
	// rebuilt bitstream alone.
	if m := c.Mapping; m != nil {
		syms := make([]string, 0, len(m.SymHomes))
		for s := range m.SymHomes {
			syms = append(syms, s)
		}
		sort.Strings(syms)
		for _, s := range syms {
			h := m.SymHomes[s]
			fmt.Fprintf(w, "symbol %-8s -> tile %d r%d\n", s, h.Tile+1, h.Reg)
		}
	}
	if o.listing {
		fmt.Fprint(w, asm.Listing(prog))
	}
	if o.verify {
		vres := verify.Run(&verify.Context{Graph: g, Grid: grid, Mapping: c.Mapping, Program: prog})
		fmt.Fprintf(w, "static verification (%d passes):\n%s", len(vres.Ran), vres.Report())
		if err := vres.Err(); err != nil {
			return err
		}
	}
	if o.analyze || o.strip {
		a, err := static.Analyze(prog, static.WithObs(o.rec))
		if err != nil {
			return err
		}
		if o.analyze {
			fmt.Fprint(w, a.Report())
		}
		if o.strip {
			stripped, rep, err := static.Strip(prog, a, static.WithObs(o.rec))
			if err != nil {
				return err
			}
			fmt.Fprintln(w, rep)
			vres := verify.CheckProgram(stripped)
			fmt.Fprintf(w, "stripped bitstream re-verification:\n%s", vres.Report())
			if err := vres.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}
