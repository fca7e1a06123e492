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
// for inspecting the search hot path on a single kernel/config pair.
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
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/mapcache"
	"repro/internal/mapcli"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/static"
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
	o.Register(flag.CommandLine)
	flag.BoolVar(&o.listing, "listing", false, "print the per-tile context disassembly")
	flag.BoolVar(&o.dot, "dot", false, "print the kernel CDFG in Graphviz DOT form and exit")
	flag.BoolVar(&o.verify, "verify", false, "assemble and statically verify the mapping, reporting per-pass verdicts")
	flag.BoolVar(&o.analyze, "analyze", false, "run the static bitstream analyzer and report reachability, dead context and energy bounds")
	flag.BoolVar(&o.strip, "strip", false, "run dead-context elimination, report the words saved, and re-verify the stripped bitstream")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	metrics := flag.String("metrics", "", "write instrumentation counters as JSONL to this file")
	events := flag.String("events", "", "write a Chrome trace_event timeline to this file")
	flag.Parse()

	fr := obs.FileOutputs(*metrics, *events)
	o.rec = fr.Recorder
	stopProf, err := prof.Start(*cpuprofile, *memprofile, fr.Recorder)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgramap:", err)
		os.Exit(1)
	}
	// The deferred call is the panic safety net; the explicit call below
	// collects the stop error (stop is idempotent).
	defer stopProf()
	err = run(os.Stdout, o)
	if perr := stopProf(); perr != nil && err == nil {
		err = perr
	}
	if ferr := fr.Flush(); ferr != nil && err == nil {
		err = ferr
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
	m := c.Mapping
	var prog *asm.Program
	var meta mapcache.Meta
	if cres := c.Cache; cres != nil {
		fmt.Fprintf(w, "cache: %s\n", cres.Source)
		fmt.Fprintf(w, "image sha256 %x\n", sha256.Sum256(cres.Image))
		// A miss computed the mapping in-process; report it in full below.
		// A hit has only the stored metadata.
		prog, meta = cres.Program, cres.Meta
	}
	if m == nil {
		// Cache hit: the Mapping object is gone, but the stored metadata and
		// the rebuilt (verified) program carry everything the report needs.
		fmt.Fprintf(w, "mapped %s onto %s with %s from cache (originally %s, seed %d via %s)\n",
			o.Kernel, grid.Name, fl, meta.Stats.CompileTime.Round(1_000_000), meta.Seed, meta.Backend)
		fmt.Fprintf(w, "ops %d, moves %d, pnops %d, words %d\n", meta.Ops, meta.Moves, meta.Pnops, meta.Words)
		caps := make([]int, grid.NumTiles())
		for i := range caps {
			caps[i] = grid.Tile(arch.TileID(i)).CMWords
		}
		fmt.Fprint(w, trace.Utilization("context-memory occupancy:", meta.TileWords, caps))
		return finishProgram(w, o, g, grid, nil, prog)
	}
	fmt.Fprintf(w, "mapped %s onto %s with %s in %s\n", o.Kernel, grid.Name, fl, m.Stats.CompileTime.Round(1_000_000))
	if ex := m.Stats.Exact; ex.NodeBudget > 0 {
		status := fmt.Sprintf("budget %d exhausted", ex.NodeBudget)
		if ex.Proven {
			status = "proven optimal"
		}
		fmt.Fprintf(w, "exact search: warm start %d -> best %d words (%s; expanded %d, bound-pruned %d, conflict-pruned %d)\n",
			ex.WarmWords, ex.BestWords, status, ex.Expanded, ex.BoundPruned, ex.ConflictPruned)
	}
	fmt.Fprintf(w, "ops %d, moves %d, pnops %d; partials explored %d (ACMAP pruned %d, ECMAP pruned %d, stochastic %d)\n",
		m.TotalOps(), m.TotalMoves(), m.TotalPnops(),
		m.Stats.Partials, m.Stats.PrunedACMAP, m.Stats.PrunedECMAP, m.Stats.PrunedStochastic)
	caps := make([]int, grid.NumTiles())
	for i := range caps {
		caps[i] = grid.Tile(arch.TileID(i)).CMWords
	}
	fmt.Fprint(w, trace.Utilization("context-memory occupancy:", m.TileWords(), caps))
	if ok, t := m.FitsMemory(); !ok {
		fmt.Fprintf(w, "WARNING: tile %d overflows its context memory — this mapping cannot run on %s\n", t+1, grid.Name)
	}
	syms := make([]string, 0, len(m.SymHomes))
	for s := range m.SymHomes {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	for _, s := range syms {
		h := m.SymHomes[s]
		fmt.Fprintf(w, "symbol %-8s -> tile %d r%d\n", s, h.Tile+1, h.Reg)
	}
	return finishProgram(w, o, g, grid, m, prog)
}

// finishProgram runs the post-mapping stages shared by the fresh-map and
// cache-hit paths: listing, static verification, analysis and dead-context
// stripping. prog may be nil (fresh map without a cache), in which case it
// is assembled on demand; m may be nil (cache hit), in which case the
// verifier's Needs gating skips the mapping-level passes and checks the
// rebuilt bitstream alone.
func finishProgram(w io.Writer, o cliOptions, g *cdfg.Graph, grid *arch.Grid, m *core.Mapping, prog *asm.Program) error {
	if prog == nil {
		if !(o.listing || o.verify || o.analyze || o.strip) {
			return nil
		}
		var err error
		if prog, err = asm.Assemble(m); err != nil {
			return err
		}
	}
	if o.listing {
		fmt.Fprint(w, asm.Listing(prog))
	}
	if o.verify {
		vres := verify.Run(&verify.Context{Graph: g, Grid: grid, Mapping: m, Program: prog})
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
