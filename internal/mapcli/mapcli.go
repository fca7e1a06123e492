// Package mapcli is the mapping-flag wiring cgramap and cgrasim share:
// the flags that pick a kernel, configuration, flow, backend and seed
// portfolio, their parsing, and the compile step — one Map or a
// portfolio, optionally through the content-addressed mapping cache.
package mapcli

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/mapcache"
	"repro/internal/obs"
	"repro/internal/power"
)

// Flags holds the shared mapping flag values; Register sets the CLI
// defaults. An empty Backend means the default backend.
type Flags struct {
	Kernel   string
	Config   string
	Flow     string
	Backend  string
	Seed     int64
	Seeds    int
	Parallel int
	// ExactBudget is the exact backend's node budget
	// (core.Options.ExactNodeBudget; 0 means the default).
	ExactBudget int
	Cache       bool
	CacheDir    string
}

// Register defines the shared flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Kernel, "kernel", "FIR", "kernel name: "+strings.Join(kernels.Names(), ", "))
	fs.StringVar(&f.Config, "config", "HOM64", "CGRA configuration: HOM64, HOM32, HET1, HET2")
	fs.StringVar(&f.Flow, "flow", "cab", "mapping flow: basic, acmap, ecmap, cab")
	fs.StringVar(&f.Backend, "backend", "heuristic",
		"mapping backend: "+strings.Join(core.BackendNames(), ", ")+", or race (all backends compete, best mapping wins)")
	fs.Int64Var(&f.Seed, "seed", 1, "stochastic pruning seed (first seed of a portfolio)")
	fs.IntVar(&f.Seeds, "seeds", 1, "portfolio width: seeds mapped concurrently, best mapping wins")
	fs.IntVar(&f.Parallel, "parallel", 0, "portfolio worker pool size (0 = one per CPU)")
	fs.IntVar(&f.ExactBudget, "exact-budget", 0,
		fmt.Sprintf("exact backend search budget in candidate partial mappings (0 = %d)", core.DefaultExactNodeBudget))
	fs.BoolVar(&f.Cache, "cache", false, "reuse compiled mappings through the content-addressed mapping cache")
	fs.StringVar(&f.CacheDir, "cachedir", "", "on-disk mapping-cache directory (implies -cache; entries are re-verified before use)")
}

// ParseFlow resolves the -flow flag.
func ParseFlow(s string) (core.Flow, error) {
	switch strings.ToLower(s) {
	case "basic":
		return core.FlowBasic, nil
	case "acmap":
		return core.FlowACMAP, nil
	case "ecmap":
		return core.FlowECMAP, nil
	case "cab", "full", "aware":
		return core.FlowCAB, nil
	}
	return 0, fmt.Errorf("unknown flow %q", s)
}

// ParseBackends resolves the -backend flag: a registered backend name
// maps alone, "race" enters every registered backend into the portfolio.
func ParseBackends(s string) ([]core.Backend, error) {
	switch strings.ToLower(s) {
	case "":
		return []core.Backend{core.DefaultBackend()}, nil
	case "race":
		return core.Backends(), nil
	}
	b, err := core.BackendByName(strings.ToLower(s))
	if err != nil {
		return nil, err
	}
	return []core.Backend{b}, nil
}

// Job is a resolved flag set: what to map, where, and how.
type Job struct {
	Flags    Flags
	Kernel   kernels.Kernel
	Graph    *cdfg.Graph
	Grid     *arch.Grid
	Opt      core.Options
	Backends []core.Backend
}

// Resolve looks up the kernel, flow, configuration and backends the flags
// name and builds the mapper options, with rec as the mapper's recorder.
func (f Flags) Resolve(rec *obs.Recorder) (*Job, error) {
	k, err := kernels.ByName(f.Kernel)
	if err != nil {
		return nil, err
	}
	flow, err := ParseFlow(f.Flow)
	if err != nil {
		return nil, err
	}
	grid, err := arch.NewGrid(arch.ConfigName(strings.ToUpper(f.Config)))
	if err != nil {
		return nil, err
	}
	backends, err := ParseBackends(f.Backend)
	if err != nil {
		return nil, err
	}
	opt := core.DefaultOptions(flow)
	opt.Seed = f.Seed
	opt.ExactNodeBudget = f.ExactBudget
	opt.Obs = rec
	return &Job{Flags: f, Kernel: k, Graph: k.Build(), Grid: grid, Opt: opt, Backends: backends}, nil
}

// UseCache reports whether -cache or -cachedir is set.
func (f Flags) UseCache() bool { return f.Cache || f.CacheDir != "" }

// portfolio reports whether the job maps a portfolio rather than once.
func (j *Job) portfolio() bool { return j.Flags.Seeds > 1 || len(j.Backends) > 1 }

// Compiled is the outcome of Job.Compile.
type Compiled struct {
	// Result is the assembled program with its image and metadata;
	// Source says whether it was computed or served from the cache.
	mapcache.Result
	// Mapping is the mapping computed in this process; nil when the cache
	// served it.
	Mapping *core.Mapping
	// Portfolio is the portfolio run in this process, if one ran.
	Portfolio *core.PortfolioResult
}

// Compile maps the job — once, or as a portfolio over the seed list and
// backends — and assembles the winner, through the mapping cache when
// -cache or -cachedir is set. The portfolio's objective is fewest
// context words, ties broken by estimated energy, then the lowest seed.
func (j *Job) Compile() (Compiled, error) {
	var c Compiled
	compute := func() (mapcache.Computed, error) {
		if j.portfolio() {
			res, err := core.MapPortfolio(context.Background(), j.Graph, j.Grid, j.Opt, core.PortfolioOptions{
				NumSeeds: j.Flags.Seeds,
				Workers:  j.Flags.Parallel,
				Backends: j.Backends,
				TieBreak: power.Default().StaticMappingEnergy,
			})
			if err != nil {
				return mapcache.Computed{}, err
			}
			c.Mapping, c.Portfolio = res.Mapping, res
			return mapcache.Computed{Mapping: res.Mapping, Seed: res.Seed, Backend: res.Backend}, nil
		}
		m, err := j.Backends[0].Map(context.Background(), j.Graph, j.Grid, j.Opt)
		if err != nil {
			return mapcache.Computed{}, err
		}
		c.Mapping = m
		return mapcache.Computed{Mapping: m, Seed: j.Opt.Seed, Backend: j.Backends[0].Name()}, nil
	}
	names := make([]string, len(j.Backends))
	for i, b := range j.Backends {
		names[i] = b.Name()
	}
	req := mapcache.Request{Graph: j.Graph, Grid: j.Grid, Opt: j.Opt, Backends: names}
	if j.portfolio() {
		req.Seeds = (&core.PortfolioOptions{NumSeeds: j.Flags.Seeds}).SeedList(j.Flags.Seed)
		req.Objective = "words+energy"
	}
	var cache *mapcache.Cache
	if j.Flags.UseCache() {
		cache = mapcache.New(mapcache.Config{Dir: j.Flags.CacheDir, Obs: j.Opt.Obs})
	}
	var err error
	c.Result, err = cache.GetOrStore(req, compute)
	return c, err
}
