package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Score orders candidate mappings in a seed portfolio. Lower is better on
// both axes; Primary dominates and Secondary breaks ties. The final
// tie-break — applied by MapPortfolio, not by Score — is the lowest seed,
// which makes the portfolio winner a pure function of the seed set.
type Score struct {
	// Primary is the mapping's total context-memory words, the quantity
	// the paper's flow minimizes.
	Primary float64
	// Secondary is PortfolioOptions.TieBreak's score, 0 without one (the
	// CLI tools use the static energy estimate from internal/power).
	Secondary float64
}

// Less reports whether s strictly precedes o.
func (s Score) Less(o Score) bool {
	if s.Primary != o.Primary {
		return s.Primary < o.Primary
	}
	return s.Secondary < o.Secondary
}

func (s Score) String() string {
	if s.Secondary == 0 {
		return fmt.Sprintf("%g", s.Primary)
	}
	return fmt.Sprintf("%g/%.4f", s.Primary, s.Secondary)
}

// TotalWords returns the context words the mapping occupies over all
// tiles — the portfolio's default minimization target.
func (m *Mapping) TotalWords() int {
	n := 0
	for _, w := range m.TileWords() {
		n += w
	}
	return n
}

// PortfolioOptions tunes MapPortfolio. The zero value runs a single seed
// (opt.Seed) on one worker, which is exactly Map.
type PortfolioOptions struct {
	// Seeds are the explicit seeds to explore. When nil, the portfolio
	// uses NumSeeds consecutive seeds starting at the base Options.Seed.
	Seeds []int64
	// NumSeeds is the portfolio width when Seeds is nil (minimum 1).
	NumSeeds int
	// Workers bounds the concurrently running mappers; 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// TieBreak, when set, scores successful mappings as Score.Secondary,
	// ordering mappings with equal word counts (lower wins). It must be a
	// pure function of the mapping: it runs concurrently on the workers.
	TieBreak func(*Mapping) float64
	// Backends are the mapper backends to race; nil means the heuristic
	// alone (the historical portfolio). Seed-sensitive backends get one
	// job per seed; Exhaustive backends (the exact search) get a single
	// job on the first seed, since extra seeds only perturb their warm
	// start, not their search space.
	Backends []Backend

	// NoIncumbent disables incumbent-sharing pruning entirely, restoring
	// the run-every-seed-to-completion behavior (useful for benchmarking
	// the pruning itself and for per-seed quality studies where losing
	// seeds' scores matter).
	NoIncumbent bool
}

// portfolioJob is one (backend, seed) cell of the race.
type portfolioJob struct {
	backend Backend
	seed    int64
}

func (o *PortfolioOptions) jobs(base int64) []portfolioJob {
	backends := o.Backends
	if len(backends) == 0 {
		backends = []Backend{DefaultBackend()}
	}
	seeds := o.seeds(base)
	var jobs []portfolioJob
	for _, b := range backends {
		if b.Capabilities().Exhaustive {
			jobs = append(jobs, portfolioJob{backend: b, seed: seeds[0]})
			continue
		}
		for _, s := range seeds {
			jobs = append(jobs, portfolioJob{backend: b, seed: s})
		}
	}
	return jobs
}

// SeedList returns the concrete seed set the portfolio will explore for a
// given base seed — the explicit Seeds when set, otherwise NumSeeds
// consecutive seeds from base. Exposed so callers that key derived state on
// a portfolio run (e.g. the mapping cache) can name the exact seed set.
func (o *PortfolioOptions) SeedList(base int64) []int64 {
	return append([]int64(nil), o.seeds(base)...)
}

func (o *PortfolioOptions) seeds(base int64) []int64 {
	if len(o.Seeds) > 0 {
		return o.Seeds
	}
	n := o.NumSeeds
	if n < 1 {
		n = 1
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	return seeds
}

// PortfolioReport records one seed's outcome for rendering and analysis.
type PortfolioReport struct {
	Seed int64
	// Backend names the mapper backend the job ran ("heuristic" unless
	// PortfolioOptions.Backends widened the race).
	Backend string
	// OK is true when the seed produced a mapping; Err carries the
	// failure otherwise.
	OK  bool
	Err string
	// Pruned marks a job abandoned by incumbent sharing: its admissible
	// word lower bound proved it could not beat a completed competitor.
	// Which losing jobs get pruned (vs. completing as losers) depends on
	// scheduling; the winner does not.
	Pruned bool
	// Score is the job's score (valid only when OK).
	Score Score
	// Wall is the seed's mapping wall time (zero when the seed was
	// cancelled before starting).
	Wall time.Duration
	// Winner marks the seed whose mapping MapPortfolio returned.
	Winner bool
}

// PortfolioResult is the outcome of a portfolio run: the winning mapping
// plus the per-seed reports, ordered like the seed list.
type PortfolioResult struct {
	// Mapping is the winner: fewest words, then TieBreak, then seed.
	Mapping *Mapping
	// Seed produced the winner; Backend names the backend that ran it;
	// Score is its score.
	Seed    int64
	Backend string
	Score   Score
	// Reports has one entry per (backend, seed) job, in backend-list then
	// seed-list order.
	Reports []PortfolioReport
	// Wall is the whole portfolio's wall time.
	Wall time.Duration
}

// RenderReports returns the per-seed outcome table (internal/trace format).
func (r *PortfolioResult) RenderReports() string {
	rows := make([]trace.PortfolioRow, len(r.Reports))
	multiBackend := false
	for i, rep := range r.Reports {
		rows[i] = trace.PortfolioRow{
			Seed:   rep.Seed,
			OK:     rep.OK,
			Pruned: rep.Pruned,
			Wall:   rep.Wall,
			Winner: rep.Winner,
		}
		if rep.Backend != r.Reports[0].Backend {
			multiBackend = true
		}
		if rep.OK {
			rows[i].Detail = rep.Score.String()
		} else {
			rows[i].Detail = rep.Err
		}
	}
	title := fmt.Sprintf("portfolio: %d seeds, winner seed %d (score %s)",
		len(r.Reports), r.Seed, r.Score)
	if multiBackend {
		// The backend column only appears (and the title only names the
		// winner's backend) when the race actually spans backends, keeping
		// the historical single-backend rendering stable.
		for i, rep := range r.Reports {
			rows[i].Backend = rep.Backend
		}
		title = fmt.Sprintf("portfolio: %d jobs, winner %s seed %d (score %s)",
			len(r.Reports), r.Backend, r.Seed, r.Score)
	}
	return trace.Portfolio(title, rows)
}

// MapPortfolio runs a portfolio of (backend, seed) jobs concurrently and
// returns the mapping with the fewest context words. The heuristic flow is
// stochastic (the pruning step samples partial mappings, §III of the
// paper), so different seeds reach mappings of different quality; a
// portfolio buys quality with idle cores instead of a wider beam. With
// PortfolioOptions.Backends the seeds additionally race other backends —
// typically the exact branch-and-bound search, which joins as a single
// job and whose budget/ctx handling makes it a safe anytime participant
// under the same cancellation.
//
// The winner is deterministic for a given job set: ties on the score
// (words, then TieBreak) break toward the lowest seed (then the
// earlier-listed backend), and the selection scans the completed results
// in job order after all workers finish, so neither GOMAXPROCS nor
// goroutine completion order can change the outcome (unless ctx cancels
// the run early).
//
// Workers share the best completed result through an atomic incumbent and
// abandon jobs whose admissible word lower bound (WordLowerBound,
// rechecked between basic blocks as words commit) provably cannot beat
// it. Pruning is winner-invariant — only jobs that would lose the
// deterministic tie-break anyway are cut — but the per-job reports are
// not: which losing jobs show as pruned instead of completing depends on
// scheduling. Set PortfolioOptions.NoIncumbent to run every job to
// completion.
//
// Cancelling ctx stops workers promptly: seeds not yet started are
// skipped, and running mappers abort at their next basic-block boundary.
// When at least one seed has already succeeded, the best of the completed
// seeds is still returned; otherwise the error aggregates every seed's
// failure.
func MapPortfolio(ctx context.Context, g *cdfg.Graph, grid *arch.Grid, opt Options, popt PortfolioOptions) (*PortfolioResult, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}

	work := popt.jobs(opt.Seed)
	// Pruning on a bound equal to the incumbent (see incumbent.prune) is
	// sound only without a TieBreak, which could still win the tie.
	var inc *incumbent
	var lbound int
	if !popt.NoIncumbent {
		inc = &incumbent{tiePrune: popt.TieBreak == nil}
		lbound = WordLowerBound(g, grid)
	}
	workers := popt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(work) {
		workers = len(work)
	}

	res := &PortfolioResult{Reports: make([]PortfolioReport, len(work))}
	mappings := make([]*Mapping, len(work))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One arena per worker, off the free list: jobs running on the
			// same worker reuse its buffers, and workers never share
			// (arenas are not concurrency-safe).
			ar := getArena()
			defer putArena(ar)
			for i := range jobs {
				job := work[i]
				rep := &res.Reports[i]
				rep.Seed = job.seed
				rep.Backend = job.backend.Name()
				if err := ctx.Err(); err != nil {
					rep.Err = err.Error()
					opt.Obs.Counter("core.portfolio.seeds_skipped").Inc()
					continue
				}
				// Pre-job screen: the whole-graph word floor is already
				// hopeless against a completed competitor. This is the only
				// pruning the exact backend sees — consulting the incumbent
				// mid-search would make its anytime node budget cut a
				// timing-dependent subtree and break its determinism.
				if inc != nil {
					if v, ok := inc.prune(lbound, job.seed, i); ok {
						rep.Pruned = true
						rep.Err = fmt.Sprintf("pruned: word floor %d cannot beat incumbent %d", lbound, v)
						opt.Obs.Counter("core.portfolio.seeds_pruned").Inc()
						continue
					}
				}
				seedOpt := opt
				seedOpt.Seed = job.seed
				seedOpt.ctx = ctx
				seedOpt.arena = ar
				// Each job traces on its own track: the seed span below and
				// every core.map/core.map.block span the backend opens nest
				// under tid i instead of colliding on the caller's tid.
				seedOpt.ObsTID = i
				if inc != nil && !job.backend.Capabilities().Exhaustive {
					seedOpt.incumbent = inc
					seedOpt.incJob = i
				}
				// One span per job, on its own tid, so concurrent jobs
				// render as parallel tracks in the trace viewer.
				var seedSpan obs.Span
				if opt.Obs.Enabled() {
					seedSpan = opt.Obs.StartSpan("core.portfolio.seed", "core", i)
				}
				t0 := time.Now()
				m, err := job.backend.Map(ctx, g, grid, seedOpt)
				rep.Wall = time.Since(t0)
				if opt.Obs.Enabled() {
					seedSpan.End(map[string]any{
						"seed": job.seed, "backend": rep.Backend, "ok": err == nil})
				}
				if err != nil {
					rep.Err = err.Error()
					if errors.Is(err, ErrPrunedByIncumbent) {
						rep.Pruned = true
						opt.Obs.Counter("core.portfolio.seeds_pruned").Inc()
					} else {
						opt.Obs.Counter("core.portfolio.seeds_failed").Inc()
					}
					continue
				}
				rep.OK = true
				rep.Score = Score{Primary: float64(m.TotalWords())}
				if popt.TieBreak != nil {
					rep.Score.Secondary = popt.TieBreak(m)
				}
				mappings[i] = m
				if inc != nil {
					inc.publish(m.TotalWords(), job.seed, i)
				}
				opt.Obs.Counter("core.portfolio.seeds_ok").Inc()
			}
		}()
	}
	for i := range work {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	res.Wall = time.Since(start)

	// Deterministic best-pick: scan in job order, prefer a strictly
	// better score, and on exact ties keep the lowest seed seen first
	// (equal seeds across backends keep the earlier-listed backend).
	best := -1
	for i, rep := range res.Reports {
		if !rep.OK {
			continue
		}
		switch {
		case best < 0,
			rep.Score.Less(res.Reports[best].Score),
			!res.Reports[best].Score.Less(rep.Score) && work[i].seed < work[best].seed:
			best = i
		}
	}
	if best < 0 {
		errs := make([]error, 0, len(work))
		for i, rep := range res.Reports {
			errs = append(errs, fmt.Errorf("%s seed %d: %s", work[i].backend.Name(), work[i].seed, rep.Err))
		}
		return nil, fmt.Errorf("core: portfolio of %d jobs found no mapping of %q onto %s: %w",
			len(work), g.Name, grid.Name, errors.Join(errs...))
	}
	res.Reports[best].Winner = true
	res.Mapping = mappings[best]
	res.Seed = work[best].seed
	res.Backend = res.Reports[best].Backend
	res.Score = res.Reports[best].Score
	if opt.Obs.Enabled() {
		opt.Obs.Emit("core.portfolio.winner", "core", best,
			map[string]any{"seed": res.Seed, "backend": res.Backend, "score": res.Score.String()})
	}
	return res, nil
}
