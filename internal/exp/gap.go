package exp

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/trace"
)

// GapCell compares the heuristic and exact backends on one kernel × flow
// point: total context words from each, and whether the exact search
// proved optimality before exhausting its node budget. One exact run
// yields both numbers — its warm start is exactly the heuristic mapping.
type GapCell struct {
	Kernel string
	Flow   core.Flow

	// Heuristic is the warm start's total words, -1 when the heuristic
	// found no mapping; Exact is the search result's. Fail is non-empty
	// when neither backend mapped the cell.
	Heuristic int
	Exact     int
	Proven    bool
	Fail      string
}

// Gap returns the relative improvement of the exact search over the
// heuristic, in percent of the heuristic's words (0 when equal or when
// either side is missing).
func (c *GapCell) Gap() float64 {
	if c.Fail != "" || c.Heuristic <= 0 || c.Exact >= c.Heuristic {
		return 0
	}
	return 100 * float64(c.Heuristic-c.Exact) / float64(c.Heuristic)
}

// GapTable is the optimality-gap experiment: every suite kernel × flow on
// one CM configuration, heuristic vs bounded exact search.
type GapTable struct {
	Config arch.ConfigName
	Budget int
	Cells  []*GapCell
}

// RunGapTable maps every suite kernel under all four flows on the given
// configuration with the exact backend at the given node budget (0 means
// core.DefaultExactNodeBudget) and tabulates the heuristic-vs-exact
// context-word gap. Cells fan out on the runner's worker pool; the table
// is deterministic at any parallelism.
func (r *Runner) RunGapTable(config arch.ConfigName, budget int) (*GapTable, error) {
	flows := []core.Flow{core.FlowBasic, core.FlowACMAP, core.FlowECMAP, core.FlowCAB}
	names := kernels.Names()
	t := &GapTable{Config: config, Budget: budget, Cells: make([]*GapCell, len(names)*len(flows))}
	jobs := make([]func(int), 0, len(t.Cells))
	for ki, name := range names {
		for fi, flow := range flows {
			jobs = append(jobs, func(tid int) {
				t.Cells[ki*len(flows)+fi] = r.gapCell(tid, name, flow, config, budget)
			})
		}
	}
	r.prefetch(jobs)
	for _, c := range t.Cells {
		if c == nil {
			return nil, fmt.Errorf("exp: gap table cell missing after prefetch")
		}
	}
	return t, nil
}

func (r *Runner) gapCell(tid int, kernel string, flow core.Flow, config arch.ConfigName, budget int) *GapCell {
	c := &GapCell{Kernel: kernel, Flow: flow, Heuristic: -1, Exact: -1}
	k, err := kernels.ByName(kernel)
	if err != nil {
		c.Fail = err.Error()
		return c
	}
	opt := core.DefaultOptions(flow)
	opt.ExactNodeBudget = budget
	opt.Obs = r.Obs
	opt.ObsTID = tid
	m, err := (core.ExactBackend{}).Map(context.Background(), k.Build(), arch.MustGrid(config), opt)
	if err != nil {
		c.Fail = err.Error()
		return c
	}
	c.Heuristic = m.Stats.Exact.WarmWords
	c.Exact = m.TotalWords()
	c.Proven = m.Stats.Exact.Proven
	return c
}

// Render prints the gap table in the repo's table style.
func (t *GapTable) Render() string {
	budget := "default"
	if t.Budget > 0 {
		budget = fmt.Sprint(t.Budget)
	}
	tab := trace.NewTable(
		fmt.Sprintf("optimality gap on %s (exact node budget %s)", t.Config, budget),
		"kernel", "flow", "heuristic", "exact", "gap", "proven")
	for _, c := range t.Cells {
		if c.Fail != "" {
			tab.Add(c.Kernel, c.Flow, "-", "-", "-", c.Fail)
			continue
		}
		heur := "-"
		if c.Heuristic >= 0 {
			heur = fmt.Sprint(c.Heuristic)
		}
		proven := "no"
		if c.Proven {
			proven = "yes"
		}
		tab.Add(c.Kernel, c.Flow, heur, c.Exact, fmt.Sprintf("%.1f%%", c.Gap()), proven)
	}
	return tab.String()
}
