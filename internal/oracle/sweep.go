package oracle

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cdfg"
)

// SweepOptions tunes a differential sweep.
type SweepOptions struct {
	// N is the number of random graphs generated (min 1).
	N int
	// Seed is the base seed: graph i is generated from Seed+i and mapped
	// with stochastic-pruning seed Seed+i, so any failure names the exact
	// seed that reproduces it.
	Seed int64
	// Gen tunes the graph generator (DefaultGenConfig when zero).
	Gen cdfg.GenConfig
	// Cells is the matrix to check per graph (AllCells when nil).
	Cells []Cell
	// Workers bounds the concurrently checked graphs; 0 means
	// runtime.GOMAXPROCS(0). Results are deterministic regardless.
	Workers int
}

// GraphResult collects one generated graph's run across the matrix.
type GraphResult struct {
	Index int
	Seed  int64
	Graph *cdfg.Graph
	Mem   cdfg.Memory
	Cells []CellResult
}

// Bugs returns the cell results that indicate a correctness bug.
func (g *GraphResult) Bugs() []CellResult {
	var bugs []CellResult
	for _, c := range g.Cells {
		if c.Outcome.Bug() {
			bugs = append(bugs, c)
		}
	}
	return bugs
}

// SweepReport aggregates a differential sweep.
type SweepReport struct {
	// Pair names the backend pair of a cross-backend sweep; empty for an
	// interpreter sweep.
	Pair    string
	Graphs  int
	ByCell  map[Cell]map[Outcome]int
	Checked int
	// Failures holds every graph with at least one bug outcome, in
	// generation order.
	Failures []GraphResult
}

// String renders a per-cell outcome table.
func (r *SweepReport) String() string {
	var sb strings.Builder
	mode := ""
	if r.Pair != "" {
		mode = " (" + r.Pair + ")"
	}
	fmt.Fprintf(&sb, "oracle sweep%s: %d graphs × %d cells\n", mode, r.Graphs, len(r.ByCell))
	cells := make([]Cell, 0, len(r.ByCell))
	for c := range r.ByCell {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Mode != cells[j].Mode {
			return cells[i].Mode < cells[j].Mode
		}
		return cells[i].Config < cells[j].Config
	})
	for _, c := range cells {
		m := r.ByCell[c]
		bugs := 0
		for o, n := range m {
			if o.Bug() {
				bugs += n
			}
		}
		fmt.Fprintf(&sb, "  %-14s pass %4d  no-mapping %3d  overflow %3d  bugs %d\n",
			c, m[Pass], m[NoMapping], m[Overflow], bugs)
	}
	return sb.String()
}

// Sweep generates opt.N random graphs and checks each against every cell
// of the matrix in the pipeline's mode, fanning graphs out over a worker
// pool. The report is a pure function of the options: workers only affect
// wall time.
func (p *Pipeline) Sweep(opt SweepOptions) *SweepReport {
	if opt.N < 1 {
		opt.N = 1
	}
	if opt.Gen.MaxBodyOps == 0 { // zero value: fall back to the defaults
		opt.Gen = cdfg.DefaultGenConfig()
	}
	cells := opt.Cells
	if cells == nil {
		cells = AllCells()
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > opt.N {
		workers = opt.N
	}

	// The sweep span and per-graph progress events land on one track per
	// worker, so the trace shows the pool's actual occupancy; the report
	// itself stays a pure function of the options.
	sweepSpan := p.Obs.StartSpan("oracle.sweep", "oracle", 0)
	var done atomic.Int64

	results := make([]GraphResult, opt.N)
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker checks through a pipeline copy whose mapper spans
			// land on its own trace track; results are unaffected.
			wp := *p
			wp.ObsTID = w
			for i := range idx {
				seed := opt.Seed + int64(i)
				sp := p.Obs.StartSpan("oracle.graph", "oracle", w)
				g, mem := cdfg.Generate(rand.New(rand.NewSource(seed)), opt.Gen)
				results[i] = GraphResult{
					Index: i,
					Seed:  seed,
					Graph: g,
					Mem:   mem,
					Cells: wp.CheckAll(g, mem, cells, seed),
				}
				bugs := len(results[i].Bugs())
				sp.End(map[string]any{"index": i, "seed": seed, "bugs": bugs})
				if p.Obs.Enabled() {
					p.Obs.Counter(p.counterPrefix() + "graphs").Inc()
					p.Obs.Emit("oracle.sweep.progress", "oracle", w,
						map[string]any{"done": done.Add(1), "total": opt.N})
				}
			}
		}(w)
	}
	for i := 0; i < opt.N; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()

	rep := &SweepReport{Graphs: opt.N, ByCell: map[Cell]map[Outcome]int{}}
	if p.Backends != nil {
		rep.Pair = p.Backends.String()
	}
	for _, c := range cells {
		rep.ByCell[c] = map[Outcome]int{}
	}
	for i := range results {
		gr := &results[i]
		for _, c := range gr.Cells {
			rep.ByCell[c.Cell][c.Outcome]++
			rep.Checked++
		}
		if len(gr.Bugs()) > 0 {
			rep.Failures = append(rep.Failures, *gr)
		}
	}
	sweepSpan.End(map[string]any{
		"graphs": opt.N, "cells": len(cells),
		"checked": rep.Checked, "failures": len(rep.Failures),
	})
	return rep
}
