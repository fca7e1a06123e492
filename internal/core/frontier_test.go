package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cdfg"
	"repro/internal/kernels"
)

// frontierScan is frontierOf's former full scan, kept as the test
// oracle: every unbound operation's earliest-cycle estimate, through
// unbound operand chains, in topological order.
func frontierScan(cx *bbCtx, p *partial, unbound []cdfg.NodeID) int {
	est := map[cdfg.NodeID]int{}
	front := math.MaxInt
	for _, n := range unbound {
		e := 0
		for _, a := range cx.block.Nodes[n].Args {
			av, ok := est[a]
			if ok {
				av++
			} else {
				av = cx.argAvail(p, a)
			}
			e = max(e, av)
		}
		est[n] = e
		front = min(front, e)
	}
	if front == math.MaxInt {
		return p.maxCycle
	}
	return front
}

// TestFrontierHeadsMatchScan checks that the scan over the heads gives
// the full scan's frontier on every child of every ECMAP/CAB bind step
// of the greedy walk (up to eight children a step), kernels and random
// graphs alike.
func TestFrontierHeadsMatchScan(t *testing.T) {
	var steps, checked int
	gs := append(kernelGraphs(kernels.All()...), genGraphs(15)...)
	greedyWalk(gs, paperCells, func(*Options) {}, func(what string, cx *bbCtx, beam []*partial, n cdfg.NodeID) []candidate {
		cands := firstCandidates(cx, beam, n)
		if cx.opt.Flow < FlowECMAP {
			return cands
		}
		steps++
		order := scheduleOrderInto(cx.block, cx.sched, cx.users, nil)
		unbound := order[slices.Index(order, n)+1:]
		heads := cx.frontierHeads(unbound)
		for i := range cands[:min(8, len(cands))] {
			child := cx.apply(&cands[i], &Stats{})
			if got, want := cx.frontierOf(child, heads), frontierScan(cx, child, unbound); got != want {
				t.Fatalf("%s block %q node n%d: heads frontier %d, full scan %d", what, cx.block.Name, n, got, want)
			}
			checked++
		}
		return cands
	})
	if checked == 0 {
		t.Fatal("vacuous: no ECMAP bind step checked")
	}
	t.Logf("%d ECMAP bind steps, %d children checked", steps, checked)
}
