package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/kernels"
)

// refFootprint reads a realized partial the way the in-flight filters
// once did on every child: per tile, its instructions plus one pnop per
// leading or interior gap, counted off the slots, one past its last
// occupied cycle, and the live-out writebacks still owed to home
// registers there, read off the block's live-out map.
func refFootprint(cx *bbCtx, p *partial) (words, hi []int, owed []int8) {
	words = make([]int, len(p.tiles))
	hi = make([]int, len(p.tiles))
	owed = make([]int8, len(p.tiles))
	for t, ts := range p.tiles {
		for c := range ts.Slots {
			if ts.Slots[c].Kind == SlotEmpty {
				continue
			}
			words[t]++
			if c > 0 && ts.Slots[c-1].Kind == SlotEmpty {
				words[t]++
			}
			hi[t] = c + 1
		}
	}
	for s, def := range cx.block.LiveOut {
		if nd := cx.block.Nodes[def]; nd.Op == cdfg.OpSym && nd.Sym == s {
			continue
		}
		h, ok := cx.symHomes[s]
		if !ok {
			if h, ok = p.newHome(s); !ok {
				continue
			}
		}
		if p.writeCycle(cx.grid.RRFSize, h.Tile, int8(h.Reg)) == noWrite {
			owed[h.Tile]++
		}
	}
	return words, hi, owed
}

// refVerdict applies the flow's in-flight filters to a realized child as
// the binder once did, and finds its first tile over the headroom count.
func refVerdict(cx *bbCtx, child *partial, headroom bool) (Flow, int) {
	words, hi, owed := refFootprint(cx, child)
	room := func(t int) int {
		w := words[t]
		if w > 0 {
			w++
		} else if child.maxCycle > 0 {
			w = 1
		}
		return w + int(owed[t])
	}
	first := -1
	for t := range words {
		if room(t) > cx.budget[t] {
			first = t
			break
		}
	}
	for t := range words {
		if words[t]+int(owed[t]) > cx.budget[t] {
			return FlowACMAP, first
		}
	}
	if cx.opt.Flow >= FlowECMAP {
		for t := range words {
			w := room(t)
			if !headroom {
				w = words[t]
				if hi[t] < child.maxCycle {
					w++
				}
			}
			if w > cx.budget[t] {
				return FlowECMAP, first
			}
		}
	}
	return FlowBasic, first
}

// checkCandidate realizes one candidate the binder took from its stream
// and compares the candidate's footprint and filter verdicts with the
// child's, and its stream position with the previous candidate's of the
// bind step on the same arena (last). It returns the first mismatch, or
// "".
func checkCandidate(cx *bbCtx, cand *candidate, first, headroom bool, pruned Flow, last map[*mapperArena]slotEntry, tl *footprintTally) string {
	tl.cands++
	cs := &cx.arena.stream
	call := slices.IndexFunc(cs.calls, func(c streamCall) bool { return c.parent == cand.parent })
	if call < 0 {
		return "candidate's parent made no enumerate call"
	}
	e := slotEntry{key: cand.parent.cost + cand.cost, order: slotOrder(int32(call), cand.cycle, cand.tile)}
	if prev, ok := last[cx.arena]; ok && !first && !prev.before(&e) {
		return fmt.Sprintf("stream yields (key %v, order %#x) after (key %v, order %#x)", e.key, e.order, prev.key, prev.order)
	}
	last[cx.arena] = e

	var f footprint
	cx.candFootprint(cand, &f)
	child := cx.apply(cand)
	defer cx.arena.putPartial(child)
	words, hi, owed := refFootprint(cx, child)
	if f.maxCycle != child.maxCycle {
		return fmt.Sprintf("candidate maxCycle %d, child %d", f.maxCycle, child.maxCycle)
	}
	for t := range words {
		if f.words[t] != words[t] || f.hi[t] != hi[t] || f.owed[t] != owed[t] {
			return fmt.Sprintf("tile %d: candidate (words %d, hi %d, owed %d), child (words %d, hi %d, owed %d)",
				t, f.words[t], f.hi[t], f.owed[t], words[t], hi[t], owed[t])
		}
	}
	for i := range cand.plans {
		ap := &cand.plans[i]
		tl.moves += len(ap.Plan.Moves)
		if ap.Plan.Recomp != nil {
			tl.recomps++
		}
		if ap.Pin != nil && cx.owesWriteback(ap.Pin.Sym) {
			tl.pinsOwed++
		}
	}
	if cx.opt.Flow < FlowACMAP {
		return ""
	}
	want, wantTile := refVerdict(cx, child, headroom)
	if got := cx.memPrune(&f, headroom); got != want || pruned != want {
		return fmt.Sprintf("candidate filters %v, binder %v, child %v (headroom %v)", got, pruned, want, headroom)
	}
	if v := cx.violation(&f, want); v.tile != wantTile {
		return fmt.Sprintf("candidate's first violating tile %d, child's %d", v.tile, wantTile)
	}
	switch want {
	case FlowACMAP:
		tl.acmap++
	case FlowECMAP:
		tl.ecmap++
	}
	return ""
}

// footprintTally counts what the candidate-side filter check saw.
type footprintTally struct {
	cands, moves, recomps, pinsOwed, acmap, ecmap int
}

// TestCandidateFootprint maps all 140 heuristic cells (7 kernels × 5
// modes × 4 configurations), and the same modes and configurations on a
// few of the oracle's random graphs, whose constant-operand producers
// the kernels lack and a consumer may recompute. Besides the survivors
// the binder builds, it realizes every candidate the binder takes from
// the stream. Each candidate's footprint — per-tile words, last cycle and
// so trailing flag, owed writebacks, and the schedule length — must equal
// its realized child's, read off the child's slots; the filter verdicts
// and the first violating tile must equal the ones the binder once
// computed on the child. The stream must yield each bind step's
// candidates in strictly increasing (key, enumeration order), which is
// what lets the binder cut to the beam without sorting.
func TestCandidateFootprint(t *testing.T) {
	modes := []struct {
		flow     Flow
		weighted bool
	}{{FlowBasic, false}, {FlowBasic, true}, {FlowACMAP, false}, {FlowECMAP, false}, {FlowCAB, false}}
	var (
		mu   sync.Mutex
		tl   footprintTally
		last = map[*mapperArena]slotEntry{}
		bad  string // the first mismatch: retry attempts run off the test goroutine
	)
	for _, g := range append(kernelGraphs(kernels.All()...), genGraphs(10)...) {
		for _, m := range modes {
			for _, cfg := range arch.ConfigNames() {
				opt := DefaultOptions(m.flow)
				if m.weighted {
					opt.Traversal = cdfg.TraverseWeighted
				}
				what := g.Name + "/" + m.flow.String() + "/" + string(cfg)
				opt.candidateSeen = func(cx *bbCtx, cand *candidate, first, headroom bool, pruned Flow) {
					mu.Lock()
					defer mu.Unlock()
					if bad == "" {
						bad = checkCandidate(cx, cand, first, headroom, pruned, last, &tl)
					}
				}
				// A cell may fail; its candidates are checked all the same.
				_, _ = Map(g, arch.MustGrid(cfg), opt)
				if bad != "" {
					t.Fatalf("%s: %s", what, bad)
				}
			}
		}
	}
	if tl.moves == 0 || tl.recomps == 0 || tl.pinsOwed == 0 || tl.acmap == 0 || tl.ecmap == 0 {
		t.Fatalf("vacuous: %+v", tl)
	}
	t.Logf("%d candidates: %d move claims, %d recompute claims, %d pins owing a writeback; %d pruned by ACMAP, %d by ECMAP",
		tl.cands, tl.moves, tl.recomps, tl.pinsOwed, tl.acmap, tl.ecmap)
}
