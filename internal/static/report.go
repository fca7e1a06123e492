package static

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// Report renders the analysis for humans: the cgramap -analyze output.
func (a *Analysis) Report() string {
	var sb strings.Builder
	p := a.Prog
	fmt.Fprintf(&sb, "static analysis: %s on %s\n", p.Graph.Name, p.Grid.Name)

	structReach, reach := 0, 0
	for bb := range a.CFG.Blocks {
		if a.StructReachable[bb] {
			structReach++
		}
		if a.Reachable[bb] {
			reach++
		}
	}
	occupied := 0
	for bb := range a.CFG.Blocks {
		bc := &a.CFG.Blocks[bb]
		for t := range bc.Grid {
			for _, in := range bc.Grid[t] {
				if in != nil {
					occupied++
				}
			}
		}
	}
	deadOps, deadMoves := a.DeadCells()
	fmt.Fprintf(&sb, "  blocks: %d total, %d reachable (%d before const-branch refinement)\n",
		len(a.CFG.Blocks), reach, structReach)
	fmt.Fprintf(&sb, "  context cells: %d occupied, %d provably dead (%d ops, %d moves)\n",
		occupied, deadOps+deadMoves, deadOps, deadMoves)
	fmt.Fprintf(&sb, "  const operands: %d register/route reads carry one provable value\n",
		a.ConstOperands())
	du := buildDefUse(a.CFG, a.Reachable)
	fmt.Fprintf(&sb, "  def-use: %d defs, %d unused locally, %d upstream operand reads\n",
		len(du.Defs), du.Unused(), du.UpstreamUses)

	t := trace.NewTable("per-block static cost (one execution)",
		"block", "reachable", "cycles", "stalls lb", "stalls ub", "branch")
	bounds := buildBounds(a.CFG)
	for bb := range a.CFG.Blocks {
		tb := &bounds.PerBlock[bb]
		reachable := "yes"
		if !a.Reachable[bb] {
			reachable = "no"
		}
		branch := "-"
		if a.CFG.Blocks[bb].HasBranch {
			switch a.BranchConst[bb] {
			case BranchTaken:
				branch = "always taken"
			case BranchNotTaken:
				branch = "never taken"
			default:
				branch = "dynamic"
			}
		}
		t.Add(p.Graph.Blocks[bb].Name, reachable, tb.Len, tb.StallLB, tb.StallUB, branch)
	}
	sb.WriteString(t.String())
	return sb.String()
}

// String renders the rewrite summary: the cgramap -strip output.
func (r *StripReport) String() string {
	return fmt.Sprintf(
		"dead-context elimination: %d -> %d words (%d saved); %d dead ops, %d dead moves, %d blocks emptied, %d stubbed, %d idle halting blocks elided",
		r.WordsBefore, r.WordsAfter, r.WordsSaved(),
		r.DeadOps, r.DeadMoves, r.EmptiedBlocks, r.StubbedBlocks, len(r.Elided))
}
