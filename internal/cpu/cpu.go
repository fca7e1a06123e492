// Package cpu models the or1k-class baseline processor of the paper's
// evaluation: a single-issue in-order 32-bit RISC core with a data memory,
// instruction cache, and a simple pipeline cost model. It executes the
// same CDFG the CGRA runs — the CDFG is treated as the optimized (-O3)
// instruction stream — so CPU and CGRA results are directly comparable
// and functionally cross-checked against the same golden references.
package cpu

import (
	"fmt"

	"repro/internal/cdfg"
)

// Costs is the per-instruction-class cycle model of the in-order core.
type Costs struct {
	// ALU is the cost of a register-to-register ALU operation.
	ALU int
	// Mul is the cost of a multiply (or1k multiplies are multi-cycle).
	Mul int
	// Load is the cost of a load hitting the data memory.
	Load int
	// Store is the cost of a store.
	Store int
	// Branch is the base cost of a conditional branch.
	Branch int
	// BranchMiss is the extra penalty of a taken branch (pipeline refill).
	BranchMiss int
	// Const is the cost of materializing an immediate (folded into the
	// consuming instruction half of the time on or1k; modeled as its own
	// issue slot once per block execution).
	Const int
}

// DefaultCosts returns the or1k-like cost model used in the evaluation.
func DefaultCosts() Costs {
	return Costs{
		ALU:        1,
		Mul:        4,
		Load:       3,
		Store:      2,
		Branch:     1,
		BranchMiss: 3,
		Const:      1,
	}
}

// Result is one CPU execution.
type Result struct {
	// Cycles is the total execution time.
	Cycles int64
	// Instrs counts dynamically executed instructions.
	Instrs int64
	// Per-class dynamic counts (for the energy model).
	ALUOps, Muls, Loads, Stores, Branches, Consts int64
}

// Run executes the graph on the core against the memory (modified in
// place) and returns cycle and instruction counts. Symbol variables live
// in the core's register file and cost nothing to read.
func Run(g *cdfg.Graph, mem cdfg.Memory, costs Costs) (*Result, error) {
	if err := cdfg.Verify(g); err != nil {
		return nil, fmt.Errorf("cpu: %w", err)
	}
	res := &Result{}
	syms := map[string]int32{}
	cur := g.Entry
	var vals []int32
	for steps := 0; ; steps++ {
		if steps >= cdfg.InterpLimit {
			return res, fmt.Errorf("cpu: execution of %q exceeded %d blocks", g.Name, cdfg.InterpLimit)
		}
		b := g.Blocks[cur]
		if cap(vals) < len(b.Nodes) {
			vals = make([]int32, len(b.Nodes))
		}
		vals = vals[:len(b.Nodes)]
		var branchTaken bool
		for _, n := range b.Nodes {
			switch n.Op {
			case cdfg.OpConst:
				vals[n.ID] = n.Val
				res.Cycles += int64(costs.Const)
				res.Consts++
				res.Instrs++
			case cdfg.OpSym:
				v, ok := syms[n.Sym]
				if !ok {
					return res, fmt.Errorf("cpu: block %q reads undefined symbol %q", b.Name, n.Sym)
				}
				vals[n.ID] = v // register read: no issue slot
			case cdfg.OpLoad:
				v, err := mem.Load(vals[n.Args[0]])
				if err != nil {
					return res, fmt.Errorf("cpu: block %q n%d: %w", b.Name, n.ID, err)
				}
				vals[n.ID] = v
				res.Cycles += int64(costs.Load)
				res.Loads++
				res.Instrs++
			case cdfg.OpStore:
				if err := mem.Store(vals[n.Args[0]], vals[n.Args[1]]); err != nil {
					return res, fmt.Errorf("cpu: block %q n%d: %w", b.Name, n.ID, err)
				}
				res.Cycles += int64(costs.Store)
				res.Stores++
				res.Instrs++
			case cdfg.OpBr:
				branchTaken = vals[n.Args[0]] != 0
				res.Cycles += int64(costs.Branch)
				if branchTaken {
					res.Cycles += int64(costs.BranchMiss)
				}
				res.Branches++
				res.Instrs++
			default:
				var args [3]int32
				for i, a := range n.Args {
					args[i] = vals[a]
				}
				v, ok := cdfg.EvalOp(n.Op, args[0], args[1], args[2])
				if !ok {
					return res, fmt.Errorf("cpu: block %q n%d: %w", b.Name, n.ID, cdfg.NoALUError(n.Op))
				}
				vals[n.ID] = v
				if n.Op == cdfg.OpMul || n.Op == cdfg.OpMulH {
					res.Cycles += int64(costs.Mul)
					res.Muls++
				} else {
					res.Cycles += int64(costs.ALU)
					res.ALUOps++
				}
				res.Instrs++
			}
		}
		for s, id := range b.LiveOut {
			syms[s] = vals[id]
		}
		switch {
		case b.HasBranch():
			if branchTaken {
				cur = b.Succs[0]
			} else {
				cur = b.Succs[1]
			}
		case len(b.Succs) == 1:
			cur = b.Succs[0]
		default:
			return res, nil
		}
	}
}
