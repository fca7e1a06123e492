package static

import (
	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/isa"
)

// Constant/route propagation: an SCCP-style forward instance of the
// solver. The lattice value of every tile output register and RF entry
// is ⊥ (unvisited), one known constant, or ⊤ (varies); moves pass
// values through hold/route chains unchanged, ALU ops fold via
// cdfg.EvalOp, loads produce ⊤ (memory is not modeled). A branch whose
// condition folds to a constant makes the untaken arm's edge
// infeasible, which is what refines reachability past the structural
// answer.
//
// The entry boundary is deliberately ⊤ everywhere: the simulator
// zero-initializes registers, but claiming that would let the analysis
// fold programs the hardware contract does not promise to fold. ⊤ is
// sound either way.

type cKind uint8

const (
	cBot   cKind = iota // no value reaches here
	cConst              // exactly one value reaches here
	cTop                // more than one value may reach here
)

// cval is one lattice point.
type cval struct {
	k cKind
	v int32
}

func joinVal(a, b cval) (cval, bool) {
	switch {
	case b.k == cBot:
		return a, false
	case a.k == cBot:
		return b, true
	case a.k == cTop:
		return a, false
	case b.k == cTop || a.v != b.v:
		return cval{k: cTop}, true
	default:
		return a, false
	}
}

// cpState is the abstract machine state at a block boundary: one value
// per tile output register and per RF entry. The zero value (nil
// slices) is the lattice bottom. br is the abstract branch condition
// the block's transfer computed (out-states only).
type cpState struct {
	out []cval
	rf  []cval
	br  cval
}

func (s cpState) bottom() bool { return s.out == nil }

func (s cpState) clone() cpState {
	c := cpState{out: make([]cval, len(s.out)), rf: make([]cval, len(s.rf)), br: s.br}
	copy(c.out, s.out)
	copy(c.rf, s.rf)
	return c
}

// cpTop is the all-⊤ boundary state.
func cpTop(cfg *CFG) cpState {
	s := cpState{
		out: make([]cval, cfg.NumTiles),
		rf:  make([]cval, cfg.NumTiles*cfg.RRFSize),
	}
	for i := range s.out {
		s.out[i] = cval{k: cTop}
	}
	for i := range s.rf {
		s.rf[i] = cval{k: cTop}
	}
	return s
}

// readAbstract resolves one operand against the abstract state,
// mirroring the simulator's pre-cycle operand read.
func readAbstract(cfg *CFG, st *cpState, t int, src isa.Src) cval {
	switch src.Kind {
	case isa.SrcConst:
		return cval{k: cConst, v: src.Val}
	case isa.SrcReg:
		if int(src.Reg) >= cfg.RRFSize {
			return cval{k: cTop}
		}
		return st.rf[t*cfg.RRFSize+int(src.Reg)]
	case isa.SrcSelf:
		return st.out[t]
	case isa.SrcNbr:
		nb := cfg.Prog.Grid.Neighbors(arch.TileID(t))[src.Dir]
		return st.out[nb]
	default:
		return cval{k: cTop}
	}
}

// stepAbstract advances the abstract state through one block cycle:
// reads observe the pre-cycle state, results commit at cycle end,
// exactly as the lockstep array does. It returns the branch condition
// if a branch op executed this cycle.
func stepAbstract(cfg *CFG, st *cpState, bb cdfg.BBID, c int, res []cval, has []bool) (cval, bool) {
	bc := &cfg.Blocks[bb]
	br, brSeen := cval{}, false
	for t := 0; t < cfg.NumTiles; t++ {
		has[t] = false
		in := bc.Grid[t][c]
		if in == nil {
			continue
		}
		var vals [isa.MaxSrcs]cval
		for i := 0; i < in.NSrc; i++ {
			vals[i] = readAbstract(cfg, st, t, in.Srcs[i])
		}
		switch {
		case in.Kind == isa.KMove:
			res[t] = vals[0]
			has[t] = true
		case in.Op == cdfg.OpLoad:
			res[t] = cval{k: cTop}
			has[t] = true
		case in.Op == cdfg.OpStore:
			// no result
		case in.Op == cdfg.OpBr:
			br, brSeen = vals[0], true
		default:
			out := cval{k: cTop}
			allConst := true
			var args [isa.MaxSrcs]int32
			for i := 0; i < in.NSrc; i++ {
				if vals[i].k != cConst {
					allConst = false
					break
				}
				args[i] = vals[i].v
			}
			if allConst {
				if v, ok := cdfg.EvalOp(in.Op, args[0], args[1], args[2]); ok {
					out = cval{k: cConst, v: v}
				}
			}
			res[t] = out
			has[t] = true
		}
	}
	for t := 0; t < cfg.NumTiles; t++ {
		if !has[t] {
			continue
		}
		in := bc.Grid[t][c]
		st.out[t] = res[t]
		if in.WB && int(in.WReg) < cfg.RRFSize {
			st.rf[t*cfg.RRFSize+int(in.WReg)] = res[t]
		}
	}
	return br, brSeen
}

// propagateConsts runs the SCCP fixed point and returns the refined
// reachability, the per-block branch facts, and the solution itself,
// which countConstOperands replays.
func propagateConsts(cfg *CFG) ([]bool, []BranchFact, *Solution[cpState]) {
	res := make([]cval, cfg.NumTiles)
	has := make([]bool, cfg.NumTiles)
	transfer := func(bb cdfg.BBID, in cpState) cpState {
		st := in.clone()
		st.br = cval{}
		for c := 0; c < cfg.Blocks[bb].Len; c++ {
			if br, ok := stepAbstract(cfg, &st, bb, c, res, has); ok {
				// One branch op per block in verified programs; join keeps
				// the transfer monotone on unverified input.
				st.br, _ = joinVal(st.br, br)
			}
		}
		return st
	}
	sol := Solve(cfg, Problem[cpState]{
		Dir:      Forward,
		Bottom:   func() cpState { return cpState{} },
		Boundary: func() cpState { return cpTop(cfg) },
		Join: func(dst, src cpState) (cpState, bool) {
			if src.bottom() {
				return dst, false
			}
			if dst.bottom() {
				return src.clone(), true
			}
			grew := false
			for i := range dst.out {
				var g bool
				dst.out[i], g = joinVal(dst.out[i], src.out[i])
				grew = grew || g
			}
			for i := range dst.rf {
				var g bool
				dst.rf[i], g = joinVal(dst.rf[i], src.rf[i])
				grew = grew || g
			}
			return dst, grew
		},
		Transfer: transfer,
		FlowEdge: func(from, to cdfg.BBID, out cpState) (cpState, bool) {
			bc := &cfg.Blocks[from]
			if !bc.HasBranch || out.br.k != cConst {
				return out, true
			}
			target := bc.Succs[1]
			if out.br.v != 0 {
				target = bc.Succs[0]
			}
			return out, to == target
		},
	})

	facts := make([]BranchFact, len(cfg.Blocks))
	for bb := range cfg.Blocks {
		if !sol.Reached[bb] || !cfg.Blocks[bb].HasBranch {
			continue
		}
		if br := sol.Out[bb].br; br.k == cConst {
			if br.v != 0 {
				facts[bb] = BranchTaken
			} else {
				facts[bb] = BranchNotTaken
			}
		}
	}
	return sol.Reached, facts, sol
}

// countConstOperands replays each reachable block over its fixed-point
// in-state and counts register/route operand reads (not immediates)
// that resolve to a single constant.
func countConstOperands(cfg *CFG, sol *Solution[cpState]) int {
	res := make([]cval, cfg.NumTiles)
	has := make([]bool, cfg.NumTiles)
	count := 0
	for bb := range cfg.Blocks {
		if !sol.Reached[bb] || sol.In[bb].bottom() {
			continue
		}
		st := sol.In[bb].clone()
		bc := &cfg.Blocks[bb]
		for c := 0; c < bc.Len; c++ {
			for t := 0; t < cfg.NumTiles; t++ {
				in := bc.Grid[t][c]
				if in == nil {
					continue
				}
				for i := 0; i < in.NSrc; i++ {
					if in.Srcs[i].Kind == isa.SrcConst {
						continue
					}
					if readAbstract(cfg, &st, t, in.Srcs[i]).k == cConst {
						count++
					}
				}
			}
			stepAbstract(cfg, &st, cdfg.BBID(bb), c, res, has)
		}
	}
	return count
}
