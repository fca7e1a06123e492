package sim

import (
	"math/bits"

	"repro/internal/cdfg"
)

// Uniformity analysis: which state rows a lane group holds with one
// value across its lanes.
//
// Every lane starts with the same zeroed state, and the lanes of a group
// share their whole control history (groups split at branches and never
// re-merge), so a value computed only from constants and such values is
// the same in every lane of the group. Only a loaded word can differ
// between lanes. The analysis is a forward dataflow over the CFG with one
// bit per register-file and output-register row: a row is varying when it
// may hold a load-derived value on some path into the point, uniform
// otherwise. Constants are uniform and a load's result is varying; an
// ALU op or move is varying iff one of its operands is; the commit passes
// an op's kind to its output register and writeback register; at a join
// varying wins. It iterates to a fixpoint, then records per op whether
// its result (a branch's condition, a load's or store's address) is
// uniform, which of its operands are uniform rows that a per-lane
// evaluation must first broadcast, and per CFG edge the rows uniform at
// the predecessor's exit but varying at the successor's entry.

// Op kind bits (lblock.kind).
const (
	// kUni marks a uniform op: an ALU op's or move's result, a load's or
	// store's address, or a branch's condition holds one value per group.
	kUni uint8 = 1 << iota
	// kVal marks a store whose value is uniform.
	kVal
	// kFill<<i marks operand i as a uniform row other than a constant:
	// evaluating the op lane by lane first broadcasts the group's scalar
	// into that row's lanes (constant rows hold every lane already).
	kFill
)

// rowSet is a set of the register-file and output-register rows, one bit
// per row: the rows that may hold a varying value. Other rows (the
// constants) are never in it.
type rowSet []uint64

func (s rowSet) has(row int32) bool {
	w := int(row >> 6)
	return w < len(s) && s[w]>>(row&63)&1 != 0
}

func (s rowSet) put(row int32, vary bool) {
	if vary {
		s[row>>6] |= 1 << (row & 63)
	} else {
		s[row>>6] &^= 1 << (row & 63)
	}
}

// next returns the successors an execution of the block can reach: both
// of a branch, the one of a jump, none at the exit or at a fault.
func (lb *lblock) next() []cdfg.BBID {
	switch {
	case lb.fault != nil:
		return nil
	case lb.hasBranch:
		return lb.succs[:2]
	case len(lb.succs) == 1:
		return lb.succs
	}
	return nil
}

// uniformity runs the analysis over the lowered blocks from the entry
// block and records its results on them (see lblock.kind, cycOps.uaddr,
// lblock.brUni and edge). It walks a block again whenever its entry
// state grows, recording as it walks, so each block's last walk starts
// from the fixpoint. Blocks no execution reaches keep every op varying.
func (low *lowered) uniformity(entry cdfg.BBID) {
	nw := (low.noutRow() + 63) / 64
	nb := len(low.blocks)
	words := make([]uint64, 2*nb*nw)
	in, exit := make([]rowSet, nb), make([]rowSet, nb)
	for b := range in {
		in[b] = words[2*b*nw : (2*b+1)*nw]
		exit[b] = words[(2*b+1)*nw : (2*b+2)*nw]
	}
	reached, dirty := make([]bool, nb), make([]bool, nb)
	reached[entry], dirty[entry] = true, true
	vout := make([]bool, low.numTiles)
	for again := true; again; {
		again = false
		for b := range low.blocks {
			if !dirty[b] {
				continue
			}
			dirty[b] = false
			lb := &low.blocks[b]
			x := exit[b]
			copy(x, in[b])
			low.flow(lb, x, vout)
			for _, s := range lb.next() {
				grew := !reached[s]
				reached[s] = true
				for i, w := range x {
					if in[s][i]|w != in[s][i] {
						in[s][i] |= w
						grew = true
					}
				}
				if grew {
					dirty[s] = true
					again = again || s <= cdfg.BBID(b)
				}
			}
		}
	}
	for b := range low.blocks {
		lb := &low.blocks[b]
		for e, s := range lb.next() {
			for i, w := range in[s] {
				for d := w &^ exit[b][i]; d != 0; d &= d - 1 {
					lb.edge[e] = append(lb.edge[e], int32(i*64+bits.TrailingZeros64(d)))
				}
			}
		}
	}
}

// flow walks block lb's lowered cycles over vary, the rows varying at
// the block's entry, leaving the rows varying at its exit, and records
// each op's kind bits, each cycle's address uniformity and the block's
// branch kind. vout is working space, one entry per tile.
func (low *lowered) flow(lb *lblock, vary rowSet, vout []bool) {
	out, nout := int32(low.outRow()), int32(low.noutRow())
	// fills returns op oi's kFill bits over its first n operands, and
	// whether those operands are all uniform.
	fills := func(oi, n int) (k uint8, uni bool) {
		uni = true
		for i := 0; i < n; i++ {
			row := lb.src[i][oi]
			switch {
			case vary.has(row):
				uni = false
			case row < nout:
				k |= kFill << i
			}
		}
		return k, uni
	}
	lb.brUni = true
	for c := 0; c+1 < len(lb.cyc); c++ {
		cy := &lb.cyc[c]
		alu, ld, st, br, end := int(cy.alu), int(cy.ld), int(cy.st), int(cy.br), int(lb.cyc[c+1].alu)
		for oi := alu; oi < ld; oi++ {
			k, uni := fills(oi, len(lb.src))
			vout[lb.tile[oi]] = !uni
			if uni {
				k = kUni
			}
			lb.kind[oi] = k
		}
		cy.uaddr = true
		for oi := ld; oi < br; oi++ {
			n := 1
			if oi >= st {
				n = 2 // a store reads its value too
			}
			k, _ := fills(oi, n)
			if !vary.has(lb.src[0][oi]) {
				k |= kUni
			} else {
				cy.uaddr = false
			}
			if n == 2 && !vary.has(lb.src[1][oi]) {
				k |= kVal
			}
			if oi < st {
				vout[lb.tile[oi]] = true
			}
			lb.kind[oi] = k
		}
		for oi := br; oi < end; oi++ {
			lb.brUni = !vary.has(lb.src[0][oi])
			lb.kind[oi] = 0
			if lb.brUni {
				lb.kind[oi] = kUni
			}
		}
		for oi := alu; oi < st; oi++ {
			t := lb.tile[oi]
			vary.put(out+t, vout[t])
			if w := lb.wb[oi]; w >= 0 {
				vary.put(w, vout[t])
			}
		}
	}
}
