package core

import (
	"errors"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/cdfg"
)

// ErrPrunedByIncumbent marks a portfolio job abandoned because its
// admissible word lower bound proves it cannot beat the best mapping
// another job already completed. A pruned job is a provable loser under
// the portfolio's deterministic tie-break, so discarding it never changes
// the winner (see the invariance argument on incumbent.prune).
var ErrPrunedByIncumbent = errors.New("pruned by portfolio incumbent")

// WordLowerBound returns an admissible lower bound on the total context
// words of any mapping of g onto grid: for every block containing at least
// one real operation (anything but a constant or symbol read), the block
// contributes max(tiles, ops) words. Each operation occupies at least one
// instruction word (recompute duplication only adds more), and in a block
// whose schedule is non-empty every tile without an instruction still
// emits at least one pnop word (assembleSegment folds a maximal empty run
// into a single word, and segments never span blocks), so the block's
// words are at least max(tiles, ops). Blocks with no real operations can
// schedule in zero cycles and are bounded by zero.
//
// This is the portfolio-level analogue of the exact backend's per-block
// floor (blockFloor counts only the tile term); the sharper op term makes
// the pre-job skip useful on grids smaller than the op count.
func WordLowerBound(g *cdfg.Graph, grid *arch.Grid) int {
	total := 0
	for _, b := range g.Blocks {
		total += blockWordFloor(b, grid.NumTiles())
	}
	return total
}

func blockWordFloor(b *cdfg.BasicBlock, numTiles int) int {
	ops := 0
	for _, nd := range b.Nodes {
		if nd.Op != cdfg.OpConst && nd.Op != cdfg.OpSym {
			ops++
		}
	}
	if ops == 0 {
		return 0
	}
	if ops > numTiles {
		return ops
	}
	return numTiles
}

// incumbentRec is one published portfolio result: the completed job's
// total context words plus its (seed, job index) tie-break identity.
type incumbentRec struct {
	words int
	seed  int64
	job   int
}

// incumbent shares the best completed total-words result between portfolio
// jobs through a single CAS'd pointer. "Best" uses the portfolio's own
// deterministic order — fewest words, then lowest seed, then earliest job —
// so the record always names the job the final scan would prefer among
// those published so far.
type incumbent struct {
	rec atomic.Pointer[incumbentRec]
	// tiePrune allows pruning on bound equality. It is only sound without
	// a PortfolioOptions.TieBreak, whose Secondary could still win an
	// equal-words tie.
	tiePrune bool
}

// beats reports whether a precedes b in the portfolio's deterministic
// preference order.
func (a *incumbentRec) beats(b *incumbentRec) bool {
	if a.words != b.words {
		return a.words < b.words
	}
	if a.seed != b.seed {
		return a.seed < b.seed
	}
	return a.job < b.job
}

// publish records a completed job's word count, keeping the best record
// under the deterministic order. Safe for concurrent use.
func (inc *incumbent) publish(words int, seed int64, job int) {
	nr := &incumbentRec{words: words, seed: seed, job: job}
	for {
		cur := inc.rec.Load()
		if cur != nil && !nr.beats(cur) {
			return
		}
		if inc.rec.CompareAndSwap(cur, nr) {
			return
		}
	}
}

// prune reports whether a job whose final total words are provably ≥ bound
// can be abandoned, and the incumbent word count that justified it.
//
// Winner invariance: let h be the current record (a completed job). A job
// j is pruned only when (a) bound > h.words — j's final score is strictly
// worse than a completed competitor's, so j can never win; or (b) no
// TieBreak is set, bound == h.words, and j loses the
// (seed, job) tie-break to h — then even if j finished at exactly its
// bound it would lose to h in the final deterministic scan, and h itself
// either wins or loses only to a job that also beats j. Publishing only
// ever improves the record, so a prune decision made against any
// intermediate record remains valid against the final one. Hence the set
// of jobs that can be the winner is unchanged by pruning, at any
// GOMAXPROCS and any completion order; only the per-job reports (pruned
// vs. completed loser) may differ between schedules.
func (inc *incumbent) prune(bound int, seed int64, job int) (int, bool) {
	cur := inc.rec.Load()
	if cur == nil {
		return 0, false
	}
	if bound > cur.words {
		return cur.words, true
	}
	if bound == cur.words && inc.tiePrune {
		if cur.seed < seed || (cur.seed == seed && cur.job < job) {
			return cur.words, true
		}
	}
	return 0, false
}
