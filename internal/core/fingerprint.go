package core

import (
	"fmt"
	"strings"
)

// Fingerprint returns a deterministic rendering of every Options field that
// can influence the mapping result, after the same normalization Map
// applies (sanitize), so two option sets that the mapper cannot tell apart
// fingerprint identically. Instrumentation (Obs, ObsTID) and the unexported
// execution plumbing (ctx, arena, incumbent) are excluded: they never
// change the mapping bytes. ExactNodeBudget is resolved exactly as the
// exact backend resolves it, so 0 and DefaultExactNodeBudget share a key.
func (o Options) Fingerprint() string {
	o.sanitize()
	var b strings.Builder
	fmt.Fprintf(&b, "flow=%d;trav=%d;beam=%d;det=%g;seed=%d;cand=%d",
		o.Flow, o.Traversal, o.BeamWidth, o.DetFraction, o.Seed, o.CandidateCap)
	fmt.Fprintf(&b, ";slack=%d;maxslack=%d;hold=%d;recompute=%t;exactbudget=%d",
		o.SlackWindow, o.MaxSlack, o.MaxHold, o.Recompute, resolveExactBudget(&o))
	return b.String()
}
