package core

import "strconv"

// Fingerprint returns a deterministic rendering of every Options field that
// can influence the mapping result, after the same normalization Map
// applies (sanitize), so two option sets that the mapper cannot tell apart
// fingerprint identically. Instrumentation (Obs, ObsTID) and the unexported
// execution plumbing (ctx, arena, incumbent) are excluded: they never
// change the mapping bytes. ExactNodeBudget is resolved exactly as the
// exact backend resolves it, so 0 and DefaultExactNodeBudget share a key.
// It runs on every mapping-cache lookup, so it appends with strconv
// rather than formatting with fmt.
func (o Options) Fingerprint() string {
	o.sanitize()
	var buf [128]byte
	b := buf[:0]
	b = strconv.AppendInt(append(b, "flow="...), int64(o.Flow), 10)
	b = strconv.AppendInt(append(b, ";trav="...), int64(o.Traversal), 10)
	b = strconv.AppendInt(append(b, ";beam="...), int64(o.BeamWidth), 10)
	b = strconv.AppendFloat(append(b, ";det="...), o.DetFraction, 'g', -1, 64)
	b = strconv.AppendInt(append(b, ";seed="...), o.Seed, 10)
	b = strconv.AppendInt(append(b, ";cand="...), int64(o.CandidateCap), 10)
	b = strconv.AppendInt(append(b, ";slack="...), int64(o.SlackWindow), 10)
	b = strconv.AppendInt(append(b, ";maxslack="...), int64(o.MaxSlack), 10)
	b = strconv.AppendInt(append(b, ";hold="...), int64(o.MaxHold), 10)
	b = strconv.AppendBool(append(b, ";recompute="...), o.Recompute)
	b = strconv.AppendInt(append(b, ";exactbudget="...), int64(resolveExactBudget(&o)), 10)
	return string(b)
}
