package core

import (
	"repro/internal/obs"
)

// recordMapStats publishes one Map call's Stats and arena high-water marks
// to the recorder's registry. It runs once per Map call (deferred, so
// failed mappings report too) and only when a recorder is attached — the
// hot path itself touches plain Stats ints, never the registry.
func recordMapStats(r *obs.Recorder, st *Stats, ar *mapperArena) {
	r.Counter("core.map.calls").Inc()
	r.Counter("core.map.partials").Add(int64(st.Partials))
	r.Counter("core.map.retries").Add(int64(st.Retries))
	r.Counter("core.map.recomputes").Add(int64(st.Recomputes))
	r.Counter("core.prune.acmap").Add(int64(st.PrunedACMAP))
	r.Counter("core.prune.ecmap").Add(int64(st.PrunedECMAP))
	r.Counter("core.prune.stochastic").Add(int64(st.PrunedStochastic))
	r.Counter("core.phase.schedule_us").Add(st.Phases.Schedule.Microseconds())
	r.Counter("core.phase.route_us").Add(st.Phases.Route.Microseconds())
	r.Counter("core.phase.bind_us").Add(st.Phases.Bind.Microseconds())
	r.Counter("core.phase.prune_us").Add(st.Phases.Prune.Microseconds())
	r.Counter("core.phase.finalize_us").Add(st.Phases.Finalize.Microseconds())
	r.Histogram("core.map.us").Observe(st.CompileTime.Microseconds())
	// Arena gauges are last-writer-wins snapshots of the scratch state's
	// high-water marks — chunk capacities only grow, so across a portfolio
	// the gauges converge on the largest arena.
	r.Gauge("core.arena.partials_free").Set(int64(len(ar.free)))
	r.Gauge("core.arena.plan_chunk_cap").Set(int64(cap(ar.plans.buf)))
	r.Gauge("core.arena.move_chunk_cap").Set(int64(cap(ar.moves.buf)))
	r.Gauge("core.arena.read_chunk_cap").Set(int64(cap(ar.reads.buf)))
	r.Gauge("core.arena.path_cache_size").Set(int64(len(ar.pathCache)))
}

// recordExactStats publishes one exact-backend search's counters. Like
// recordMapStats it runs once per Map call, only with a recorder attached.
func recordExactStats(r *obs.Recorder, st *ExactStats) {
	r.Counter("core.exact.expanded").Add(int64(st.Expanded))
	r.Counter("core.exact.leaves").Add(int64(st.Leaves))
	r.Counter("core.exact.pruned_bound").Add(int64(st.BoundPruned))
	r.Counter("core.exact.pruned_conflict").Add(int64(st.ConflictPruned))
	r.Counter("core.exact.pruned_mem").Add(int64(st.MemPruned))
	r.Counter("core.exact.rejected_dataflow").Add(int64(st.DataflowRejected))
	r.Counter("core.exact.improved").Add(int64(st.Improved))
	if st.Proven {
		r.Counter("core.exact.proven").Inc()
	}
}
