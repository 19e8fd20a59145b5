package smt

import "repro/internal/obs"

// Registry handles for solver observability. Resolved once at package
// init so the per-query hot path pays only atomic adds — no map lookup,
// no allocation. Every handle is incremented at the same site as the
// corresponding per-solver Stats field, so the process-wide registry and
// the per-run aggregates cannot diverge (they are the same events,
// counted twice at the same instruction).
var (
	// mQueryLatencyNS is the per-query wall-clock histogram (log2 buckets,
	// nanoseconds). Cache hits are excluded: they never run the solver, so
	// including them would hide real solve latency under a spike at ~100ns.
	mQueryLatencyNS = obs.GetHistogram("smt.query_latency_ns")

	// Outcome counters: one per query, exactly one of sat/unsat/unknown
	// for solved queries, cache_hit for cache-answered ones.
	// budget_exhausted additionally counts the subset of unknowns cut off
	// by the per-query step/time budget.
	mQueriesSat      = obs.GetCounter("smt.queries_sat")
	mQueriesUnsat    = obs.GetCounter("smt.queries_unsat")
	mQueriesUnknown  = obs.GetCounter("smt.queries_unknown")
	mQueriesCacheHit = obs.GetCounter("smt.queries_cache_hit")
	mBudgetExhausted = obs.GetCounter("smt.queries_budget_exhausted")
	mModels          = obs.GetCounter("smt.models_extracted")

	// Verdict-cache store-side counters (the lookup side is the cache_hit
	// counter above plus cache_misses here).
	mCacheMisses = obs.GetCounter("smt.cache_misses")
	mCacheStores = obs.GetCounter("smt.cache_stores")
	mCacheReject = obs.GetCounter("smt.cache_rejects")
)
