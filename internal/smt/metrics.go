package smt

import "repro/internal/obs"

// mQueryLatencyNS is the per-query wall-clock histogram (log2 buckets,
// nanoseconds), resolved once at package init so the per-query hot path
// pays only atomic adds. Its count is Stats.Checks summed over the
// process's solvers. Cache hits are excluded: they never run the solver,
// so including them would hide real solve latency under a spike at
// ~100ns.
var mQueryLatencyNS = obs.GetHistogram("smt.query_latency_ns")
