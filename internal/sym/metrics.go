package sym

import "repro/internal/obs"

// Registry handles for exploration observability. Resolved once at
// package init so the per-path hot path pays one atomic add per event —
// no map lookup, no allocation. Each handle is bumped at the same site as
// the corresponding Result field (countPath, countPruned, recoverPath,
// countJournalHit), so the process-wide registry and the per-run Result
// aggregates count the same events and cannot diverge.
var (
	// mPathsExplored counts completed DFS descents (leaf, stop, or prune);
	// mPathsPruned counts the subset terminated early by an Unsat prefix.
	mPathsExplored = obs.GetCounter("sym.paths_explored")
	mPathsPruned   = obs.GetCounter("sym.paths_pruned")

	// mPathsRecovered counts per-path panics arrested by recoverPath.
	mPathsRecovered = obs.GetCounter("sym.paths_recovered")

	// mJournalHits counts solver interactions answered from a resume
	// journal instead of a live solve.
	mJournalHits = obs.GetCounter("sym.journal_hits")

	// mFrontierTasks tracks the parallel work queue: current depth as a
	// gauge, plus a histogram of how long each frontier task waited
	// between being split off and being picked up by a worker
	// (nanoseconds, log2 buckets). A fat tail here means the splitter is
	// producing unbalanced shares.
	mFrontierTasks  = obs.GetGauge("sym.frontier_tasks")
	mTaskQueueWait  = obs.GetHistogram("sym.task_queue_wait_ns")
	mWorkersStarted = obs.GetCounter("sym.workers_started")
)
