package sym

import "repro/internal/obs"

// mFrontierTasks and mTaskQueueWait track the parallel work queue: its
// current depth as a gauge, which a live /metrics shows as progress, and
// a histogram of how long each frontier task waited between being split
// off and being picked up by a worker (nanoseconds, log2 buckets). A fat
// tail there means the splitter is producing unbalanced shares. Resolved
// once at package init; the counts of an exploration are its Result's.
var (
	mFrontierTasks = obs.GetGauge("sym.frontier_tasks")
	mTaskQueueWait = obs.GetHistogram("sym.task_queue_wait_ns")
)
