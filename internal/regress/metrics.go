package regress

import "repro/internal/obs"

// Registry handles for incremental-regression observability, resolved
// once at package init.
var (
	// mRecordsRetained / mRecordsInvalidated count baseline journal records
	// carried over to, respectively dropped from, rebased journals.
	mRecordsRetained    = obs.GetCounter("regress.records_retained")
	mRecordsInvalidated = obs.GetCounter("regress.records_invalidated")

	// mQueriesAvoided counts solver queries the incremental run answered
	// from reuse (journal hits plus verdict-cache hits) instead of solving.
	mQueriesAvoided = obs.GetCounter("regress.queries_avoided")

	// mRuns counts completed incremental regression runs.
	mRuns = obs.GetCounter("regress.runs")
)

// RecordRun bumps the run-level counters for one completed incremental
// regression run.
func RecordRun(q *QueryReport) {
	mQueriesAvoided.Add(q.Avoided)
	mRuns.Inc()
}
