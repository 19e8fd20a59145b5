package journal

import "repro/internal/obs"

// Registry handles for journal observability, resolved once at package
// init. Appends happen on the exploration hot path (one per solver
// verdict when checkpointing is on), so the handles must stay pure
// atomic adds.
var (
	// mRecordsAppended counts records durably written this process;
	// mAppendErrors counts failed writes (after which the caller disables
	// further journaling).
	mRecordsAppended = obs.GetCounter("journal.records_appended")
	mAppendErrors    = obs.GetCounter("journal.append_errors")

	// mRecordsLoaded counts records put into journals' tables: recovered at
	// Open on a resume, shared or adopted.
	mRecordsLoaded = obs.GetCounter("journal.records_loaded")
)
