package store

import "repro/internal/obs"

// Registry handles for store observability, resolved once at package
// init. Commits are per-run batches, so none sits on the exploration hot
// path.
var (
	mCommits = obs.GetCounter("store.commits")
	mAborts  = obs.GetCounter("store.aborts") // discarded before their commit point

	// mCompactions counts commits that rewrote the log instead of appending
	// to it; mTailDiscarded the bytes of uncommitted tail dropped at Open.
	mCompactions   = obs.GetCounter("store.compactions")
	mTailDiscarded = obs.GetCounter("store.tail_discarded_bytes")

	// mSnapshotReads counts records served through snapshot handles;
	// mInvalidated records retired by tag invalidation.
	mSnapshotReads = obs.GetCounter("store.snapshot_reads")
	mInvalidated   = obs.GetCounter("store.invalidated")
	// mTagTests counts records tested against retired tags: every record of
	// the family an invalidation names, and at Open each record a tombstone
	// follows, once.
	mTagTests = obs.GetCounter("store.tag_tests")

	// mRecordsPut counts records written.
	mRecordsPut = obs.GetCounter("store.records_put")
)
