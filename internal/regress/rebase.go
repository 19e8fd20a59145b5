// Package regress implements incremental regression testing: given a
// baseline run's verdict table and a rule-set delta, Retain retires from
// the table, in place and once, exactly the records whose paths crossed a
// changed table branch; the incremental run adopts what is left as it is
// (journal.Journal.Adopt), so the re-exploration answers every untouched
// solver interaction from it and re-solves only the affected subtrees. A
// store baseline is retired the same way, by the tag match of
// internal/rulediff, inside the run's store transaction.
//
// Soundness does not rest on the invalidation being precise: journal
// records are keyed by content-based path-prefix hashes (internal/sym),
// so a retained record can only ever be looked up by a walk whose
// context and path content are byte-identical to the walk that produced
// it — and verdicts are pure functions of that content. The dependency
// index therefore only has to be an over-approximation for the RETIRED
// table to be exact; invalidating too much merely costs re-solving.
// The invalidation rule (internal/rulediff.InvalidTags) is conservative
// in exactly that direction: arg-only deltas retire the modified
// entries' branches, anything structural retires the whole table.
package regress

import (
	"fmt"

	"repro/internal/journal"
	"repro/internal/obs"
)

// Retain retires from t, in place, the records one of whose dependency
// tags invalid matches, testing each record once, and counts what it kept
// and what it retired (invalid == nil retires none). t's template list
// stays. No exploration may be reading t (journal.Table).
func Retain(t *journal.Table, invalid func(tag []byte) bool) *obs.RebaseStats {
	st := &obs.RebaseStats{Baseline: t.Len()}
	if invalid != nil {
		st.Invalidated = t.DeleteFunc(func(e journal.Entry) bool { return e.DependsOn(invalid) })
	}
	st.Retained = st.Baseline - st.Invalidated
	return st
}

// Rebase writes the baseline journal at srcPath, read under srcFP and
// left untouched, to a fresh journal at dstPath holding the records
// Retain retains, in canonical order, each the frame the baseline holds it
// in. The destination is created with dstFP — the incremental run's
// fingerprint under the NEW rule set — so resuming from it cross-checks
// exactly like any other checkpoint.
func Rebase(srcPath, dstPath string, srcFP, dstFP uint64, invalid func(tag []byte) bool) (*obs.RebaseStats, error) {
	if srcPath == dstPath {
		return nil, fmt.Errorf("regress: rebase source and destination are the same file %q", srcPath)
	}
	base, err := journal.ReadTable(srcPath, srcFP)
	if err != nil {
		return nil, fmt.Errorf("regress: open baseline: %w", err)
	}
	dst, err := journal.Open(dstPath, dstFP, false)
	if err != nil {
		return nil, fmt.Errorf("regress: create rebased journal: %w", err)
	}
	st := Retain(base, invalid)
	for _, e := range base.Sorted() {
		if err = dst.Copy(e); err != nil {
			break
		}
	}
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("regress: write rebased journal: %w", err)
	}
	return st, nil
}
