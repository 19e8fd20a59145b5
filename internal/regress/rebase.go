// Package regress implements incremental regression testing: given a
// baseline run's checkpoint journal and a rule-set delta, the incremental
// run reads the journal's verdicts through a filter of the new rule set —
// missing exactly the records whose paths crossed a changed table branch
// (journal.Journal.Adopt) — so the re-exploration answers every untouched
// solver interaction from the journal and re-solves only the affected
// subtrees. Retain counts what the filter leaves.
//
// Soundness does not rest on the invalidation being precise: journal
// records are keyed by content-based path-prefix hashes (internal/sym),
// so a retained record can only ever be looked up by a walk whose
// context and path content are byte-identical to the walk that produced
// it — and verdicts are pure functions of that content. The dependency
// index therefore only has to be an over-approximation for the FILTERED
// journal to be exact; invalidating too much merely costs re-solving.
// The invalidation rule (internal/rulediff.InvalidTags) is conservative
// in exactly that direction: arg-only deltas retire the modified
// entries' branches, anything structural retires the whole table.
package regress

import (
	"fmt"

	"repro/internal/journal"
	"repro/internal/obs"
)

// Retain counts a baseline's records under the invalid filter: those none
// of whose dependency tags it matches are retained, the rest invalidated
// (invalid == nil retains every record). It changes nothing.
func Retain(t *journal.Table, invalid func(tag []byte) bool) *obs.RebaseStats {
	st := &obs.RebaseStats{Baseline: t.Len()}
	if invalid != nil {
		st.Invalidated = t.CountFunc(func(e journal.Entry) bool { return e.DependsOn(invalid) })
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
	st := &obs.RebaseStats{Baseline: base.Len()}
	for _, e := range base.Sorted() {
		if e.DependsOn(invalid) {
			st.Invalidated++
		} else if err = dst.Copy(e); err != nil {
			break
		}
	}
	st.Retained = st.Baseline - st.Invalidated
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("regress: write rebased journal: %w", err)
	}
	return st, nil
}
