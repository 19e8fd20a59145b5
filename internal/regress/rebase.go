// Package regress implements incremental regression testing: given a
// baseline run's checkpoint journal and a rule-set delta, it rebases the
// journal's verdicts onto the new rule set — retiring exactly the records whose
// paths crossed a changed table branch — so the re-exploration answers
// every untouched solver interaction from the journal and re-solves only
// the affected subtrees.
//
// Soundness does not rest on the invalidation being precise: journal
// records are keyed by content-based path-prefix hashes (internal/sym),
// so a retained record can only ever be looked up by a walk whose
// context and path content are byte-identical to the walk that produced
// it — and verdicts are pure functions of that content. The dependency
// index therefore only has to be an over-approximation for the REBASED
// journal to be exact; invalidating too much merely costs re-solving.
// The invalidation rule (internal/rulediff.InvalidTags) is conservative
// in exactly that direction: arg-only deltas retire the modified
// entries' branches, anything structural retires the whole table.
package regress

import (
	"fmt"

	"repro/internal/journal"
)

// RebaseStats accounts for one journal rebase.
type RebaseStats struct {
	// Baseline is the number of verdict records in the source journal
	// (deduplicated).
	Baseline int `json:"baseline_records"`
	// Retained records were copied to the destination journal: their
	// dependency tags avoid every invalidated branch, so the incremental
	// run answers them without re-solving.
	Retained int `json:"retained"`
	// Invalidated records crossed a changed table branch and were dropped.
	Invalidated int `json:"invalidated"`
}

// Retain is the rebase filter: of a baseline's records it keeps every
// record none of whose dependency tags the invalid filter matches
// (invalid == nil retains every record). It keeps no template list: the
// baseline's is its own run's, not the run the kept records start. The
// kept table shares t's frames and leaves t as it was.
func Retain(t *journal.Table, invalid func(tag []byte) bool) (*journal.Table, *RebaseStats) {
	st := &RebaseStats{Baseline: t.Len()}
	kept := t.Clone()
	kept.DropTemplates()
	if invalid != nil {
		st.Invalidated = kept.DeleteFunc(func(e journal.Entry) bool { return e.DependsOn(invalid) })
	}
	st.Retained = kept.Len()
	return kept, st
}

// Rebase is Retain from file to file: the baseline journal at srcPath,
// read under srcFP and left untouched, becomes a fresh journal at dstPath
// holding the retained records in canonical order. The destination is
// created with dstFP — the incremental run's fingerprint under the NEW
// rule set — so resuming from it cross-checks exactly like any other
// checkpoint.
func Rebase(srcPath, dstPath string, srcFP, dstFP uint64, invalid func(tag []byte) bool) (*RebaseStats, error) {
	if srcPath == dstPath {
		return nil, fmt.Errorf("regress: rebase source and destination are the same file %q", srcPath)
	}
	base, err := journal.ReadTable(srcPath, srcFP)
	if err != nil {
		return nil, fmt.Errorf("regress: open baseline: %w", err)
	}
	kept, st := Retain(base, invalid)
	dst, err := journal.Open(dstPath, dstFP, false)
	if err != nil {
		return nil, fmt.Errorf("regress: create rebased journal: %w", err)
	}
	err = dst.Adopt(kept)
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("regress: write rebased journal: %w", err)
	}
	return st, nil
}
