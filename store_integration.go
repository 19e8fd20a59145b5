package meissa

import (
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/expr"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/rulediff"
	"repro/internal/rules"
	"repro/internal/store"
)

// This file wires the disk-backed verdict store (internal/store) into
// generation and regression. The store outlives any single run: records
// are keyed by a *family* fingerprint that deliberately excludes the
// rule set, so a rule update does not orphan the family — instead the
// stored rules are diffed against the run's rules, once per run. The store
// is one more source and sink of the run's verdict table. A warm start
// writes nothing: it shares the family's table of a snapshot with the
// run's journal — the frames Open read, not a copy — and, when the stored
// rules are not the run's, the delta's filter, under which a record the
// delta invalidates is a miss. The run's one commit is the one place a
// rule delta reaches the store: it retires exactly the invalidated
// entries, by the tag match the warm start filtered by, installs the new
// rules and adds what the run derived, in one atomic transaction.
// RegressStore and an export take the same warm start.

// familyFingerprint digests everything that scopes a store family —
// the program, the generation-scoping assume clauses, and the
// verdict-affecting options — but NOT the rule set. Rules are stored
// alongside the family and reconciled by delta, which is what lets
// verdicts survive rule churn instead of being keyed away by it.
func (s *System) familyFingerprint(initC []expr.Bool) uint64 {
	return s.identity(initC, "")
}

// storeCtx is one run's connection to a verdict store: the store it
// opened, the resolved family fingerprint and the run's rules text, and
// the activity counters that become the run report's store section.
type storeCtx struct {
	st    *store.Store
	fam   uint64 // family fingerprint (rules excluded)
	rules string // the run's rules, rendered once: what the stored text is checked against
	// delta is the stored rules' diff to the run's, made by whichever of
	// warm and commit meets a stored rule set that is not the run's first.
	delta *rulediff.Delta
	rep   obs.StoreReport
}

// openStoreCtx opens Options.StorePath into a storeCtx, or returns nil
// when it is not set.
func (s *System) openStoreCtx(initC []expr.Bool) (*storeCtx, error) {
	if s.Opts.StorePath == "" {
		return nil, nil
	}
	st, err := store.Open(s.Opts.StorePath, store.Options{LockWait: s.Opts.StoreWait})
	if err != nil {
		return nil, fmt.Errorf("meissa: store: %w", err)
	}
	return &storeCtx{st: st, fam: s.familyFingerprint(initC), rules: s.Rules.String(), rep: obs.StoreReport{Path: st.Path()}}, nil
}

// release closes the store.
func (stc *storeCtx) release() { stc.st.Close() }

// invalidTags returns the tags the stored rules' delta to the run's
// invalidates, diffing the two on the first call.
func (stc *storeCtx) invalidTags(storedText string, run *rules.Set) ([]string, error) {
	if stc.delta == nil {
		old, err := rules.Parse(storedText)
		if err != nil {
			return nil, fmt.Errorf("stored rules for family %#x unparseable: %w", stc.fam, err)
		}
		stc.delta = rulediff.Diff(old, run)
	}
	return stc.delta.InvalidTags(), nil
}

// reconcileRules applies a rule update to the store inside tx: retire
// exactly the entries the delta invalidates and install the new text —
// one atomic transaction with whatever else the caller commits. Records
// whose tags the delta does not touch keep answering; there is no path by
// which a stale verdict survives, because every record carries its
// dependency tags in its frame.
func (stc *storeCtx) reconcileRules(tx *store.Tx, storedText string, run *rules.Set) error {
	invalid, err := stc.invalidTags(storedText, run)
	if err != nil {
		return err
	}
	n, err := tx.InvalidateTags(stc.fam, invalid)
	if err != nil {
		return err
	}
	stc.rep.Invalidated += uint64(n)
	return tx.SetFamilyRules(stc.fam, stc.rules)
}

// warm takes the family's records from one snapshot, as the table the
// snapshot holds them in, and writes nothing. When the stored rules are not
// the run's it returns the filter of their delta's tags too: the records it
// matches a tag of are misses for the run, and the run's commit retires
// them from the store. The table is the caller's to share with its journal
// and nobody's to change; nil means a cold start (no family).
func (stc *storeCtx) warm(s *System) (*journal.Table, func(tag []byte) bool, error) {
	sn := stc.st.Snapshot()
	defer sn.Close()
	info, ok, err := sn.Family(stc.fam)
	if err != nil || !ok {
		return nil, nil, err // no family: first run of this family
	}
	if info.Rules == stc.rules {
		return sn.Table(stc.fam), nil, nil
	}
	invalid, err := stc.invalidTags(info.Rules, s.Rules)
	return sn.Table(stc.fam), rulediff.Matcher(invalid), err
}

// commit folds the records of t into the store as ONE transaction:
// rule-set reconciliation (when the stored rules differ — a rule update,
// or a resumed checkpoint), new records and the run's template list become
// durable together or not at all. t holds what the store may not hold yet:
// the frames the run derived, over a resumed checkpoint's. They go in
// canonical order, as they are. The records the run warmed from the store
// are not among them and count as duplicates unread; a frame the store
// holds byte for byte is a duplicate too, so a fully-warmed re-run commits
// nothing and leaves the store file untouched. list is the run's template
// list, nil when the run did not complete: installing new rules without one
// drops the family's old list, so a stored list is always that of the
// stored rules. The list is no record: no count includes it.
func (stc *storeCtx) commit(s *System, t *journal.Table, list []byte) error {
	info, ok, err := stc.st.Family(stc.fam)
	if err != nil {
		return err
	}
	tx, err := stc.st.Begin()
	if err != nil {
		return err
	}
	fail := func(err error) error { tx.Abort(); return err }
	switch {
	case ok && info.Rules != stc.rules:
		// Retire the delta's entries before the new records land.
		err = stc.reconcileRules(tx, info.Rules, s.Rules)
	case !ok:
		err = tx.SetFamilyRules(stc.fam, stc.rules)
	}
	if err != nil {
		return fail(err)
	}
	stc.rep.Duplicates = stc.rep.Warmed
	for _, e := range t.Sorted() {
		held, err := tx.Put(stc.fam, e.Frame())
		if err != nil {
			return fail(err)
		}
		if held {
			stc.rep.Duplicates++
		} else {
			stc.rep.Committed++
		}
	}
	if list != nil {
		if _, err := tx.Put(stc.fam, list); err != nil {
			return fail(err)
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	if stc.rep.Invalidated > 0 {
		obs.Progressf("meissa: store: rule delta retired %d stored entries", stc.rep.Invalidated)
	}
	obs.Progressf("meissa: store: committed %d records (%d duplicates skipped)", stc.rep.Committed, stc.rep.Duplicates)
	return nil
}

// report finalizes the run-report store section with the engine's
// activity since the run opened the store.
func (stc *storeCtx) report() *obs.StoreReport {
	now := stc.st.Stats()
	r := stc.rep
	r.Commits, r.TailDiscarded, r.SnapshotReads, r.TagTests, r.FileBytes = now.Commits, now.TailDiscarded, now.SnapshotReads, now.TagTests, now.FileBytes
	return &r
}

// StoreExport materializes the system family's stored verdicts as a
// checkpoint journal at journalPath (store→journal migration; the file
// resumes a `gen -checkpoint journalPath -resume` run) through a warm
// start, so it writes nothing to the store: under a stored rule set that
// differs from the system's the export holds only the records the delta
// leaves valid, and never a stale verdict. An empty or absent family
// exports a valid header-only journal.
func (s *System) StoreExport(journalPath string) (*obs.StoreReport, error) {
	initC, err := s.commonAssumes()
	if err != nil {
		return nil, err
	}
	stc, err := s.openStoreCtx(initC)
	if err != nil {
		return nil, err
	}
	if stc == nil {
		return nil, fmt.Errorf("meissa: export: no StorePath configured")
	}
	defer stc.release()
	t, match, err := stc.warm(s)
	if err != nil {
		return nil, fmt.Errorf("meissa: export: %w", err)
	}
	j, err := journal.Open(journalPath, s.identity(initC, stc.rules), false)
	if err != nil {
		return nil, fmt.Errorf("meissa: export: %w", err)
	}
	for _, e := range t.Sorted() {
		if !e.DependsOn(match) {
			if err = j.Copy(e); err != nil {
				break
			}
			stc.rep.Warmed++
		}
	}
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("meissa: export: %w", err)
	}
	return stc.report(), nil
}

// StoreStatus describes what a verdict store holds for this system's
// family (the `meissa store info` view).
type StoreStatus struct {
	Path        string
	FileBytes   uint64
	Txid        uint64
	Family      uint64 // family fingerprint (rules excluded)
	Fingerprint uint64 // full journal fingerprint (rules included)
	Present     bool   // the family exists in the store
	RulesHash   uint64
	Rules       string
	Records     int
}

// StoreStatus opens the system's store and reports the family's state.
func (s *System) StoreStatus() (*StoreStatus, error) {
	initC, err := s.commonAssumes()
	if err != nil {
		return nil, err
	}
	stc, err := s.openStoreCtx(initC)
	if err != nil {
		return nil, err
	}
	if stc == nil {
		return nil, fmt.Errorf("meissa: store info: no StorePath configured")
	}
	defer stc.release()
	st := &StoreStatus{
		Path:        stc.st.Path(),
		FileBytes:   stc.st.Stats().FileBytes,
		Txid:        stc.st.Txid(),
		Family:      stc.fam,
		Fingerprint: s.identity(initC, stc.rules),
	}
	sn := stc.st.Snapshot()
	defer sn.Close()
	info, ok, err := sn.Family(stc.fam)
	if err != nil {
		return nil, err
	}
	if !ok {
		return st, nil
	}
	st.Present, st.RulesHash, st.Rules = true, info.RulesHash, info.Rules
	if st.Records, err = sn.RecordCount(stc.fam); err != nil {
		return nil, err
	}
	return st, nil
}

// rulesHash is the hash the store keeps of a rules text
// (store.FamilyInfo.RulesHash), which `meissa store info` prints.
func rulesHash(text string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, text)
	return h.Sum64()
}

// RegressStore runs rule-diff-driven incremental regression testing
// against a durable verdict store instead of an explicit baseline journal:
// the stored rule set is the old rules, and the template list the family
// holds — that of the last completed run under those rules — is the
// baseline's templates. The incremental generation is an ordinary
// store-backed one over the store opened here — a warm start that adopts
// the family's records under the delta's filter, exploration, and one
// commit that retires the invalidated records, adds what it derived and
// installs its template list — so invalidation and new rules never land separately: a
// crash anywhere leaves the store serving either the old baseline or the
// new one, never a half-updated mix. A store whose family holds no list —
// its last commit installed rules without one, as a halted run does — is
// refused with the way out: a completed `meissa gen -store` on the stored
// rules. in.Baseline is not read. in.OldRules is optional: when set, it
// must be the stored rules, whose list is the only one the store holds.
// in.Opts must carry StorePath. Checkpoint is optional too: unset, the run
// keeps its verdicts in memory.
func RegressStore(in RegressInput) (*RegressResult, error) {
	if in.Opts.StorePath == "" {
		return nil, fmt.Errorf("meissa: regress-store: no StorePath configured")
	}
	sys, err := New(in.Prog, in.NewRules, in.Specs, in.Opts)
	if err != nil {
		return nil, err
	}
	initC, err := sys.commonAssumes()
	if err != nil {
		return nil, err
	}
	stc, err := sys.openStoreCtx(initC)
	if err != nil {
		return nil, err
	}
	defer stc.release()

	info, ok, err := stc.st.Family(stc.fam)
	if err != nil {
		return nil, fmt.Errorf("meissa: regress-store: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("meissa: regress-store: store has no baseline for this program family (run gen with the store first)")
	}
	stored, err := rules.Parse(info.Rules)
	if err != nil {
		return nil, fmt.Errorf("meissa: regress-store: stored rules: %w", err)
	}
	if in.OldRules != nil && in.OldRules.String() != info.Rules {
		return nil, fmt.Errorf("meissa: regress-store: OldRules (%d entries, hash %#x) are not the store's rules (%d entries, hash %#x): "+
			"the store holds the template list of its own rules only", in.OldRules.Len(), rulesHash(in.OldRules.String()), stored.Len(), info.RulesHash)
	}
	in.OldRules = stored
	// The incremental generation uses the context opened here as its own
	// StorePath.
	in.Opts.StorePath = ""
	return regressFrom(in, stc, func(fp uint64) (*journal.Table, journal.Entry, error) {
		sn := stc.st.Snapshot()
		defer sn.Close()
		l := sn.Templates(stc.fam)
		if !isList(l, fp) {
			return nil, l, fmt.Errorf("the store holds no template list for its rules: its last commit installed them "+
				"without a completed run (run a completed `meissa gen -store %s` on them first)", stc.st.Path())
		}
		return nil, l, nil
	})
}
