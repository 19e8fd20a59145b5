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
// A regression from the store and an export take the same warm start.

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

// openStoreCtx opens Options.StorePath into a storeCtx.
func (s *System) openStoreCtx(initC []expr.Bool) (*storeCtx, error) {
	st, err := store.Open(s.Opts.StorePath, store.Options{LockWait: s.Opts.StoreWait})
	if err != nil {
		return nil, err
	}
	return &storeCtx{st: st, fam: s.identity(initC, ""), rules: s.Rules.String(), rep: obs.StoreReport{Path: st.Path()}}, nil
}

// diff parses the stored rules text and makes its delta to the run's
// rules, stc.delta: the warm start does, or the commit of a resumed run,
// which did not warm. It returns the stored rules.
func (stc *storeCtx) diff(storedText string, run *rules.Set) (*rules.Set, error) {
	old, err := rules.Parse(storedText)
	if err != nil {
		return nil, fmt.Errorf("stored rules for family %#x unparseable: %w", stc.fam, err)
	}
	stc.delta = rulediff.Diff(old, run)
	return old, nil
}

// reconcileRules applies a rule update to the store inside tx: retire
// exactly the entries the delta invalidates and install the new text —
// one atomic transaction with whatever else the caller commits. Records
// whose tags the delta does not touch keep answering; there is no path by
// which a stale verdict survives, because every record carries its
// dependency tags in its frame.
func (stc *storeCtx) reconcileRules(tx *store.Tx, storedText string, run *rules.Set) error {
	if stc.delta == nil {
		if _, err := stc.diff(storedText, run); err != nil {
			return err
		}
	}
	stc.rep.Invalidated += uint64(tx.InvalidateTags(stc.fam, stc.delta.InvalidTags()))
	tx.SetFamilyRules(stc.fam, stc.rules)
	return nil
}

// warm reads the family's baseline from one snapshot and writes nothing:
// the table the snapshot holds its records in and, when the stored rules
// are not the run's, their delta and its filter: the records it matches a
// tag of are misses for the run, and the run's commit retires them from
// the store. The table is the caller's to share with its journal and
// nobody's to change; nil means a cold start (no family).
//
// A regression's baseline (reg) must be a completed run's: warm refuses a
// store with no family, one whose stored rules are not reg.old (when set),
// and one with no template list for its rules. Otherwise it fills reg and
// returns it.
func (stc *storeCtx) warm(s *System, initC []expr.Bool, reg *baseline) (*baseline, error) {
	sn := stc.st.Snapshot()
	defer sn.Close()
	info, ok := sn.Family(stc.fam)
	if !ok && reg == nil {
		return nil, nil // no family: first run of this family
	}
	if !ok {
		return nil, &Refusal{stc.st.Path(), "holds no baseline for this program family", "run gen with the store first"}
	}
	b, stored := &baseline{table: sn.Table(stc.fam), delta: &rulediff.Delta{}}, s.Rules
	if info.Rules != stc.rules {
		var err error
		if stored, err = stc.diff(info.Rules, s.Rules); err != nil {
			return nil, err
		}
		b.delta, b.match = stc.delta, rulediff.Matcher(stc.delta.InvalidTags())
	}
	if reg == nil {
		return b, nil
	}
	if reg.old != nil && reg.old.String() != info.Rules {
		return nil, &Refusal{"OldRules", fmt.Sprintf("%d entries, hash %#x, are not the store's rules (%d entries, hash %#x): "+
			"the store holds the template list of its own rules only", reg.old.Len(), rulesHash(reg.old.String()), stored.Len(), info.RulesHash),
			"leave OldRules unset: the store supplies them"}
	}
	if !isList(b.table.Templates(), s.identity(initC, info.Rules)) {
		return nil, &Refusal{stc.st.Path(), "holds no template list for the stored rules: its last commit installed them without a completed run",
			"run a completed `meissa gen -store " + stc.st.Path() + "` on them first"}
	}
	*reg = *b
	return reg, nil
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
	info, ok := stc.st.Family(stc.fam)
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
		tx.SetFamilyRules(stc.fam, stc.rules)
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
	initC, stc, err := s.openStoreOnly()
	if err != nil {
		return nil, err
	}
	defer stc.st.Close()
	b, err := stc.warm(s, initC, nil)
	if err != nil {
		return nil, err
	}
	if b == nil {
		b = &baseline{} // no family: the export holds the header only
	}
	j, err := journal.Open(journalPath, s.identity(initC, stc.rules), false)
	if err != nil {
		return nil, err
	}
	for _, e := range b.table.Sorted() {
		if !e.DependsOn(b.match) {
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
		return nil, err
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
	initC, stc, err := s.openStoreOnly()
	if err != nil {
		return nil, err
	}
	defer stc.st.Close()
	st := &StoreStatus{
		Path:        stc.st.Path(),
		FileBytes:   stc.st.Stats().FileBytes,
		Txid:        stc.st.Txid(),
		Family:      stc.fam,
		Fingerprint: s.identity(initC, stc.rules),
	}
	sn := stc.st.Snapshot()
	defer sn.Close()
	if info, ok := sn.Family(stc.fam); ok {
		st.Present, st.RulesHash, st.Rules, st.Records = true, info.RulesHash, info.Rules, sn.RecordCount(stc.fam)
	}
	return st, nil
}

// openStoreOnly opens Options.StorePath for StoreExport and StoreStatus,
// which run no generation, with the system's assume clauses.
func (s *System) openStoreOnly() ([]expr.Bool, *storeCtx, error) {
	if err := refuse(call{opts: s.Opts, store: true}); err != nil {
		return nil, nil, err
	}
	initC, err := s.commonAssumes()
	if err != nil {
		return nil, nil, err
	}
	stc, err := s.openStoreCtx(initC)
	return initC, stc, err
}

// rulesHash is the hash the store keeps of a rules text
// (store.FamilyInfo.RulesHash), which `meissa store info` prints.
func rulesHash(text string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, text)
	return h.Sum64()
}
