package meissa

import (
	"cmp"
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
// is one more source and sink of the run's verdict table, and a run holds
// ONE transaction on it, from its warm start to its commit. The warm start
// begins it and, when the stored rules are not the run's, retires in it
// exactly the records the delta invalidates, testing each once: the one
// place a rule delta reaches the store. The transaction changes the
// store's one state in place, so the run's journal adopts the family's own
// table — the frames Open read, not copies, less what the delta retired —
// and the commit installs the new rules and adds what the run derived to
// the same transaction: one atomic update, nothing written before it. A
// transaction that ends without its commit makes the store read its
// committed log back. A resumed run does not warm: its commit begins the
// transaction and retires the same way. A regression from the store and an
// export take the same warm start; an export never commits.

// storeCtx is one run's connection to a verdict store: the store it
// opened, its one transaction, the resolved family fingerprint and the
// run's rules text, and the activity counters that become the run report's
// store section.
type storeCtx struct {
	st    *store.Store
	tx    *store.Tx // begun by the warm start, or by a resumed run's commit
	fam   uint64    // family fingerprint (rules excluded)
	rules string    // the run's rules, rendered once: what the stored text is checked against
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

// close aborts the run's transaction, which does nothing once it committed,
// and closes the store: every way out of a run that opened it.
func (stc *storeCtx) close() {
	if stc.tx != nil {
		stc.tx.Abort()
	}
	stc.st.Close()
}

// begin starts the run's one transaction and reads the family: its info
// (ok=false: none) and, when its stored rules are not the run's, those
// rules parsed (nil when they are the run's).
func (stc *storeCtx) begin() (info store.FamilyInfo, ok bool, old *rules.Set, err error) {
	if stc.tx, err = stc.st.Begin(); err != nil {
		return
	}
	if info, ok = stc.st.Family(stc.fam); ok && info.Rules != stc.rules {
		if old, err = rules.Parse(info.Rules); err != nil {
			err = fmt.Errorf("stored rules for family %#x unparseable: %w", stc.fam, err)
		}
	}
	return
}

// retire diffs old, the stored rules, to run and retires in the run's
// transaction exactly the records the delta invalidates, by the tag match
// a regression from a checkpoint retires by, testing each record once.
// Records whose tags the delta does not touch keep answering; there is no
// path by which a stale verdict survives, because every record carries its
// dependency tags in its frame. With no old rules the delta is empty, and
// a delta that invalidates no tag tests no record.
func (stc *storeCtx) retire(old, run *rules.Set) *rulediff.Delta {
	if old == nil {
		return &rulediff.Delta{}
	}
	d := rulediff.Diff(old, run)
	if tags := d.InvalidTags(); len(tags) > 0 {
		stc.rep.Invalidated = uint64(stc.tx.Retire(stc.fam, rulediff.Matcher(tags)))
	}
	return d
}

// warm begins the run's transaction and reads the family's baseline from
// it: the table the transaction holds its records in, after retiring what
// the delta from the stored rules to the run's invalidates, and what it
// retained. The table is the caller's to share with its journal while the
// run explores, and the commit's to change after; nil means a cold start
// (no family).
//
// A regression's baseline (reg) must be a completed run's: warm refuses a
// store with no family, one whose stored rules are not reg.old (when set),
// and one with no template list for its rules, each before it retires
// anything. Otherwise it fills reg and returns it.
func (stc *storeCtx) warm(s *System, initC []expr.Bool, reg *baseline) (*baseline, *obs.RebaseStats, error) {
	info, ok, old, err := stc.begin()
	switch {
	case err != nil || !ok && reg == nil:
		return nil, nil, err // no family: first run of this family
	case !ok:
		return nil, nil, &Refusal{stc.st.Path(), "holds no baseline for this program family", "run gen with the store first"}
	case reg == nil:
		reg = &baseline{}
	case reg.old != nil && reg.old.String() != info.Rules:
		return nil, nil, &Refusal{"OldRules", fmt.Sprintf("%d entries, hash %#x, are not the store's rules (%d entries, hash %#x): "+
			"the store holds the template list of its own rules only", reg.old.Len(), rulesHash(reg.old.String()), cmp.Or(old, s.Rules).Len(), info.RulesHash),
			"leave OldRules unset: the store supplies them"}
	case !isList(info.Templates, s.identity(initC, info.Rules)):
		return nil, nil, &Refusal{stc.st.Path(), "holds no template list for the stored rules: its last commit installed them without a completed run",
			"run a completed `meissa gen -store " + stc.st.Path() + "` on them first"}
	}
	// The family's live table, which the retirement changes in place.
	reg.list, reg.table = info.Templates, stc.tx.Table(stc.fam)
	reg.delta = stc.retire(old, s.Rules)
	stc.rep.Warmed = uint64(reg.table.Len())
	st := &obs.RebaseStats{Retained: reg.table.Len(), Invalidated: int(stc.rep.Invalidated)}
	st.Baseline = st.Retained + st.Invalidated
	return reg, st, nil
}

// commit folds the records of t into the run's transaction and commits
// it: the retirement a rule delta made (at the warm start, or here for a
// resumed run, which did not warm), the run's rules, the new records and
// the run's template list become durable together or not at all. t holds
// what the store may not hold yet: the frames the run derived, over a
// resumed checkpoint's. They go in canonical order, as they are. The
// records the run warmed from the store are not among them and count as
// duplicates unread; a frame the store holds byte for byte is a duplicate
// too, so a fully-warmed re-run commits nothing and leaves the store file
// untouched. list is the run's template list, nil when the run did not
// complete: installing new rules without one drops the family's old list,
// so a stored list is always that of the stored rules. The list is no
// record: no count includes it.
func (stc *storeCtx) commit(s *System, t *journal.Table, list []byte) error {
	if stc.tx == nil { // a resumed run, which did not warm
		_, _, old, err := stc.begin()
		if err != nil {
			return err
		}
		stc.retire(old, s.Rules)
	}
	tx := stc.tx
	// The transaction's state, which has only retired records so far: the
	// family's rules are the stored ones.
	if info, ok := stc.st.Family(stc.fam); !ok || info.Rules != stc.rules {
		tx.SetFamilyRules(stc.fam, stc.rules)
	}
	stc.rep.Duplicates = stc.rep.Warmed
	for _, e := range t.Sorted() {
		held, err := tx.Put(stc.fam, e.Frame())
		if err != nil {
			return err
		}
		if held {
			stc.rep.Duplicates++
		} else {
			stc.rep.Committed++
		}
	}
	if list != nil {
		if _, err := tx.Put(stc.fam, list); err != nil {
			return err
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
// start whose transaction it aborts, so it writes nothing to the store:
// under a stored rule set that
// differs from the system's the export holds only the records the delta
// leaves valid, and never a stale verdict. An empty or absent family
// exports a valid header-only journal.
func (s *System) StoreExport(journalPath string) (*obs.StoreReport, error) {
	initC, stc, err := s.openStoreOnly()
	if err != nil {
		return nil, err
	}
	defer stc.close()
	b, _, err := stc.warm(s, initC, nil)
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
		if err = j.Copy(e); err != nil {
			break
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
	defer stc.close()
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
