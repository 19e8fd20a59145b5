package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/rules"
)

// The recovery harness: a scripted workload — verdict batches, a
// transactional rule-delta invalidation, more batches, then overwrite and
// invalidate churn until a commit compacts the log — is first run clean
// to count its write points (WriteAt, Sync — a directory's too —
// Truncate, Rename) and record the store state at every transaction
// boundary; then it is re-run once per write point with an injected crash
// at that point (plain and torn variants). Each crashed store is reopened
// on the real filesystem and must read back EXACTLY one of the recorded
// boundary states: the last committed one, or — when the crash landed
// after the commit marker (or the compaction's rename) reached the file
// but before Commit returned — the next one. Anything else (a lost
// committed verdict, a visible uncommitted verdict, or a half-invalidated
// rule update serving stale verdicts) fails the equality. Every recovered
// store must also accept and serve a fresh commit.

const recFam = 0xabcd

func recRecord(key uint64, verdict journal.Verdict, tags ...string) journal.Record {
	return journal.Record{
		Kind: journal.KindEmit, Key: key, Verdict: verdict,
		Model: []journal.VarVal{{Var: "pkt.dst", Val: key * 3}},
		Tags:  tagsOf(tags...),
	}
}

// workloadTxns is the scripted transaction sequence. The first commits a
// template list with its rules. Transaction 2 is the atomic rule update:
// invalidate every acl-dependent verdict and install the new rules in one
// commit, which drops the list — so much of so small a store that the
// commit compacts it. The transactions after the fourth are churn on
// a larger population: a second rule update small enough to be appended,
// with a list of its own (its tombstone is replayed by every later reopen), overwrites until the
// log holds more dead bytes than live ones and a commit rewrites it, and
// one more append to the rewritten log. tombstoneTxn is that second rule
// update, for the sweep's own sanity checks.
const tombstoneTxn = 6

func workloadTxns() []func(tx *Tx) error {
	aclTag := rules.DepTag("acl", &rules.Entry{Action: "allow"})
	denyTag := rules.DepTag("acl", &rules.Entry{Action: "deny"})
	natTag := rules.DepTag("nat", &rules.Entry{Action: "snat"})
	churn := func(verdict journal.Verdict) func(tx *Tx) error {
		return func(tx *Tx) error {
			for i := uint64(100); i < 140; i++ {
				if err := putRecord(tx, recFam, recRecord(i, verdict, natTag, rules.MissTag("fwd"))); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return []func(tx *Tx) error{
		func(tx *Tx) error {
			for i := uint64(1); i <= 8; i++ {
				tag := aclTag
				if i%2 == 0 {
					tag = rules.MissTag("fwd")
				}
				if err := putRecord(tx, recFam, recRecord(i, journal.Unsat, tag)); err != nil {
					return err
				}
			}
			tx.SetFamilyRules(recFam, "rules-v1: acl{allow} fwd{}")
			return putList(tx, recFam, 1, 1, 3, 5)
		},
		func(tx *Tx) error {
			for i := uint64(9); i <= 16; i++ {
				if err := putRecord(tx, recFam, recRecord(i, journal.Sat, aclTag, rules.MissTag("fwd"))); err != nil {
					return err
				}
			}
			return nil
		},
		func(tx *Tx) error {
			tx.InvalidateTags(recFam, []string{"acl"})
			tx.SetFamilyRules(recFam, "rules-v2: acl{deny} fwd{}")
			return nil
		},
		func(tx *Tx) error {
			for i := uint64(20); i <= 24; i++ {
				if err := putRecord(tx, recFam, recRecord(i, journal.Unknown, denyTag)); err != nil {
					return err
				}
			}
			return nil
		},
		churn(journal.Sat),
		func(tx *Tx) error {
			tx.InvalidateTags(recFam, []string{denyTag})
			if err := putRecord(tx, recFam, recRecord(20, journal.Sat, rules.MissTag("acl"))); err != nil {
				return err
			}
			tx.SetFamilyRules(recFam, "rules-v3: acl{} fwd{} nat{snat}")
			return putList(tx, recFam, 3, 20, 141)
		},
		churn(journal.Unsat),
		churn(journal.Unknown),
		func(tx *Tx) error {
			return putRecord(tx, recFam, recRecord(141, journal.Sat, natTag))
		},
	}
}

// runWorkload executes the script against path through fs, returning how
// many commits succeeded. capture, when set, is called with the open
// store after each successful commit.
func runWorkload(path string, fs FS, capture func(int, *Store)) (int, error) {
	s, err := Open(path, Options{FS: fs})
	if err != nil {
		return 0, err
	}
	defer s.Close()
	commits := 0
	for _, fn := range workloadTxns() {
		tx, err := s.Begin()
		if err != nil {
			return commits, err
		}
		if err := fn(tx); err != nil {
			tx.Abort()
			return commits, err
		}
		if err := tx.Commit(); err != nil {
			return commits, err
		}
		commits++
		if capture != nil {
			capture(commits, s)
		}
	}
	return commits, nil
}

// stateString canonically serializes everything a reader can observe:
// records, rules and the template list. Two equal strings mean byte-identical reads.
func stateString(t *testing.T, s *Store) string { return storeState(t, s, recFam) }

// storeState is stateString for any family.
func storeState(t *testing.T, s *Store, fam uint64) string {
	t.Helper()
	var b strings.Builder
	sn := s.Snapshot()
	defer sn.Close()
	err := sn.Records(fam, func(r journal.Record) bool {
		fmt.Fprintf(&b, "R %d %d %d %v %v\n", r.Kind, r.Key, r.Verdict, r.Model, r.Tags)
		return true
	})
	if err != nil {
		t.Fatalf("stateString records: %v", err)
	}
	if info, ok := sn.Family(fam); ok {
		fmt.Fprintf(&b, "F %x %q\n", info.RulesHash, info.Rules)
	}
	if l := sn.Table(fam).Templates(); l.Frame() != nil {
		fmt.Fprintf(&b, "L %x %v\n", l.Key(), l.PathKeys())
	}
	return b.String()
}

func TestRecoverySweep(t *testing.T) {
	// Counting pass: total write points + the boundary states.
	base := t.TempDir()
	countFP := &Failpoints{}
	models := map[int]string{}
	var compacted []int
	{
		path := filepath.Join(base, "count.store")
		s0, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		models[0] = stateString(t, s0)
		s0.Close()
		OSFS{}.Remove(path)

		commits, err := runWorkload(path, &FailFS{Base: OSFS{}, FP: countFP}, func(i int, s *Store) {
			models[i] = stateString(t, s)
			if int(s.Stats().Compactions) > len(compacted) {
				compacted = append(compacted, i)
			}
		})
		if err != nil {
			t.Fatalf("counting pass: %v", err)
		}
		if commits != len(workloadTxns()) {
			t.Fatalf("counting pass committed %d", commits)
		}
	}
	total := countFP.Ops()
	if total < 20 {
		t.Fatalf("suspiciously few write points: %d", total)
	}
	t.Logf("workload has %d write points, %d boundary states", total, len(models)-1)
	// The sweep must replay an appended tombstone, cross a compaction of
	// the churned population, and go on past it.
	t.Logf("commits %v compacted the log", compacted)
	churned := false
	for _, i := range compacted {
		if i == tombstoneTxn || i == len(workloadTxns()) {
			t.Fatalf("commit %d compacted the log: the script wants it appended", i)
		}
		churned = churned || i > tombstoneTxn
	}
	if !churned {
		t.Fatalf("no commit after the %dth compacted the log", tombstoneTxn)
	}

	// Sanity: the rule delta really changed the observable state.
	if models[2] == models[3] {
		t.Fatal("invalidation transaction left state unchanged")
	}

	for _, torn := range []bool{false, true} {
		for n := 1; n <= total; n++ {
			name := fmt.Sprintf("crash=%d,torn=%v", n, torn)
			path := filepath.Join(base, fmt.Sprintf("sweep-%d-%v.store", n, torn))
			fp := &Failpoints{CrashAt: n, Torn: torn}
			commits, err := runWorkload(path, &FailFS{Base: OSFS{}, FP: fp}, nil)
			if err == nil {
				// Only the very last write point can "crash" after the
				// workload's final syscall already took effect.
				if n != total || commits != len(workloadTxns()) {
					t.Fatalf("%s: workload survived its crash point", name)
				}
			} else if !errors.Is(err, ErrCrashed) && !strings.Contains(err.Error(), "injected crash") {
				t.Fatalf("%s: unexpected error %v", name, err)
			}
			if !fp.Crashed() {
				t.Fatalf("%s: crash point never fired (err %v)", name, err)
			}

			// Reopen on the real filesystem: recovery must land exactly on
			// a transaction boundary.
			s, err := Open(path, Options{})
			if err != nil {
				t.Fatalf("%s: reopen: %v", name, err)
			}
			got := stateString(t, s)
			switch got {
			case models[commits]:
				// Crash before the commit point: the in-flight transaction
				// vanished without trace.
			case models[commits+1]:
				// Crash after the commit marker (or the compacted log) was
				// in place: the transaction stands.
			default:
				s.Close()
				t.Fatalf("%s: recovered state matches no boundary (after %d commits)\n%s", name, commits, got)
			}

			// The recovered store must still be writable and readable.
			tx, err := s.Begin()
			if err != nil {
				t.Fatalf("%s: Begin after recovery: %v", name, err)
			}
			if err := putRecord(tx, recFam, recRecord(99, journal.Sat, "fwd#miss")); err != nil {
				t.Fatalf("%s: put after recovery: %v", name, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("%s: commit after recovery: %v", name, err)
			}
			sn := s.Snapshot()
			if _, ok, err := sn.GetRecord(recFam, journal.KindEmit, 99); !ok || err != nil {
				t.Fatalf("%s: record lost after post-recovery commit (ok=%v err=%v)", name, ok, err)
			}
			sn.Close()
			s.Close()
		}
	}
}

// TestRecoveryIdempotent reopens a crashed store twice: recovery itself
// must be crash-consistent (dropping a tail is idempotent).
func TestRecoveryIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.store")
	fp := &Failpoints{CrashAt: 13, Torn: true} // mid-workload: the fourth commit's append, torn
	if _, err := runWorkload(path, &FailFS{Base: OSFS{}, FP: fp}, nil); err == nil {
		t.Fatal("workload survived crash")
	}
	s1, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("first reopen: %v", err)
	}
	st1 := stateString(t, s1)
	s1.Close()
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	st2 := stateString(t, s2)
	s2.Close()
	if st1 != st2 {
		t.Fatal("recovery not idempotent")
	}
}
