package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/journal"
)

// ruleChurn writes a store at path that many rule updates grew without a
// compaction: n records of one family, each depending on one of a hundred
// acl entries (and every 97th on a nat entry too), then updates commits,
// each a tombstone — one acl entry's tag, or every tenth the bare nat
// table — followed in the same transaction by re-puts of half the keys it
// killed, and of the other half of the keys the previous update killed.
// A second family rides along untouched. It returns the number of
// record frames the log holds.
func ruleChurn(t testing.TB, path string, n, updates int) int {
	t.Helper()
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const other = recFam + 1
	tagsOf := func(i uint64) []string {
		tags := []string{fmt.Sprintf("acl#e%02d", i%100), "fwd#miss"}
		if i%97 == 0 {
			tags = append(tags, "nat#snat")
		}
		return tags
	}
	put := func(tx *Tx, fam, i uint64, v journal.Verdict) {
		t.Helper()
		if err := putRecord(tx, fam, recRecord(i, v, tagsOf(i)...)); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < uint64(n); i++ {
		put(tx, recFam, i, journal.Unsat)
	}
	for i := uint64(0); i < 5; i++ {
		put(tx, other, i, journal.Sat)
	}
	tx.SetFamilyRules(recFam, "rules-0")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var lastKilled []uint64
	for u := 1; u <= updates; u++ {
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		tag := fmt.Sprintf("acl#e%02d", (u*37)%100)
		if u%10 == 0 {
			tag = "nat"
		}
		var killed []uint64
		for i := uint64(0); i < uint64(n); i++ {
			full, snat := journal.TagOf(tag), journal.TagOf("nat#snat")
			if e, ok := tx.view(recFam).recs.Lookup(journal.KindEmit, i); ok && e.DependsOn(func(b []byte) bool {
				return string(b) == string(full[:]) || (tag == "nat" && string(b) == string(snat[:]))
			}) {
				killed = append(killed, i)
			}
		}
		if got := tx.InvalidateTags(recFam, []string{tag}); got != len(killed) {
			t.Fatalf("update %d: InvalidateTags(%q) = %d; %d records depend on it", u, tag, got, len(killed))
		}
		for j, i := range killed {
			if j%2 == 0 {
				put(tx, recFam, i, journal.Verdict(u%3)) // killed, then re-put in one transaction
			}
		}
		for j, i := range lastKilled {
			if j%2 == 1 {
				put(tx, recFam, i, journal.Sat) // killed by the last update, re-put by this one
			}
		}
		lastKilled = killed
		tx.SetFamilyRules(recFam, fmt.Sprint("rules-", u))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if c := s.Stats().Compactions; c != 0 {
		t.Fatalf("%d compactions: the log was to keep its %d tombstones", c, updates)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records, dead := 0, 0
	for off := headerLen; off < len(data); {
		p, fn, ok := journal.SplitFrame(data[off:])
		if !ok {
			t.Fatalf("no intact frame at offset %d", off)
		}
		switch p[0] {
		case byte(journal.KindCheck), byte(journal.KindEmit):
			records++
		case frameDead:
			dead++
		}
		off += fn
	}
	if dead != updates {
		t.Fatalf("the log holds %d tombstones, want %d", dead, updates)
	}
	return records
}

// TestOpenTestsEachRecordOnce is the counted gate on Open after rule
// churn: however many tombstones the log holds, a record frame is tested
// against retired tags at most once, so the tests stay within the records
// replayed — where retiring each tombstone over the whole table as it is
// read tested every record once per tombstone. What Open serves is what
// that eager replay (the decoding reference) reads: a record re-put after
// a tombstone survives it, within one transaction or across two.
func TestOpenTestsEachRecordOnce(t *testing.T) {
	for _, updates := range []int{1, 40} {
		t.Run(fmt.Sprint(updates, " updates"), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "churned.store")
			replayed := ruleChurn(t, path, 2000, updates)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := refReplay(data)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			tests := s.Stats().TagTests
			t.Logf("%d tombstones: %d tag tests over %d records replayed", updates, tests, replayed)
			if tests == 0 || tests > uint64(replayed) {
				t.Fatalf("Open made %d tag tests over %d records replayed", tests, replayed)
			}
			sameAsReference(t, s.cur, want)
		})
	}
}

// TestStoreWarmSharesTableDuringCommit: a warm start shares the family
// table of a snapshot instead of copying it, so no commit may change a
// table a reader holds. Readers walk a snapshot's table while a writer on
// the same store retires its records, overwrites and re-puts them, changes
// the family's rules and compacts the log (run under -race: a write to a
// shared table is a race); the table reads the same throughout.
func TestStoreWarmSharesTableDuringCommit(t *testing.T) {
	s := openTest(t, nil)
	const fam = 9
	tagOf := func(i uint64) string { return fmt.Sprintf("acl#e%d", i%10) }
	tx := mustBegin(t, s)
	for i := uint64(0); i < 200; i++ {
		if err := putRecord(tx, fam, testRecord(i, journal.Unsat, tagOf(i), "fwd#miss")); err != nil {
			t.Fatal(err)
		}
	}
	tx.SetFamilyRules(fam, "rules-0")
	mustCommit(t, tx)
	sn := s.Snapshot()
	defer sn.Close()
	shared := sn.Table(fam)
	want := fmt.Sprint(shared.Records())

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				recs := shared.Records()
				for _, r := range recs {
					if got, ok := shared.Lookup(r.Kind, r.Key); !ok || got.Verdict() != journal.Unsat {
						errs <- fmt.Errorf("key %d reads %v (present %v)", r.Key, got.Verdict(), ok)
						return
					}
				}
				if got := fmt.Sprint(recs); got != want {
					errs <- fmt.Errorf("the shared table changed under a commit")
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for round := uint64(0); round < 30 || s.Stats().Compactions == 0; round++ {
		if round == 200 {
			t.Fatal("200 rule updates and no compaction")
		}
		tx := mustBegin(t, s)
		tx.InvalidateTags(fam, []string{tagOf(round)})
		for i := round % 10; i < 200; i += 10 {
			if err := putRecord(tx, fam, testRecord(i, journal.Sat, tagOf(i), "fwd#miss")); err != nil {
				t.Fatal(err)
			}
		}
		tx.SetFamilyRules(fam, fmt.Sprint("rules-", round+1))
		mustCommit(t, tx)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := fmt.Sprint(shared.Records()); got != want {
		t.Fatal("the shared table changed")
	}
	fresh := s.Snapshot()
	defer fresh.Close()
	if r, ok, _ := fresh.GetRecord(fam, journal.KindEmit, 0); !ok || r.Verdict != journal.Sat {
		t.Fatalf("a fresh snapshot reads %+v (present %v), want the rewritten verdict", r, ok)
	}
}
