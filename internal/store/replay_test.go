package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/journal"
	"repro/internal/rulediff"
)

// ruleChurn writes a store at path that many rule updates grew without a
// compaction: n records of one family, each depending on one of a hundred
// acl entries (and every 97th on a nat entry too), then updates commits,
// each a Retire — by one acl entry's tag, or every tenth by the bare nat
// table — followed in the same transaction by re-puts of half the keys it
// retired, and of the other half of the keys the previous update retired.
// A second family rides along untouched.
func ruleChurn(t testing.TB, path string, n, updates int) {
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
			if e, ok := s.cur.fam(recFam).recs.Lookup(journal.KindEmit, i); ok && e.DependsOn(func(b []byte) bool {
				return string(b) == string(full[:]) || (tag == "nat" && string(b) == string(snat[:]))
			}) {
				killed = append(killed, i)
			}
		}
		if got := tx.Retire(recFam, rulediff.Matcher([]string{tag})); got != len(killed) {
			t.Fatalf("update %d: Retire(%q) = %d; %d records depend on it", u, tag, got, len(killed))
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
		t.Fatalf("%d compactions: the log was to keep its %d retire frames", c, updates)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	retires := 0
	for off := headerLen; off < len(data); {
		p, fn, ok := journal.SplitFrame(data[off:])
		if !ok {
			t.Fatalf("no intact frame at offset %d", off)
		}
		if p[0] == frameRetire {
			retires++
		}
		off += fn
	}
	if retires != updates {
		t.Fatalf("the log holds %d retire frames, want %d", retires, updates)
	}
}

// TestOpenTestsEachRecordOnce is the counted gate on Open after rule
// churn: however many retire frames the log holds, Open tests no tag — a
// retire frame names the records it deletes — and serves what the
// decoding reference replay reads: a record re-put after a retirement
// survives it, within one transaction or across two.
func TestOpenTestsEachRecordOnce(t *testing.T) {
	for _, updates := range []int{1, 40} {
		t.Run(fmt.Sprint(updates, " updates"), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "churned.store")
			ruleChurn(t, path, 2000, updates)
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
			if tests := s.Stats().TagTests; tests != 0 {
				t.Fatalf("Open of a log of %d retire frames made %d tag tests", updates, tests)
			}
			sameAsReference(t, s.cur, want)
		})
	}
}
