package journal

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func tmpFile(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "ck.journal")
}

func TestRoundTrip(t *testing.T) {
	path := tmpFile(t)
	j, err := Open(path, 0xfeed, false)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindCheck, Key: 1, Verdict: Unsat},
		{Kind: KindCheck, Key: 2, Verdict: Sat},
		{Kind: KindEmit, Key: 3, Verdict: Sat, Model: []VarVal{{"a", 7}, {"ipv4.dstAddr", 0xffffffff}}},
		{Kind: KindEmit, Key: 4, Verdict: Unknown},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path, 0xfeed, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Loaded() != len(recs) {
		t.Fatalf("loaded %d records, want %d", r.Loaded(), len(recs))
	}
	for _, want := range recs {
		e, ok := r.Lookup(want.Kind, want.Key)
		got := e.Record()
		if !ok {
			t.Fatalf("record %v not found", want)
		}
		if got.Verdict != want.Verdict || len(got.Model) != len(want.Model) {
			t.Fatalf("record %v loaded as %v", want, got)
		}
		for i := range want.Model {
			if got.Model[i] != want.Model[i] {
				t.Fatalf("model mismatch: %v vs %v", got.Model, want.Model)
			}
		}
	}
}

// TestTornTailTolerated is the kill-mid-write property: truncating the
// file at every possible byte offset must load cleanly with some prefix
// of the records, never an error or a corrupt record.
func TestTornTailTolerated(t *testing.T) {
	path := tmpFile(t)
	j, err := Open(path, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		if err := j.Append(Record{Kind: KindEmit, Key: i, Verdict: Sat, Model: []VarVal{{"v", i}}}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	headerLen := len(encode(Record{Kind: KindHeader, Key: 42}))

	for cut := len(full); cut > headerLen; cut-- {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path, 42, true)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		// Every loaded record must be intact and a prefix of the appends.
		for i := 0; i < r.Loaded(); i++ {
			e, ok := r.Lookup(KindEmit, uint64(i))
			if !ok || e.Model()[0].Val != uint64(i) {
				t.Fatalf("cut at %d: record %d corrupt or missing", cut, i)
			}
		}
		// Appending after a torn-tail load must produce a readable file.
		if err := r.Append(Record{Kind: KindCheck, Key: 999, Verdict: Unsat}); err != nil {
			t.Fatal(err)
		}
		r.Close()
		r2, err := Open(path, 42, true)
		if err != nil {
			t.Fatalf("cut at %d reopen: %v", cut, err)
		}
		if _, ok := r2.Lookup(KindCheck, 999); !ok {
			t.Fatalf("cut at %d: post-tear append lost", cut)
		}
		r2.Close()
	}
}

func TestTornHeaderRejected(t *testing.T) {
	path := tmpFile(t)
	j, err := Open(path, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	full, _ := os.ReadFile(path)
	os.WriteFile(path, full[:len(full)-1], 0o644)
	if _, err := Open(path, 42, true); err == nil {
		t.Fatal("torn header accepted")
	}
}

func TestFingerprintMismatch(t *testing.T) {
	path := tmpFile(t)
	j, err := Open(path, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := Open(path, 2, true); err == nil {
		t.Fatal("fingerprint mismatch accepted")
	}
}

func TestResumeMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope"), 1, true); err == nil {
		t.Fatal("resume of missing file accepted")
	}
}

func TestCorruptRecordEndsScan(t *testing.T) {
	path := tmpFile(t)
	j, err := Open(path, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Record{Kind: KindCheck, Key: 1, Verdict: Sat})
	j.Append(Record{Kind: KindCheck, Key: 2, Verdict: Sat})
	j.Close()
	data, _ := os.ReadFile(path)
	data[len(data)-6] ^= 0xff // flip a payload byte of the last record
	os.WriteFile(path, data, 0o644)
	r, err := Open(path, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Loaded() != 1 {
		t.Fatalf("loaded %d, want 1 (corrupt record must end the scan)", r.Loaded())
	}
}

// TestConcurrentAppend exercises Append from many goroutines (the
// parallel exploration workers share one journal); run under -race.
func TestConcurrentAppend(t *testing.T) {
	path := tmpFile(t)
	j, err := Open(path, 9, false)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.Append(Record{Kind: KindCheck, Key: uint64(w*per + i), Verdict: Sat})
			}
		}(w)
	}
	wg.Wait()
	j.Close()
	r, err := Open(path, 9, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Loaded() != workers*per {
		t.Fatalf("loaded %d, want %d", r.Loaded(), workers*per)
	}
}

// TestAppendWithDepsRoundTrip: the verdict+index pair reloads with the
// dependency tags folded in and Indexed set; a plain Append stays
// unindexed; an empty tag list is still "indexed" (depends on nothing).
func TestAppendWithDepsRoundTrip(t *testing.T) {
	path := tmpFile(t)
	j, err := Open(path, 0xabc, false)
	if err != nil {
		t.Fatal(err)
	}
	tags := []string{"acl#0011223344556677", "acl#miss", "nat"}
	if err := j.AppendWithDeps(Record{Kind: KindCheck, Key: 1, Verdict: Unsat}, tags); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendWithDeps(Record{Kind: KindEmit, Key: 1, Verdict: Sat, Model: []VarVal{{"x", 9}}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: KindCheck, Key: 2, Verdict: Sat}); err != nil {
		t.Fatal(err)
	}
	if j.Appended() != 5 {
		t.Fatalf("appended %d, want 5 (two pairs + one plain)", j.Appended())
	}
	j.Close()

	r, err := Open(path, 0xabc, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Loaded() != 3 {
		t.Fatalf("loaded %d verdicts, want 3", r.Loaded())
	}
	e, ok := r.Lookup(KindCheck, 1)
	chk := e.Record()
	if !ok || !chk.Indexed || len(chk.Tables) != 3 {
		t.Fatalf("tagged check loaded as %+v", chk)
	}
	for i, want := range tags {
		if chk.Tables[i] != want {
			t.Fatalf("tag %d = %q, want %q", i, chk.Tables[i], want)
		}
	}
	// KindCheck and KindEmit share key 1; the index must bind to its own
	// record's kind.
	e, ok = r.Lookup(KindEmit, 1)
	em := e.Record()
	if !ok || !em.Indexed || len(em.Tables) != 0 || em.Model[0].Val != 9 {
		t.Fatalf("empty-deps emit loaded as %+v", em)
	}
	e, ok = r.Lookup(KindCheck, 2)
	if plain := e.Record(); !ok || plain.Indexed {
		t.Fatalf("plain append loaded as %+v (must stay unindexed)", plain)
	}
}

// TestTornIndexConservative: a kill that lands between a verdict and its
// index record (simulated by truncating the index off the tail) must
// reload the verdict with Indexed=false, never with stale tags.
func TestTornIndexConservative(t *testing.T) {
	path := tmpFile(t)
	j, err := Open(path, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendWithDeps(Record{Kind: KindEmit, Key: 7, Verdict: Sat}, []string{"tbl#0"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	full, _ := os.ReadFile(path)
	idxLen := len(encode(Record{Kind: KindIndex, Key: 7, Verdict: Verdict(KindEmit), Tables: []string{"tbl#0"}}))
	os.WriteFile(path, full[:len(full)-idxLen], 0o644)

	r, err := Open(path, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	e, ok := r.Lookup(KindEmit, 7)
	if !ok {
		t.Fatal("verdict lost with its index")
	}
	rec := e.Record()
	if rec.Indexed || len(rec.Tables) != 0 {
		t.Fatalf("torn index left annotations: %+v", rec)
	}
}

// TestRecordsCanonicalOrder: Records() is sorted by (kind, key) with
// duplicates resolved last-wins.
func TestRecordsCanonicalOrder(t *testing.T) {
	path := tmpFile(t)
	j, err := Open(path, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Record{Kind: KindEmit, Key: 9, Verdict: Sat})
	j.Append(Record{Kind: KindCheck, Key: 4, Verdict: Sat})
	j.Append(Record{Kind: KindCheck, Key: 2, Verdict: Unsat})
	j.Append(Record{Kind: KindCheck, Key: 4, Verdict: Unsat}) // supersedes
	j.Close()

	r, err := Open(path, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recs := r.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3 (duplicate deduped)", len(recs))
	}
	wantOrder := []struct {
		kind Kind
		key  uint64
	}{{KindCheck, 2}, {KindCheck, 4}, {KindEmit, 9}}
	for i, w := range wantOrder {
		if recs[i].Kind != w.kind || recs[i].Key != w.key {
			t.Fatalf("record %d = (%d,%d), want (%d,%d)", i, recs[i].Kind, recs[i].Key, w.kind, w.key)
		}
	}
	if recs[1].Verdict != Unsat {
		t.Fatal("duplicate resolution is not last-wins")
	}
}

// TestShareMergesIntoAHeldTable: sharing a second source with a journal
// that holds records already merges the two into a copy, the shared
// table's records winning, and leaves the shared table as it was.
func TestShareMergesIntoAHeldTable(t *testing.T) {
	write := func(recs ...Record) string {
		path := tmpFile(t)
		j, err := Open(path, 11, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := j.AppendWithDeps(r, []string{"t#1"}); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		return path
	}
	own := write(Record{Kind: KindCheck, Key: 1, Verdict: Sat}, Record{Kind: KindCheck, Key: 2, Verdict: Sat})
	shared, err := ReadTable(write(Record{Kind: KindCheck, Key: 2, Verdict: Unsat}, Record{Kind: KindEmit, Key: 2, Verdict: Unknown}), 11)
	if err != nil {
		t.Fatal(err)
	}
	j, err := Open(own, 11, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.Share(shared)
	for _, want := range []Record{{Kind: KindCheck, Key: 1, Verdict: Sat}, {Kind: KindCheck, Key: 2, Verdict: Unsat}, {Kind: KindEmit, Key: 2, Verdict: Unknown}} {
		if e, ok := j.Lookup(want.Kind, want.Key); !ok || e.Verdict() != want.Verdict {
			t.Errorf("Lookup(%d, %d) = %d %v, want %d", want.Kind, want.Key, e.Verdict(), ok, want.Verdict)
		}
	}
	if j.Loaded() != 4 || shared.Len() != 2 {
		t.Errorf("Loaded %d, the shared table holds %d; want 4 and 2", j.Loaded(), shared.Len())
	}
	if _, ok := shared.Lookup(KindCheck, 1); ok {
		t.Error("the merge wrote into the shared table")
	}
}
