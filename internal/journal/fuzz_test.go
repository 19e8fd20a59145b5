package journal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzFP is the fingerprint every fuzz journal is opened under. The
// header check rejects other fingerprints before any record parsing, so
// pinning one value keeps the fuzzer inside the loader proper.
const fuzzFP = 0xfeedfacecafe

// fuzzSeedRecords and fuzzSeedTables are the well-formed journal the fuzz
// corpus is derived from: verdict+index pairs of every verdict value.
var (
	fuzzSeedRecords = []Record{
		{Kind: KindCheck, Key: 1, Verdict: Unsat},
		{Kind: KindEmit, Key: 2, Verdict: Sat, Model: []VarVal{{Var: "hdr.x", Val: 7}}},
		{Kind: KindEmit, Key: 3, Verdict: Unknown},
	}
	fuzzSeedTables = []string{"t/acl", "t/route"}
)

// FuzzLoad throws arbitrary bytes at the checkpoint loader. A journal is
// reloaded after SIGKILL at any instant, so the loader must never panic
// and must uphold the recovery contract on whatever it finds: a resumed
// open either fails cleanly or truncates the file back to the last
// intact record boundary — after which a second open recovers exactly
// the same records and a fresh append survives a reload. The frame table
// must accept and reject exactly what the eager reference loader does,
// stop at the same offset, and yield the same Record for every (kind,
// key); adopting it into a new journal must reload as the same records.
func FuzzLoad(f *testing.F) {
	// Seeds: a well-formed journal with verdict+index pairs, its torn
	// truncations, a flipped payload byte, a header-only file, and junk.
	seedDir := f.TempDir()
	seedPath := filepath.Join(seedDir, "seed.journal")
	j, err := Open(seedPath, fuzzFP, false)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range fuzzSeedRecords {
		if err := j.AppendWithDeps(r, fuzzSeedTables); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	for _, n := range []int{1, 7, len(seed) / 2, len(seed) - 1} {
		if n > 0 && n < len(seed) {
			f.Add(seed[:n])
		}
	}
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("MEISSAJ1 but not really a journal"))
	f.Add(craftedJournal())

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, wantGood, wantLoaded, wantErr := referenceLoad(data, fuzzFP)
		j, err := Open(path, fuzzFP, true)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Open: %v, the reference loader: %v", err, wantErr)
		}
		if err != nil {
			return // rejected cleanly (bad header, wrong fingerprint, ...)
		}
		if st, err := os.Stat(path); err != nil || st.Size() != int64(wantGood) {
			t.Fatalf("Open truncated the file to %v bytes (%v), the reference stops at %d", st.Size(), err, wantGood)
		}
		if j.Loaded() != wantLoaded {
			t.Fatalf("Loaded()=%d, the reference loaded %d", j.Loaded(), wantLoaded)
		}
		sameAsReference(t, "Open", j, want)
		adopted := filepath.Join(dir, "adopted.journal")
		a, err := Open(adopted, fuzzFP, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Adopt(j.t); err != nil {
			t.Fatal(err)
		}
		a.Close()
		if a, err = Open(adopted, fuzzFP, true); err != nil {
			t.Fatalf("reopen the adopting journal: %v", err)
		}
		sameAsReference(t, "Adopt and reopen", a, want)
		a.Close()

		got := j.Records()
		// The open truncated any torn tail, so appending and reloading
		// must recover every prior record plus the new one.
		fresh := Record{Kind: KindEmit, Key: ^uint64(0), Verdict: Sat}
		if err := j.AppendWithDeps(fresh, []string{"t/fuzz"}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := Open(path, fuzzFP, true)
		if err != nil {
			t.Fatalf("reopen after recovered append: %v", err)
		}
		defer again.Close()
		reloaded := again.Records()
		wantN := len(got)
		if _, dup := findRecord(got, fresh.Kind, fresh.Key); !dup {
			wantN++
		}
		if len(reloaded) != wantN {
			t.Fatalf("reload recovered %d records, want %d", len(reloaded), wantN)
		}
		if r, ok := findRecord(reloaded, fresh.Kind, fresh.Key); !ok {
			t.Fatal("appended record lost on reload")
		} else if !r.Indexed || len(r.Tables) != 1 || r.Tables[0] != "t/fuzz" {
			t.Fatalf("appended record lost its dependency index: %+v", r)
		}
	})
}

// craftedJournal is a well-framed journal no run writes, with every shape
// the loader must still read as the reference does: a verdict with tags
// inline, an index that does not follow its verdict and carries a model,
// an orphan index, a header record past the first, a superseded verdict
// indexed twice, and payloads with bytes after their tag lists.
func craftedJournal() []byte {
	b := encode(Record{Kind: KindHeader, Key: fuzzFP})
	b = appendRecord(b, Record{Kind: KindCheck, Key: 5, Verdict: Sat, Tables: []string{"inline#1"}})
	b = appendRecord(b, Record{Kind: KindEmit, Key: 6, Verdict: Sat, Model: []VarVal{{"hdr.x", 3}, {"hdr.y", 4}}})
	b = appendRecord(b, Record{Kind: KindCheck, Key: 7, Verdict: Unsat})
	b = appendRecord(b, Record{Kind: KindIndex, Key: 6, Verdict: Verdict(KindEmit), Model: []VarVal{{"m", 1}}, Tables: []string{"idx#6"}})
	b = appendRecord(b, Record{Kind: KindIndex, Key: 99, Verdict: Verdict(KindCheck), Tables: []string{"orphan#0"}})
	b = appendRecord(b, Record{Kind: KindHeader, Key: 3})
	b = appendRecord(b, Record{Kind: KindCheck, Key: 7, Verdict: Sat})
	b = appendRecord(b, Record{Kind: KindIndex, Key: 7, Verdict: Verdict(KindCheck), Tables: []string{"a#1", "b#2"}})
	b = appendRecord(b, Record{Kind: KindIndex, Key: 7, Verdict: Verdict(KindCheck)})
	junk := func(r Record) []byte {
		fr := encode(r)
		return appendFrame(nil, fr[4:len(fr)-4], []byte("junk"))
	}
	b = append(b, junk(Record{Kind: KindEmit, Key: 8, Verdict: Unknown, Model: []VarVal{{"z", 9}}})...)
	b = append(b, junk(Record{Kind: KindIndex, Key: 8, Verdict: Verdict(KindEmit), Tables: []string{"t#8"}})...)
	return b
}

// sameAsReference checks that j's table holds exactly the records the
// reference loader decoded, each read alike through the lookup path (the
// verdict byte, the model, the tag walk) and the decoded view.
func sameAsReference(t *testing.T, what string, j *Journal, want map[mapKey]Record) {
	t.Helper()
	if j.t.Len() != len(want) {
		t.Fatalf("%s: the table holds %d records, the reference %d", what, j.t.Len(), len(want))
	}
	for k, r := range want {
		e, ok := j.Lookup(k.kind, k.key)
		if !ok {
			t.Fatalf("%s: (%d, %d) missing", what, k.kind, k.key)
		}
		if got := e.Record(); !reflect.DeepEqual(got, r) {
			t.Fatalf("%s: (%d, %d) reads %+v, the reference %+v", what, k.kind, k.key, got, r)
		}
		if e.Verdict() != r.Verdict || e.Indexed() != r.Indexed || !reflect.DeepEqual(e.Model(), r.Model) {
			t.Fatalf("%s: (%d, %d) looks up verdict %d indexed %v model %v, the reference %+v",
				what, k.kind, k.key, e.Verdict(), e.Indexed(), e.Model(), r)
		}
		for _, tag := range r.Tables {
			if !e.DependsOn(func(b []byte) bool { return string(b) == tag }) {
				t.Fatalf("%s: (%d, %d) does not depend on its tag %q", what, k.kind, k.key, tag)
			}
		}
		if len(r.Tables) == 0 && e.DependsOn(func([]byte) bool { return true }) {
			t.Fatalf("%s: (%d, %d) depends on a tag it does not carry", what, k.kind, k.key)
		}
	}
	recs := j.Records()
	for i := 1; i < len(recs); i++ {
		if compareKeys(mapKey{recs[i-1].Kind, recs[i-1].Key}, mapKey{recs[i].Kind, recs[i].Key}) >= 0 {
			t.Fatalf("%s: Records() not in canonical order at %d", what, i)
		}
	}
}

func findRecord(rs []Record, kind Kind, key uint64) (Record, bool) {
	for _, r := range rs {
		if r.Kind == kind && r.Key == key {
			return r, true
		}
	}
	return Record{}, false
}
