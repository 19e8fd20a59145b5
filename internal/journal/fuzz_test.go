package journal

import (
	"os"
	"path/filepath"
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
// the same records and a fresh append survives a reload.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(path, fuzzFP, true)
		if err != nil {
			return // rejected cleanly (bad header, wrong fingerprint, ...)
		}
		got := j.Records()
		loaded := j.Loaded()
		if len(got) != loaded {
			t.Fatalf("Records()=%d but Loaded()=%d", len(got), loaded)
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if a.Kind > b.Kind || (a.Kind == b.Kind && a.Key >= b.Key) {
				t.Fatalf("Records() not in canonical order at %d: %+v then %+v", i, a, b)
			}
		}
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
		want := loaded
		if _, dup := findRecord(got, fresh.Kind, fresh.Key); !dup {
			want++
		}
		if len(reloaded) != want {
			t.Fatalf("reload recovered %d records, want %d", len(reloaded), want)
		}
		if r, ok := findRecord(reloaded, fresh.Kind, fresh.Key); !ok {
			t.Fatal("appended record lost on reload")
		} else if !r.Indexed || len(r.Tables) != 1 || r.Tables[0] != "t/fuzz" {
			t.Fatalf("appended record lost its dependency index: %+v", r)
		}
	})
}

func findRecord(rs []Record, kind Kind, key uint64) (Record, bool) {
	for _, r := range rs {
		if r.Kind == kind && r.Key == key {
			return r, true
		}
	}
	return Record{}, false
}
