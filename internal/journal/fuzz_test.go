package journal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// fuzzFP is the fingerprint every fuzz journal is opened under. The
// header check rejects other fingerprints before any record parsing, so
// pinning one value keeps the fuzzer inside the loader proper.
const fuzzFP = 0xfeedfacecafe

// fuzzSeedRecords is the well-formed journal the fuzz corpus is derived
// from: a record of every verdict value, tagged.
var fuzzSeedRecords = []Record{
	{Kind: KindCheck, Key: 1, Verdict: Unsat, Tags: tagsOf("t/acl", "t/route")},
	{Kind: KindEmit, Key: 2, Verdict: Sat, Model: []VarVal{{Var: "hdr.x", Val: 7}}, Tags: tagsOf("t/acl")},
	{Kind: KindEmit, Key: 3, Verdict: Unknown},
}

// FuzzLoad throws arbitrary bytes at the checkpoint loader. A journal is
// reloaded after SIGKILL at any instant, so the loader must never panic
// and must uphold the recovery contract on whatever it finds: a resumed
// open either fails cleanly or truncates the file back to the last
// intact record boundary — after which a second open recovers exactly
// the same records and a fresh append survives a reload. The frame table
// must accept and reject exactly what the eager reference loader does,
// stop at the same offset, and yield the same Record for every (kind,
// key); adopting it into a new journal must reload as the same records.
// SplitFrame and EntryOf, which the store's replay reads its frames with,
// must read every intact frame as the reference decoder does.
func FuzzLoad(f *testing.F) {
	// Seeds: a well-formed journal that ends with its template list, its
	// torn truncations, a flipped payload
	// byte, a header-only file, junk, a file of the earlier format, and the
	// crafted shapes no run writes.
	seedPath := filepath.Join(f.TempDir(), "seed.journal")
	j, err := Open(seedPath, fuzzFP, false)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range fuzzSeedRecords {
		if err := j.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	j.Complete(fuzzFP, []uint64{2, 3})
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
	f.Add([]byte("MEISSAJ3 but not really a journal"))
	for m := range oldMagics {
		old := append([]byte(nil), seed...)
		copy(old[len(encode(Record{Kind: KindHeader}))-4-len(magic):], m)
		f.Add(reframeFirst(old))
	}
	crafted, verdicts := craftedJournal()
	f.Add(crafted)
	f.Add(crafted[:verdicts])
	f.Add(junkJournal())

	f.Fuzz(func(t *testing.T, data []byte) {
		for off := 0; ; {
			want, n, rest, wantOK := referenceDecode(data[off:])
			var got Record
			var e Entry
			_, fn, ok := SplitFrame(data[off:])
			if ok {
				e, ok = EntryOf(data[off : off+fn])
				got = e.Record()
			}
			if ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("SplitFrame and EntryOf at offset %d: %+v %v, the reference decoder %+v %v", off, got, ok, want, wantOK)
			}
			if ok && want.Kind == KindTemplates && !slices.Equal(e.PathKeys(), referencePathKeys(rest)) {
				t.Fatalf("template list at offset %d: path keys %v, the reference decoder %v", off, e.PathKeys(), referencePathKeys(rest))
			}
			if !ok {
				break
			}
			off += n
		}

		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, wantList, wantGood, wantLoaded, wantErr := referenceLoad(data, fuzzFP)
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
		if l := j.t.Templates(); (l.Frame() != nil) != (wantList != nil) ||
			wantList != nil && (l.Key() != wantList.key || !slices.Equal(l.PathKeys(), wantList.keys)) {
			t.Fatalf("Open: template list %v under %#x, the reference %+v", l.PathKeys(), l.Key(), wantList)
		}
		adopted := filepath.Join(dir, "adopted.journal")
		a, err := Open(adopted, fuzzFP, false)
		if err != nil {
			t.Fatal(err)
		}
		a.Adopt(j.t)
		sameAsReference(t, "Adopt", a, want)
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err := os.Stat(adopted); err != nil || st.Size() != int64(len(encode(Record{Kind: KindHeader, Key: fuzzFP}))) {
			t.Fatalf("Adopt wrote to the file (%v)", err)
		}

		got := j.t.Records()
		// The open truncated any torn tail, so appending and reloading
		// must recover every prior record plus the new one.
		fresh := Record{Kind: KindEmit, Key: ^uint64(0), Verdict: Sat, Tags: tagsOf("t/fuzz")}
		if err := j.Append(fresh); err != nil {
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
		reloaded := again.t.Records()
		wantN := len(got)
		if _, dup := findRecord(got, fresh.Kind, fresh.Key); !dup {
			wantN++
		}
		if len(reloaded) != wantN {
			t.Fatalf("reload recovered %d records, want %d", len(reloaded), wantN)
		}
		if r, ok := findRecord(reloaded, fresh.Kind, fresh.Key); !ok || !reflect.DeepEqual(r, fresh) {
			t.Fatalf("appended record reloads as %+v (present %v), want %+v", r, ok, fresh)
		}
	})
}

// craftedJournal is a well-framed journal no run writes, with every shape
// the loader must still read as the reference does: superseded keys, a
// Check and an Emit record sharing a key, two template lists (an empty one
// under another fingerprint, then one of three path keys) with verdicts
// after them; then, from the offset it returns on, frames that hold no
// verdict — a frame of a kind no release writes, a kind-3 frame with a tag
// (the tag record of an earlier format, which no list has) and a second
// header — which make the whole file an error.
func craftedJournal() ([]byte, int) {
	b := encode(Record{Kind: KindHeader, Key: fuzzFP})
	b = appendRecord(b, Record{Kind: KindCheck, Key: 5, Verdict: Sat, Tags: tagsOf("inline#1")})
	b = appendTemplates(b, 1, nil)
	b = appendRecord(b, Record{Kind: KindEmit, Key: 5, Verdict: Sat, Model: []VarVal{{"hdr.x", 3}, {"hdr.y", 4}}})
	b = appendRecord(b, Record{Kind: KindCheck, Key: 7, Verdict: Unsat, Tags: tagsOf("a#1")})
	b = appendTemplates(b, fuzzFP, []uint64{9, 3, 9})
	b = appendRecord(b, Record{Kind: KindCheck, Key: 7, Verdict: Sat, Tags: tagsOf("a#1", "b#2")})
	b = appendRecord(b, Record{Kind: KindCheck, Key: 5, Verdict: Unknown})
	verdicts := len(b)
	b = appendRecord(b, Record{Kind: 4, Key: 7, Verdict: Verdict(KindCheck)})
	b = appendRecord(b, Record{Kind: KindTemplates, Key: 7, Verdict: Verdict(KindCheck), Tags: tagsOf("a#1")})
	b = appendRecord(b, Record{Kind: KindHeader, Key: fuzzFP})
	return b, verdicts
}

// junkJournal is a header, a verdict, and then a verdict whose payload
// has bytes after its tag list: a well-framed record no encoding writes,
// where the loader stops as at a torn one.
func junkJournal() []byte {
	b := encode(Record{Kind: KindHeader, Key: fuzzFP})
	b = appendRecord(b, Record{Kind: KindCheck, Key: 9, Verdict: Unsat})
	fr := encode(Record{Kind: KindEmit, Key: 8, Verdict: Unknown, Model: []VarVal{{"z", 9}}, Tags: tagsOf("t#8")})
	return appendPayload(b, append(fr[4:len(fr)-4:len(fr)-4], "junk"...))
}

// appendPayload frames a payload.
func appendPayload(out, payload []byte) []byte {
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
}

// reframeFirst returns data with its first frame's checksum written anew.
func reframeFirst(data []byte) []byte {
	n := frameLen(data)
	return append(appendPayload(nil, data[4:n-4]), data[n:]...)
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
		if e.Verdict() != r.Verdict || !reflect.DeepEqual(e.Model(), r.Model) {
			t.Fatalf("%s: (%d, %d) looks up verdict %d model %v, the reference %+v",
				what, k.kind, k.key, e.Verdict(), e.Model(), r)
		}
		for _, tag := range r.Tags {
			if !e.DependsOn(func(b []byte) bool { return string(b) == string(tag[:]) }) {
				t.Fatalf("%s: (%d, %d) does not depend on its tag %x", what, k.kind, k.key, tag)
			}
		}
		if len(r.Tags) == 0 && e.DependsOn(func([]byte) bool { return true }) {
			t.Fatalf("%s: (%d, %d) depends on a tag it does not carry", what, k.kind, k.key)
		}
	}
	recs := j.t.Records()
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
