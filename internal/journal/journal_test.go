package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func tmpFile(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "ck.journal")
}

// tagsOf is TagOf of each tag.
func tagsOf(tags ...string) []Tag {
	out := make([]Tag, len(tags))
	for i, t := range tags {
		out[i] = TagOf(t)
	}
	return out
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
// parallel exploration workers share one journal, whose fresh table a
// store commit reads); run under -race.
func TestConcurrentAppend(t *testing.T) {
	path := tmpFile(t)
	j, err := Open(path, 9, false)
	if err != nil {
		t.Fatal(err)
	}
	j.KeepFresh()
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
	if n := j.Fresh().Len(); n != workers*per {
		t.Fatalf("the fresh table holds %d records, want %d", n, workers*per)
	}
	r, err := Open(path, 9, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Loaded() != workers*per {
		t.Fatalf("loaded %d, want %d", r.Loaded(), workers*per)
	}
}

// TestTagsRoundTrip: a record reloads with its dependency tags, from the
// one frame Append writes for it; a Check and an Emit record may share a
// key; an empty tag list reloads as no tags (depends on nothing).
func TestTagsRoundTrip(t *testing.T) {
	path := tmpFile(t)
	j, err := Open(path, 0xabc, false)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindCheck, Key: 1, Verdict: Unsat, Tags: tagsOf("acl#0011223344556677", "acl#miss", "nat")},
		{Kind: KindEmit, Key: 1, Verdict: Sat, Model: []VarVal{{"x", 9}}},
		{Kind: KindCheck, Key: 2, Verdict: Sat, Tags: tagsOf("fwd#miss")},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if j.Appended() != 3 {
		t.Fatalf("appended %d, want 3 (one record a verdict)", j.Appended())
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := encode(Record{Kind: KindHeader, Key: 0xabc})
	for _, r := range recs {
		want = append(want, encode(r)...)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("the file holds %d bytes, want the header and one frame a record: %d", len(data), len(want))
	}

	r, err := Open(path, 0xabc, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Loaded() != 3 {
		t.Fatalf("loaded %d verdicts, want 3", r.Loaded())
	}
	for _, want := range recs {
		e, ok := r.Lookup(want.Kind, want.Key)
		if got := e.Record(); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("(%d, %d) loaded as %+v (present %v), want %+v", want.Kind, want.Key, got, ok, want)
		}
	}
}

// TestForeignFrameRefused: after the header, an intact frame that holds no
// verdict — a second header, a tag record of an earlier format — is no
// torn tail but an error naming its offset, and so is a file whose header
// is of an earlier format, whose error names the file, the format, the
// header's offset and the way out.
func TestForeignFrameRefused(t *testing.T) {
	good := append(encode(Record{Kind: KindHeader, Key: 4}), encode(Record{Kind: KindCheck, Key: 1, Verdict: Sat})...)
	// oldFile is a file of an earlier format: good's header under its magic,
	// then a verdict whose tags are spelt out (MEISSAJ2's frame).
	oldFile := func(m string) []byte {
		old := append([]byte(nil), good[:frameLen(good)]...)
		copy(old[frameLen(old)-4-len(magic):], m)
		payload := binary.LittleEndian.AppendUint64([]byte{byte(KindCheck), byte(Sat)}, 1)
		payload = binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint16(payload, 0), 1)
		payload = append(binary.LittleEndian.AppendUint16(payload, 8), "acl#miss"...)
		return appendPayload(reframeFirst(old), payload)
	}
	for name, tc := range map[string]struct {
		data []byte
		want []string
	}{
		"second header": {append(append([]byte(nil), good...), encode(Record{Kind: KindHeader, Key: 4})...),
			[]string{"kind 0", fmt.Sprint("offset ", len(good))}},
		"tag record": {append(append([]byte(nil), good...), encode(Record{Kind: 3, Key: 1, Verdict: Verdict(KindCheck), Tags: tagsOf("t#1")})...),
			[]string{"kind 3", fmt.Sprint("offset ", len(good))}},
		"earlier format":  {oldFile("MEISSAJ1"), []string{"MEISSAJ1", "offset 0", "cold run"}},
		"text-tag format": {oldFile("MEISSAJ2"), []string{"MEISSAJ2", "offset 0", "dependency tag out as text", "cold run"}},
	} {
		t.Run(name, func(t *testing.T) {
			path := tmpFile(t)
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(path, 4, true)
			if _, rerr := ReadTable(path, 4); err == nil || rerr == nil || err.Error() != rerr.Error() {
				t.Fatalf("Open: %v; ReadTable: %v; want the same error", err, rerr)
			}
			for _, want := range append(tc.want, path) {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, tc.data) {
				t.Error("the refused file changed")
			}
		})
	}
}

// TestFreshTableHoldsAppendedFrames: KeepFresh keeps every frame appended
// after it — the file's own bytes, the last of a kind and key winning —
// and none of the records the journal started with; a journal with no
// file keeps them all the same.
func TestFreshTableHoldsAppendedFrames(t *testing.T) {
	for _, withFile := range []bool{true, false} {
		path := tmpFile(t)
		j := New()
		if withFile {
			var err error
			if j, err = Open(path, 6, false); err != nil {
				t.Fatal(err)
			}
		}
		if j.Fresh() != nil {
			t.Fatal("a fresh table before KeepFresh")
		}
		j.KeepFresh()
		var frames [][]byte
		for i := 0; i < 3000; i++ { // a few chunks' worth
			r := Record{Kind: Kind(1 + i%2), Key: uint64(i % 2500), Verdict: Verdict(i % 3), Tags: tagsOf(fmt.Sprint("t#", i))}
			if err := j.Append(r); err != nil {
				t.Fatal(err)
			}
			frames = append(frames, encode(r))
		}
		j.Close()
		fresh := j.Fresh()
		want := &Table{}
		for _, fr := range frames {
			if _, ok := want.PutFrame(fr); !ok {
				t.Fatal("a record does not frame")
			}
		}
		if got, w := fresh.Sorted(), want.Sorted(); len(got) != len(w) || len(got) != 2500 {
			t.Fatalf("the fresh table holds %d records, want %d of 2500", len(got), len(w))
		} else {
			for i := range got {
				if string(got[i].Frame()) != string(w[i].Frame()) || got[i].Verdict() != w[i].Verdict() {
					t.Fatalf("record %d: %+v, want %+v", i, got[i].Record(), w[i].Record())
				}
			}
		}
		if withFile {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, append(encode(Record{Kind: KindHeader, Key: 6}), bytes.Join(frames, nil)...)) {
				t.Fatal("the file does not hold the appended frames")
			}
		}
	}
}

// TestRecordsCanonicalOrder: a table's Records() is sorted by (kind, key)
// with duplicates resolved last-wins.
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
	recs := r.Table().Records()
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
