package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"syscall"
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

// TestForeignFrameRefused: after the header, an intact frame that holds
// neither a verdict nor a template list — a second header, a kind-3 tag
// record of an earlier format, a kind no release writes — is no torn tail
// but an error naming its offset, and so is a file whose header
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
		"unknown kind": {append(append([]byte(nil), good...), encode(Record{Kind: 4, Key: 1, Verdict: Verdict(KindCheck), Tags: tagsOf("t#1")})...),
			[]string{"kind 4", fmt.Sprint("offset ", len(good))}},
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

// wholeFrames counts the whole frames in a checkpoint file after its
// header, failing on bytes that are none.
func wholeFrames(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for off := frameLen(data); off < len(data); n++ {
		_, fn, ok := SplitFrame(data[off:])
		if !ok {
			t.Fatalf("bytes at offset %d of %d are no whole frame", off, len(data))
		}
		off += fn
	}
	return n
}

// TestAppendsReachFileInBatches pins the group-commit bound: after n
// appends and no Close the file holds the header and exactly the
// ⌊n/batchFrames⌋ whole batches, so a kill loses at most batchFrames-1
// verdicts; Sync and Close write the rest.
func TestAppendsReachFileInBatches(t *testing.T) {
	for _, n := range []int{0, 1, batchFrames - 1, batchFrames, 3*batchFrames + 5} {
		for _, end := range []string{"Close", "Sync"} {
			path := tmpFile(t)
			j, err := Open(path, 11, false)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := j.Append(Record{Kind: KindCheck, Key: uint64(i), Verdict: Sat, Tags: tagsOf("t#1")}); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := wholeFrames(t, path), n/batchFrames*batchFrames; got != want {
				t.Errorf("%d appends: the file holds %d frames before %s, want %d", n, got, end, want)
			}
			if end == "Sync" {
				err = j.Sync()
			}
			if cerr := j.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := wholeFrames(t, path); got != n {
				t.Errorf("%d appends: the file holds %d frames after %s, want all", n, got, end)
			}
		}
	}
}

// TestCloseReportsFailedBatch: appends that fill no batch write nothing,
// so Append succeeds over a handle whose writes fail; Close writes them
// and returns that write's error.
func TestCloseReportsFailedBatch(t *testing.T) {
	path := tmpFile(t)
	j, err := Open(path, 12, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.f.Close()
	if j.f, err = os.Open(path); err != nil { // read-only: a write fails
		t.Fatal(err)
	}
	for i := 0; i < batchFrames-1; i++ {
		if err := j.Append(Record{Kind: KindCheck, Key: uint64(i), Verdict: Unsat}); err != nil {
			t.Fatalf("append %d: %v, want nil: no batch is full", i, err)
		}
	}
	if err := j.Close(); !errors.Is(err, syscall.EBADF) {
		t.Fatalf("Close: %v, want the failed write's error", err)
	}
}

// TestBytesAfterTagsRefused: a verdict's frame holds nothing after its tag
// list, so each record has one byte string. A frame with bytes there,
// checksummed though it is, is no record to EntryOf or PutFrame, and a
// checkpoint load stops before it as at a torn frame.
func TestBytesAfterTagsRefused(t *testing.T) {
	fr := encode(Record{Kind: KindCheck, Key: 7, Verdict: Sat, Tags: tagsOf("a#1")})
	junk := appendPayload(nil, append(fr[4:len(fr)-4:len(fr)-4], 1, 2, 3, 4))
	if _, n, ok := SplitFrame(junk); !ok || n != len(junk) {
		t.Fatal("the crafted frame is not whole")
	}
	if _, ok := EntryOf(junk); ok {
		t.Error("EntryOf accepted bytes after the tag list")
	}
	var tbl Table
	if _, ok := tbl.PutFrame(junk); ok || tbl.Len() != 0 {
		t.Error("PutFrame accepted bytes after the tag list")
	}
	good := append(encode(Record{Kind: KindHeader, Key: 5}), encode(Record{Kind: KindCheck, Key: 1, Verdict: Unsat})...)
	path := tmpFile(t)
	if err := os.WriteFile(path, append(append([]byte(nil), good...), junk...), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, ok := j.Lookup(KindCheck, 7); ok || j.Loaded() != 1 {
		t.Errorf("the load kept the frame: %d records loaded", j.Loaded())
	}
	if st, err := os.Stat(path); err != nil || st.Size() != int64(len(good)) {
		t.Errorf("the file was cut to %d bytes (%v), want %d", st.Size(), err, len(good))
	}
}

// TestTemplateListIsNoVerdict: a completed run's template list goes to the
// file after the verdicts, with the last batch, and reloads as the table's
// list — its key the fingerprint, its path keys in the order given — while
// no verdict count sees it. A resume that completes with the same list
// writes nothing, a later different list replaces it, and Adopt, which
// writes an adopted table's verdicts, does not write its list.
func TestTemplateListIsNoVerdict(t *testing.T) {
	path := tmpFile(t)
	j, err := Open(path, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fuzzSeedRecords {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	fr := j.Complete(7, []uint64{3, 1, 3})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(data, fr) || len(fr) != minFrame+3*8 || j.Appended() != uint64(len(fuzzSeedRecords)) {
		t.Fatalf("the list (%d bytes) is not the file's last frame, or it counted as appended (%d)", len(fr), j.Appended())
	}
	r, err := Open(path, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	l := r.Table().Templates()
	if r.Loaded() != len(fuzzSeedRecords) || r.Table().Len() != len(fuzzSeedRecords) || len(r.Table().Sorted()) != len(fuzzSeedRecords) {
		t.Errorf("loaded %d, table of %d: the list counted as a verdict", r.Loaded(), r.Table().Len())
	}
	if l.Kind() != KindTemplates || l.Key() != 7 || !slices.Equal(l.PathKeys(), []uint64{3, 1, 3}) || l.Record().Tags != nil {
		t.Fatalf("list reloads as %+v with path keys %v", l.Record(), l.PathKeys())
	}
	r.Complete(7, []uint64{3, 1, 3})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if again, _ := os.ReadFile(path); !bytes.Equal(again, data) {
		t.Fatalf("a resume that completed with the file's own list wrote %d bytes more", len(again)-len(data))
	}
	if r, err = Open(path, 7, true); err != nil {
		t.Fatal(err)
	}
	r.Complete(7, nil)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	tbl, err := ReadTable(path, 7)
	if err != nil {
		t.Fatal(err)
	}
	if l := tbl.Templates(); l.Frame() == nil || len(l.PathKeys()) != 0 {
		t.Fatalf("a later empty list does not replace the first: %v", l.PathKeys())
	}

	adopted := tmpFile(t)
	a, err := Open(adopted, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	a.Adopt(tbl)
	a.Complete(7, []uint64{1})
	a.Close()
	if again, err := ReadTable(adopted, 7); err != nil || !slices.Equal(again.Templates().PathKeys(), []uint64{1}) || again.Len() != 0 {
		t.Fatalf("adopting file (%v): %d verdicts and the list %v; want none and the run's own",
			err, again.Len(), again.Templates().PathKeys())
	}
}

// TestAdoptAppendsHits: an adopted table answers every record it holds as
// it is, and a hit journaled with other tags than the record's is framed
// with those, its model and verdict as they are.
func TestAdoptAppendsHits(t *testing.T) {
	recs := []Record{
		{Kind: KindCheck, Key: 2, Verdict: Sat, Tags: []Tag{TagOf("route#2")}},
		{Kind: KindEmit, Key: 3, Verdict: Sat, Model: []VarVal{{Var: "h.a", Val: 9}}},
	}
	tbl := &Table{}
	for _, r := range recs {
		if _, ok := tbl.PutFrame(encode(r)); !ok {
			t.Fatal("PutFrame refused a record")
		}
	}
	path := tmpFile(t)
	j, err := Open(path, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Adopt(tbl)
	for _, r := range recs {
		e, ok := j.Lookup(r.Kind, r.Key)
		if !ok || !reflect.DeepEqual(e.Record(), r) {
			t.Fatalf("Lookup(%d, %d) = %+v %v, want %+v", r.Kind, r.Key, e.Record(), ok, r)
		}
		if err := j.AppendHit(e, []Tag{TagOf("nat#4")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(path, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		r.Tags = []Tag{TagOf("nat#4")}
		if e, ok := got.Lookup(r.Kind, r.Key); !ok || !reflect.DeepEqual(e.Record(), r) {
			t.Errorf("journaled hit (%d, %d) reads %+v %v, want %+v", r.Kind, r.Key, e.Record(), ok, r)
		}
	}
	if got.Len() != 2 {
		t.Errorf("the file holds %d records, want the 2 hits", got.Len())
	}
}

// TestDeleteFunc: a table indexed from a checkpoint holds each verdict
// once — the last frame of its kind and key, not one it superseded — and
// neither the header nor a template list, so DeleteFunc tests each verdict
// once, removes what it returns true for and keeps the list; a Drop takes
// its record out of the table.
func TestDeleteFunc(t *testing.T) {
	a, b := TagOf("acl#1"), TagOf("nat#2")
	path := tmpFile(t)
	j, err := Open(path, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Record{
		{Kind: KindCheck, Key: 1, Verdict: Sat, Tags: []Tag{a}},
		{Kind: KindCheck, Key: 2, Verdict: Unsat, Tags: []Tag{b}},
		{Kind: KindCheck, Key: 1, Verdict: Sat, Tags: []Tag{b}},
		{Kind: KindEmit, Key: 1, Verdict: Sat, Model: []VarVal{{Var: "h.a", Val: 1}}, Tags: []Tag{a}},
	} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Complete(7, []uint64{1})
	if err := j.Append(Record{Kind: KindCheck, Key: 3, Verdict: Sat, Tags: []Tag{a, b}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	tbl, err := ReadTable(path, 7)
	if err != nil {
		t.Fatal(err)
	}
	has := func(tag Tag) func(Entry) bool {
		return func(e Entry) bool { return e.DependsOn(func(b []byte) bool { return bytes.Equal(b, tag[:]) }) }
	}
	for _, c := range []struct {
		name string
		f    func(Entry) bool
		want int
	}{{"acl", has(a), 2}, {"nat", has(b), 3}, {"all", func(Entry) bool { return true }, 4}} {
		c2, tests := tbl.Clone(), 0
		got := c2.DeleteFunc(func(e Entry) bool { tests++; return c.f(e) })
		if got != c.want || tests != 4 || c2.Len() != 4-c.want || c2.Templates().Frame() == nil {
			t.Errorf("%s: deletes %d in %d tests, leaving %d and a list of %d bytes; want %d in 4, %d and the list",
				c.name, got, tests, c2.Len(), len(c2.Templates().Frame()), c.want, 4-c.want)
		}
	}
	if tbl.Len() != 4 {
		t.Errorf("deleting from clones changed the table: %d records, want 4", tbl.Len())
	}
	if e, ok := tbl.Delete(KindCheck, 3); !ok || e.Key() != 3 || tbl.Len() != 3 {
		t.Errorf("Delete(KindCheck, 3) = %v, %v, leaving %d; want the entry, leaving 3", e.Record(), ok, tbl.Len())
	}
	if _, ok := tbl.Delete(KindCheck, 3); ok || tbl.Len() != 3 {
		t.Errorf("a second Delete found the entry, leaving %d", tbl.Len())
	}
}
