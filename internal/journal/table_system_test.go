package journal_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	meissa "repro"
	"repro/internal/journal"
	"repro/internal/programs"
	"repro/internal/store"
)

// TestSeedAndAdoptMatchLoad: a table put into a journal answers exactly
// like the same records loaded from a file. Sharing never touches the
// file; Adopt leaves in it the bytes Append would have, in canonical
// order, whether the table's frames came from a checkpoint or from a
// store — which are the same frames.
func TestSeedAndAdoptMatchLoad(t *testing.T) {
	t.Run("synthetic", func(t *testing.T) {
		const fp = 0xfeedfacecafe
		path := filepath.Join(t.TempDir(), "ck.journal")
		j, err := journal.Open(path, fp, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []journal.Record{
			{Kind: journal.KindCheck, Key: 1, Verdict: journal.Unsat, Tags: tagsOf("t/acl", "t/route")},
			{Kind: journal.KindEmit, Key: 2, Verdict: journal.Sat, Model: []journal.VarVal{{Var: "hdr.x", Val: 7}}, Tags: tagsOf("t/acl")},
			{Kind: journal.KindEmit, Key: 3, Verdict: journal.Unknown},
		} {
			if err := j.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		adoptedMatchLoad(t, path, fp, journalTable(t, path, fp), true)
	})

	t.Run("gw-3 checkpoint and store", func(t *testing.T) {
		var p *programs.Program
		for _, c := range programs.All() {
			if c.Name == "gw-3" {
				p = c
			}
		}
		dir := t.TempDir()
		ck, sp := filepath.Join(dir, "gw3.journal"), filepath.Join(dir, "gw3.store")
		opts := meissa.DefaultOptions()
		opts.Parallelism = 1
		opts.Checkpoint = ck
		sys, err := meissa.New(p.Prog, p.Rules, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := sys.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Generate(); err != nil {
			t.Fatal(err)
		}
		opts.Checkpoint, opts.StorePath = "", sp
		if sys, err = meissa.New(p.Prog, p.Rules, nil, opts); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Generate(); err != nil {
			t.Fatal(err)
		}
		status, err := sys.StoreStatus()
		if err != nil {
			t.Fatal(err)
		}
		s, err := store.Open(sp, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fromStore := s.Snapshot().Table(status.Family)

		// The checkpoint's own table, then the store's, against a load of
		// the checkpoint: the same records, and Adopt writes the same bytes.
		fromFile := journalTable(t, ck, fp)
		if fromStore.Len() == 0 || fromStore.Len() != fromFile.Len() {
			t.Fatalf("the store holds %d records, the checkpoint %d", fromStore.Len(), fromFile.Len())
		}
		adoptedMatchLoad(t, ck, fp, fromFile, false)
		adoptedMatchLoad(t, ck, fp, fromStore, false)
	})
}

// lookup is Journal.Lookup decoded.
func lookup(j *journal.Journal, kind journal.Kind, key uint64) (journal.Record, bool) {
	e, ok := j.Lookup(kind, key)
	if !ok {
		return journal.Record{}, false
	}
	return e.Record(), true
}

func journalTable(t *testing.T, path string, fp uint64) *journal.Table {
	t.Helper()
	tbl, err := journal.ReadTable(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// adoptedMatchLoad checks tbl, adopted with and without a file, against a
// resumed open of the checkpoint at path. sameLoaded also holds the Loaded
// counts equal, which only a checkpoint without superseded records has.
func adoptedMatchLoad(t *testing.T, path string, fp uint64, tbl *journal.Table, sameLoaded bool) {
	t.Helper()
	loaded, err := journal.Open(path, fp, true)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	recs := loaded.Table().Records()

	// What Adopt must write: the header the load accepted, then each
	// record's frame in canonical order.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, n, _ := journal.SplitFrame(data)
	want := slices.Clone(data[:n])
	for _, e := range loaded.Table().Sorted() {
		want = append(want, e.Frame()...)
	}

	same := func(name string, got *journal.Journal) {
		t.Helper()
		if sameLoaded && got.Loaded() != loaded.Loaded() {
			t.Errorf("%s: Loaded %d, a load gives %d", name, got.Loaded(), loaded.Loaded())
		}
		if !reflect.DeepEqual(got.Table().Records(), recs) {
			t.Errorf("%s: Records differ from a load's", name)
		}
		for _, r := range recs {
			for _, kind := range []journal.Kind{journal.KindCheck, journal.KindEmit} {
				g, gok := lookup(got, kind, r.Key)
				w, wok := lookup(loaded, kind, r.Key)
				if gok != wok || !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: Lookup(%d, %d) = %+v %v, a load gives %+v %v", name, kind, r.Key, g, gok, w, wok)
				}
			}
		}
		if got.Appended() != 0 {
			t.Errorf("%s: %d records count as appended", name, got.Appended())
		}
	}

	mem := journal.New()
	if err := mem.Adopt(tbl); err != nil {
		t.Fatalf("Adopt without a file: %v", err)
	}
	same("adopting journal without a file", mem)

	p := filepath.Join(t.TempDir(), "adopt.journal")
	j, err := journal.Open(p, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Adopt(tbl); err != nil {
		t.Fatal(err)
	}
	same("adopting journal with a file", j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("adopting journal with a file: file holds %d bytes, want %d", len(got), len(want))
	}
}

// tagsOf is journal.TagOf of each tag.
func tagsOf(tags ...string) []journal.Tag {
	out := make([]journal.Tag, len(tags))
	for i, t := range tags {
		out[i] = journal.TagOf(t)
	}
	return out
}
