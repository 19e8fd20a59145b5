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
// like the same records loaded from a file, and Adopt writes nothing;
// journaling each as a hit leaves in the file the bytes Append would have,
// whether the table's frames came from a checkpoint or from a store —
// which are the same frames.
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
		adoptedMatchLoad(t, path, fp, journalTable(t, path, fp))
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
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Abort()
		fromStore := tx.Table(status.Family)

		// The checkpoint's own table, then the store's, against a load of
		// the checkpoint: the same records, and hits write the same bytes.
		fromFile := journalTable(t, ck, fp)
		if fromStore.Len() == 0 || fromStore.Len() != fromFile.Len() {
			t.Fatalf("the store holds %d records, the checkpoint %d", fromStore.Len(), fromFile.Len())
		}
		adoptedMatchLoad(t, ck, fp, fromFile)
		adoptedMatchLoad(t, ck, fp, fromStore)
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
// resumed open of the checkpoint at path: the same answers, nothing
// written, nothing counted. Journaling every record as a hit, with the
// record's own tags, then leaves in the file the bytes of the load's
// records in canonical order: AppendHit frames a hit as Append framed it.
func adoptedMatchLoad(t *testing.T, path string, fp uint64, tbl *journal.Table) {
	t.Helper()
	loaded, err := journal.Open(path, fp, true)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	recs := loaded.Table().Records()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, n, _ := journal.SplitFrame(data)
	header := slices.Clone(data[:n])
	want := slices.Clone(header)
	for _, e := range loaded.Table().Sorted() {
		want = append(want, e.Frame()...)
	}

	same := func(name string, got *journal.Journal) {
		t.Helper()
		if got.Loaded() != 0 || got.Appended() != 0 {
			t.Errorf("%s: %d records count as loaded, %d as appended", name, got.Loaded(), got.Appended())
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
	}

	mem := journal.New()
	mem.Adopt(tbl)
	same("adopting journal without a file", mem)
	if mem.AppendsHits() {
		t.Error("a journal without a file appends its hits")
	}

	p := filepath.Join(t.TempDir(), "adopt.journal")
	j, err := journal.Open(p, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	j.KeepFresh()
	j.Adopt(tbl)
	same("adopting journal with a file", j)
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(p); !bytes.Equal(got, header) {
		t.Errorf("adopting journal with a file: file holds %d bytes, want the %d of its header", len(got), len(header))
	}
	if !j.AppendsHits() {
		t.Fatal("an adopting journal with a file does not append its hits")
	}
	for _, r := range recs {
		e, _ := j.Lookup(r.Kind, r.Key)
		if err := j.AppendHit(e, r.Tags); err != nil {
			t.Fatal(err)
		}
	}
	if j.Appended() != 0 || j.Fresh().Len() != 0 {
		t.Errorf("hits count as %d appended, %d fresh", j.Appended(), j.Fresh().Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(p); !bytes.Equal(got, want) {
		t.Errorf("hits journaled with their own tags: file holds %d bytes, want the load's %d", len(got), len(want))
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
