package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/rules"
)

// openTest opens a store in a temp dir, through fs when one is given.
func openTest(t *testing.T, fs FS) *Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "verdicts.store")
	s, err := Open(path, Options{FS: fs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustBegin(t *testing.T, s *Store) *Tx {
	t.Helper()
	tx, err := s.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	return tx
}

func mustCommit(t *testing.T, tx *Tx) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func testRecord(key uint64, verdict journal.Verdict, tags ...string) journal.Record {
	return journal.Record{
		Kind: journal.KindEmit, Key: key, Verdict: verdict,
		Model: []journal.VarVal{{Var: "h.dst", Val: key}},
		Tags:  tagsOf(tags...),
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

// frameOf is r framed as a run's journal hands it to a transaction: Append,
// then the frame its fresh table keeps.
func frameOf(r journal.Record) []byte {
	j := journal.New()
	j.KeepFresh()
	if err := j.Append(r); err != nil {
		panic(err)
	}
	e, _ := j.Fresh().Lookup(r.Kind, r.Key)
	return e.Frame()
}

// putRecord puts r under fam framed as a run's journal frames it.
func putRecord(tx *Tx, fam uint64, r journal.Record) error {
	_, err := tx.Put(fam, frameOf(r))
	return err
}

// putList puts a template list of keys under fp into fam, framed as a
// completed run's journal frames it.
func putList(tx *Tx, fam, fp uint64, keys ...uint64) error {
	_, err := tx.Put(fam, journal.New().Complete(fp, keys))
	return err
}

// TestStoreRoundTrip persists records across a close/reopen and checks
// byte-level record fidelity plus family rules round-trip.
func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.store")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const fam = 0xfeed
	rulesText := "table acl { entry 1 }"

	tx := mustBegin(t, s)
	recs := []journal.Record{
		testRecord(10, journal.Unsat, rules.DepTag("acl", &rules.Entry{}), rules.MissTag("fwd")),
		testRecord(11, journal.Sat, rules.MissTag("acl")),
		{Kind: journal.KindCheck, Key: 10, Verdict: journal.Sat, Tags: tagsOf(rules.MissTag("fwd"))},
	}
	for _, r := range recs {
		if err := putRecord(tx, fam, r); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	tx.SetFamilyRules(fam, rulesText)
	mustCommit(t, tx)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s, err = Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()

	info, ok := s.Family(fam)
	if !ok {
		t.Fatal("Family: not present")
	}
	if info.Rules != rulesText {
		t.Fatalf("rules round-trip: %q", info.Rules)
	}

	sn := s.Snapshot()
	defer sn.Close()
	var got []journal.Record
	if err := sn.Records(fam, func(r journal.Record) bool { got = append(got, r); return true }); err != nil {
		t.Fatalf("Records: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d records, want 3", len(got))
	}
	// Canonical order: (kind, key) — the Check record first.
	if got[0].Kind != journal.KindCheck || got[1].Key != 10 || got[2].Key != 11 {
		t.Fatalf("canonical order broken: %+v", got)
	}
	r, ok, err := sn.GetRecord(fam, journal.KindEmit, 10)
	if err != nil || !ok {
		t.Fatalf("GetRecord: ok=%v err=%v", ok, err)
	}
	if r.Verdict != journal.Unsat || len(r.Model) != 1 || r.Model[0].Var != "h.dst" || len(r.Tags) != 2 {
		t.Fatalf("record fidelity: %+v", r)
	}
	if st := s.Stats(); st.SnapshotReads == 0 {
		t.Fatal("snapshot reads not counted")
	}
}

// TestStoreLastWins overwrites a record and expects the newest verdict.
func TestStoreLastWins(t *testing.T) {
	s := openTest(t, nil)
	const fam = 1
	tx := mustBegin(t, s)
	if err := putRecord(tx, fam, testRecord(5, journal.Unsat, "acl#miss")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	tx = mustBegin(t, s)
	if err := putRecord(tx, fam, testRecord(5, journal.Sat, "acl#miss")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	sn := s.Snapshot()
	defer sn.Close()
	r, ok, err := sn.GetRecord(fam, journal.KindEmit, 5)
	if err != nil || !ok || r.Verdict != journal.Sat {
		t.Fatalf("last-wins: r=%+v ok=%v err=%v", r, ok, err)
	}
	if n := sn.RecordCount(fam); n != 1 {
		t.Fatalf("record count %d, want 1", n)
	}
}

// TestStoreInvalidateTags exercises both tag granularities and checks
// only the affected records vanish.
func TestStoreInvalidateTags(t *testing.T) {
	s := openTest(t, nil)
	const fam = 2
	e := &rules.Entry{}
	aclTag := rules.DepTag("acl", e)

	tx := mustBegin(t, s)
	if err := putRecord(tx, fam, testRecord(1, journal.Unsat, aclTag)); err != nil {
		t.Fatal(err)
	}
	if err := putRecord(tx, fam, testRecord(2, journal.Unsat, rules.MissTag("acl"))); err != nil {
		t.Fatal(err)
	}
	if err := putRecord(tx, fam, testRecord(3, journal.Unsat, rules.MissTag("fwd"))); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	// Full-tag granularity: only record 1 goes.
	tx = mustBegin(t, s)
	n := tx.InvalidateTags(fam, []string{aclTag})
	if n != 1 {
		t.Fatalf("invalidated %d entries, want 1", n)
	}
	mustCommit(t, tx)
	sn := s.Snapshot()
	if _, ok, _ := sn.GetRecord(fam, journal.KindEmit, 1); ok {
		t.Fatal("record 1 survived full-tag invalidation")
	}
	if _, ok, _ := sn.GetRecord(fam, journal.KindEmit, 2); !ok {
		t.Fatal("record 2 (same table, different entry) wrongly invalidated")
	}
	sn.Close()

	// Bare-table granularity: every acl record goes; fwd survives.
	tx = mustBegin(t, s)
	tx.InvalidateTags(fam, []string{"acl"})
	mustCommit(t, tx)
	sn = s.Snapshot()
	defer sn.Close()
	if _, ok, _ := sn.GetRecord(fam, journal.KindEmit, 2); ok {
		t.Fatal("record 2 survived bare-table invalidation")
	}
	if _, ok, _ := sn.GetRecord(fam, journal.KindEmit, 3); !ok {
		t.Fatal("record 3 (other table) wrongly invalidated")
	}
	if st := s.Stats(); st.Invalidated == 0 {
		t.Fatal("invalidations not counted")
	}
}

// TestStorePutRefusesBadFrames: Put takes what replay would read back and
// nothing else — a frame that fails its checksum, is cut short or runs on,
// whose lists overrun it, or that holds no verdict is an error and leaves
// the transaction as it was; a frame the family holds byte for byte is
// reported held and changes nothing.
func TestStorePutRefusesBadFrames(t *testing.T) {
	s := openTest(t, nil)
	const fam = 3
	good := frameOf(testRecord(9, journal.Unsat, "acl#miss"))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x10
	overrun := append([]byte(nil), good[4:len(good)-4]...)
	overrun[len(overrun)-journal.TagLen-2]++ // the tag count runs past the payload
	for name, fr := range map[string][]byte{
		"flipped byte":    flipped,
		"cut short":       good[:len(good)-1],
		"runs on":         append(append([]byte(nil), good...), 0),
		"lists overrun":   journal.AppendFrame(nil, overrun),
		"header":          frameOf(journal.Record{Kind: journal.KindHeader}),
		"tombstone":       appendDead(nil, []string{"acl"}),
		"no frame at all": nil,
	} {
		tx := mustBegin(t, s)
		if held, err := tx.Put(fam, fr); err == nil || held {
			t.Errorf("%s: Put = %v, %v; want an error", name, held, err)
		}
		if len(tx.buf) != 0 || len(tx.fams) != 0 {
			t.Errorf("%s: the refused frame left %d bytes in the transaction", name, len(tx.buf))
		}
		tx.Abort()
	}
	tx := mustBegin(t, s)
	if held, err := tx.Put(fam, good); err != nil || held {
		t.Fatalf("Put = %v, %v; want a new record", held, err)
	}
	if held, err := tx.Put(fam, good); err != nil || !held {
		t.Fatalf("Put again = %v, %v; want it held", held, err)
	}
	mustCommit(t, tx)
	size := s.Stats().FileBytes
	tx = mustBegin(t, s)
	if held, err := tx.Put(fam, good); err != nil || !held {
		t.Fatalf("Put after the commit = %v, %v; want it held", held, err)
	}
	mustCommit(t, tx)
	if st := s.Stats(); st.FileBytes != size || st.Commits != 1 {
		t.Fatalf("a transaction of held frames wrote: file %d -> %d bytes, %d commits", size, st.FileBytes, st.Commits)
	}
}

// TestSnapshotIsolation pins a snapshot, commits new and overwritten
// records past it, and expects the snapshot to keep serving the old
// state while a fresh snapshot sees the new one.
func TestSnapshotIsolation(t *testing.T) {
	s := openTest(t, nil)
	const fam = 4
	tx := mustBegin(t, s)
	for i := uint64(0); i < 50; i++ {
		if err := putRecord(tx, fam, testRecord(i, journal.Unsat, "acl#miss")); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	old := s.Snapshot()
	defer old.Close()

	// Churn: overwrite everything with another verdict each time and add
	// more, across several commits — enough dead bytes for one of them to
	// rewrite the log while the snapshot is open.
	for round := 0; round < 4; round++ {
		tx = mustBegin(t, s)
		for i := uint64(0); i < 80; i++ {
			if err := putRecord(tx, fam, testRecord(i, journal.Verdict(1+round%2), "acl#miss")); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
	}

	n := old.RecordCount(fam)
	if n != 50 {
		t.Fatalf("snapshot sees %d records, want 50", n)
	}
	if err := old.Records(fam, func(r journal.Record) bool {
		if r.Verdict != journal.Unsat {
			t.Fatalf("snapshot saw overwritten verdict for key %d", r.Key)
		}
		return true
	}); err != nil {
		t.Fatalf("snapshot records: %v", err)
	}

	fresh := s.Snapshot()
	defer fresh.Close()
	if n := fresh.RecordCount(fam); n != 80 {
		t.Fatalf("fresh snapshot sees %d records, want 80", n)
	}
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatal("the churn compacted nothing: the snapshot was never tried against a rewrite")
	}
}

// TestCompactionBoundsFile: dead bytes are reclaimed. Under churn that
// overwrites one working set, each time with the other verdict, the file
// stops growing — it never holds more
// than twice what a rewrite would, plus the transaction that tipped it —
// a compacted log is exactly its live frames, and a reopen after
// compaction reads the same state.
func TestCompactionBoundsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.store")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const fam = 5
	round := 0
	churn := func() {
		tx := mustBegin(t, s)
		round++
		for i := uint64(0); i < 30; i++ {
			if err := putRecord(tx, fam, testRecord(i, journal.Verdict(round%2), "t#miss")); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
	}
	churn()
	live := s.cur.live()
	for i := 0; i < 22; i++ {
		before := s.Stats().Compactions
		churn()
		st := s.Stats()
		if got := s.cur.live(); got != live {
			t.Fatalf("churn %d: live bytes %d, want the stable working set's %d", i, got, live)
		}
		if st.FileBytes > 2*live {
			t.Fatalf("churn %d: file is %d bytes, live ones %d: dead bytes not reclaimed", i, st.FileBytes, live)
		}
		if st.Compactions > before && st.FileBytes != live {
			t.Fatalf("churn %d: compacted log is %d bytes, its live frames %d", i, st.FileBytes, live)
		}
	}
	st := s.Stats()
	if st.Compactions < 5 {
		t.Fatalf("%d compactions over 23 overwrites of one working set", st.Compactions)
	}
	if fi, err := os.Stat(path); err != nil || uint64(fi.Size()) != st.FileBytes {
		t.Fatalf("file size %v (err %v), store says %d", fi.Size(), err, st.FileBytes)
	}
	want := storeState(t, s, fam)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Fatalf("compaction left its temporary file behind (stat err %v)", err)
	}
	if _, err := os.Stat(path + "-wal"); !os.IsNotExist(err) {
		t.Fatalf("the store created a -wal sidecar (stat err %v)", err)
	}
	s, err = Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer s.Close()
	if got := storeState(t, s, fam); got != want {
		t.Fatalf("state after reopen:\n%s\nwant:\n%s", got, want)
	}
	if st := s.Stats(); st.TailDiscarded != 0 {
		t.Fatalf("clean reopen discarded a %d-byte tail", st.TailDiscarded)
	}
}

// TestTransientWriteError: an injected I/O error during commit (before
// the commit point) aborts cleanly and the store remains usable.
func TestTransientWriteError(t *testing.T) {
	fp := &Failpoints{}
	s := openTest(t, &FailFS{Base: OSFS{}, FP: fp})
	const fam = 6

	tx := mustBegin(t, s)
	if err := putRecord(tx, fam, testRecord(1, journal.Unsat, "t#miss")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	// Fail the next commit's write.
	fp.mu.Lock()
	fp.FailAt = fp.ops + 1
	fp.mu.Unlock()
	tx = mustBegin(t, s)
	if err := putRecord(tx, fam, testRecord(2, journal.Unsat, "t#miss")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit succeeded through injected error")
	}

	// The failed transaction must be invisible and the store writable.
	sn := s.Snapshot()
	if _, ok, _ := sn.GetRecord(fam, journal.KindEmit, 2); ok {
		t.Fatal("aborted record visible")
	}
	sn.Close()
	tx = mustBegin(t, s)
	if err := putRecord(tx, fam, testRecord(3, journal.Sat, "t#miss")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	sn = s.Snapshot()
	defer sn.Close()
	if _, ok, _ := sn.GetRecord(fam, journal.KindEmit, 3); !ok {
		t.Fatal("store unusable after clean abort")
	}
	if st := s.Stats(); st.Aborts == 0 {
		t.Fatal("abort not counted")
	}
}

// TestStoreManyFamilies keeps families disjoint.
func TestStoreManyFamilies(t *testing.T) {
	s := openTest(t, nil)
	tx := mustBegin(t, s)
	for fam := uint64(0); fam < 8; fam++ {
		for i := uint64(0); i < 10; i++ {
			if err := putRecord(tx, fam, testRecord(i, journal.Verdict(fam%2), "t#miss")); err != nil {
				t.Fatal(err)
			}
		}
		tx.SetFamilyRules(fam, fmt.Sprintf("rules-%d", fam))
	}
	mustCommit(t, tx)
	sn := s.Snapshot()
	defer sn.Close()
	for fam := uint64(0); fam < 8; fam++ {
		if n := sn.RecordCount(fam); n != 10 {
			t.Fatalf("family %d: %d records", fam, n)
		}
		info, ok := sn.Family(fam)
		if !ok || info.Rules != fmt.Sprintf("rules-%d", fam) {
			t.Fatalf("family %d rules: %+v ok=%v", fam, info, ok)
		}
	}
}

// pagedHeader is the first bytes of a store written by the page-based
// engine of earlier releases: a page checksum, then its magic at bytes
// 4-12, a version and a page size.
var pagedHeader = append([]byte{0xde, 0xad, 0xbe, 0xef}, "MEISSAS1\x01\x00\x00\x10\x00\x00"...)

// TestOpenRefusesPagedStore: a file of the page-based format — its magic
// in the main file, or a non-empty -wal beside a main file a crash left
// empty — is refused with an error that names the format and the way out
// that still works, and nothing on disk changes: no fresh log is
// initialised over it.
func TestOpenRefusesPagedStore(t *testing.T) {
	for _, tc := range []struct{ name, main, wal string }{
		{"magic in the main file", string(pagedHeader) + strings.Repeat("\x00", 200), ""},
		{"non-empty wal, empty main file", "", "\x09\x00\x00\x00Ctxid...."},
		{"both", string(pagedHeader), "\x09\x00\x00\x00Ctxid...."},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refusesOldStore(t, tc.main, tc.wal, "page-based", "MEISSAS1", "delete", "re-populate", "meissa gen -store")
		})
	}
}

// TestOpenRefusesTextTagStore: a log of the format whose record frames
// spelt their dependency tags out (MEISSAS2) is refused as the paged
// format is, the error naming the file, the format, where it reads it and
// the way out.
func TestOpenRefusesTextTagStore(t *testing.T) {
	log := journal.AppendFrame(nil, []byte(textMagic))
	log = appendID(log, frameFamily, recFam)
	log = appendRules(log, "rules-v1: acl{allow}")
	// A verdict as MEISSAS2 framed it: kind verdict key(8) nm(2) nt(2) {tlen(2) tag}*.
	p := binary.LittleEndian.AppendUint64([]byte{byte(journal.KindCheck), byte(journal.Sat)}, 1)
	p = binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint16(p, 0), 1)
	log = journal.AppendFrame(log, append(binary.LittleEndian.AppendUint16(p, 8), "acl#miss"...))
	log = appendID(log, frameCommit, 1)
	refusesOldStore(t, string(log), "", textMagic, "offset 4", "as text", "re-populate", "meissa gen -store")
}

// TestOpenRefusesForeignFrames: an intact frame no release writes into a
// MEISSAS3 log — the 'C' solver-cache frame of releases before PR 20, or a
// tombstone whose tag overruns it — is ErrCorrupt naming its offset, and
// the file stays as it is.
func TestOpenRefusesForeignFrames(t *testing.T) {
	head := journal.AppendFrame(nil, []byte(magic))
	head = appendID(head, frameFamily, recFam)
	head = appendRules(head, "rules-v1: acl{allow}")
	for name, fr := range map[string][]byte{
		"cache entry":        journal.AppendFrame(nil, append([]byte{'C'}, make([]byte, 23)...)),
		"tombstone overruns": journal.AppendFrame(nil, append([]byte{frameDead, 9, 0}, "acl"...)),
	} {
		t.Run(name, func(t *testing.T) {
			data := appendID(append(append([]byte(nil), head...), fr...), frameCommit, 1)
			path := filepath.Join(t.TempDir(), "foreign.store")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(path, Options{})
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprint("offset ", len(head))) {
				t.Fatalf("Open: %v; want ErrCorrupt at offset %d", err, len(head))
			}
			if got, _ := os.ReadFile(path); string(got) != string(data) {
				t.Error("the refused file changed")
			}
		})
	}
}

// refusesOldStore checks that Open refuses a store whose file holds main
// and whose -wal holds wal (none when empty) with an error that names the
// file and each of want, and that nothing on disk changes.
func refusesOldStore(t *testing.T, main, wal string, want ...string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "old.store")
	if err := os.WriteFile(path, []byte(main), 0o644); err != nil {
		t.Fatal(err)
	}
	if wal != "" {
		if err := os.WriteFile(path+"-wal", []byte(wal), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := Open(path, Options{})
	if err == nil {
		t.Fatal("Open accepted a store of an earlier format")
	}
	for _, w := range append(want, path) {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("error %q does not mention %q", err, w)
		}
	}
	if got, _ := os.ReadFile(path); string(got) != main {
		t.Errorf("main file changed: %d bytes, was %d", len(got), len(main))
	}
	if got, _ := os.ReadFile(path + "-wal"); string(got) != wal {
		t.Errorf("wal changed: %d bytes, was %d", len(got), len(wal))
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if n := e.Name(); n != "old.store" && n != "old.store-wal" && n != "old.store-lock" {
			t.Errorf("Open left %s behind", n)
		}
	}
}

// TestCorruptionInsideHistory: one flipped byte inside a committed
// transaction that is not the last makes Open fail with ErrCorrupt and
// leaves the file alone — a later commit marker proves the damaged bytes
// were durable history, which truncation must not shorten. The same flip
// inside the last transaction cannot be told from a torn write: it is
// dropped as one, and counted.
func TestCorruptionInsideHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.store")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const fam = 7
	var ends []int // the file's size after each commit
	for round := uint64(0); round < 3; round++ {
		tx := mustBegin(t, s)
		for i := uint64(0); i < 40; i++ {
			if err := putRecord(tx, fam, testRecord(100*round+i, journal.Sat, "t#miss", "u#miss")); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
		ends = append(ends, int(s.Stats().FileBytes))
	}
	if st := s.Stats(); st.Compactions != 0 {
		t.Fatalf("%d compactions: the test wants three appended transactions", st.Compactions)
	}
	s.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flipAt := func(off int) {
		t.Helper()
		damaged := append([]byte(nil), clean...)
		damaged[off] ^= 0x04
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, off := range map[string]int{
		"first transaction":  headerLen + 40,
		"second transaction": (ends[0] + ends[1]) / 2,
		"second marker":      ends[1] - 6,
	} {
		flipAt(off)
		if _, err := Open(path, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip in the %s: Open returned %v, want ErrCorrupt", name, err)
		}
		if got, _ := os.ReadFile(path); len(got) != len(clean) {
			t.Fatalf("flip in the %s: Open changed the file's size %d -> %d", name, len(clean), len(got))
		}
	}

	flipAt((ends[1] + ends[2]) / 2)
	s, err = Open(path, Options{})
	if err != nil {
		t.Fatalf("flip in the last transaction: %v", err)
	}
	defer s.Close()
	sn := s.Snapshot()
	defer sn.Close()
	if n := sn.RecordCount(fam); n != 80 {
		t.Fatalf("%d records after the last transaction was dropped, want the first two's 80", n)
	}
	if st := s.Stats(); int(st.TailDiscarded) != ends[2]-ends[1] || int(st.FileBytes) != ends[1] {
		t.Fatalf("tail discarded %d, file %d bytes; want %d and %d", st.TailDiscarded, st.FileBytes, ends[2]-ends[1], ends[1])
	}
}

// TestStoreRandomAgainstModel drives random puts, overwrites, template
// lists, rule updates and tag invalidations through commits, aborts and
// reopens, and checks every committed state — as the open store serves it
// and as a reopen replays it from the log — against a map model.
func TestStoreRandomAgainstModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.store")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	rng := rand.New(rand.NewSource(1))
	compactions := uint64(0)
	fams := []uint64{11, 12, 13}
	tables := []string{"acl", "fwd", "nat"}
	type modelFam struct {
		recs  map[uint64]journal.Record
		rules string
		list  []uint64 // the template list's path keys; nil for none
	}
	model := map[uint64]*modelFam{}
	for _, fam := range fams {
		model[fam] = &modelFam{recs: map[uint64]journal.Record{}}
	}
	clone := func() map[uint64]*modelFam {
		c := map[uint64]*modelFam{}
		for fam, m := range model {
			c[fam] = &modelFam{recs: maps.Clone(m.recs), rules: m.rules, list: m.list}
		}
		return c
	}
	check := func(step int, what string) {
		t.Helper()
		sn := s.Snapshot()
		defer sn.Close()
		for _, fam := range fams {
			m := model[fam]
			got := map[uint64]journal.Record{}
			last := uint64(0)
			sn.Records(fam, func(r journal.Record) bool {
				if len(got) > 0 && r.Key <= last {
					t.Fatalf("step %d (%s): records out of canonical order", step, what)
				}
				got[r.Key], last = r, r.Key
				return true
			})
			if len(got) != len(m.recs) {
				t.Fatalf("step %d (%s): family %d has %d records, model %d", step, what, fam, len(got), len(m.recs))
			}
			for k, want := range m.recs {
				if g := got[k]; g.Verdict != want.Verdict || !slices.Equal(g.Tags, want.Tags) {
					t.Fatalf("step %d (%s): family %d key %d: %+v, model %+v", step, what, fam, k, g, want)
				}
			}
			if info, ok := sn.Family(fam); ok != (m.rules != "") || info.Rules != m.rules {
				t.Fatalf("step %d (%s): family %d rules %q (present %v), model %q", step, what, fam, info.Rules, ok, m.rules)
			}
			if l := sn.Table(fam).Templates(); (l.Frame() != nil) != (m.list != nil) || !slices.Equal(l.PathKeys(), m.list) || m.list != nil && l.Key() != fam {
				t.Fatalf("step %d (%s): family %d template list %v under %#x, model %v", step, what, fam, l.PathKeys(), l.Key(), m.list)
			}
		}
	}
	text := map[journal.Tag]string{} // the model matches on the tags' text
	randomTags := func() []string {
		tb := tables[rng.Intn(len(tables))]
		tags := []string{rules.MissTag(tb)}
		if rng.Intn(2) == 0 {
			tags = append(tags, rules.DepTag(tables[rng.Intn(len(tables))], &rules.Entry{Action: fmt.Sprint("a", rng.Intn(3))}))
		}
		for _, tag := range tags {
			text[journal.TagOf(tag)] = tag
		}
		return tags
	}
	for step := 0; step < 300; step++ {
		saved := clone()
		tx := mustBegin(t, s)
		for op := rng.Intn(12); op >= 0; op-- {
			fam := fams[rng.Intn(len(fams))]
			m := model[fam]
			switch rng.Intn(10) {
			case 0: // a rule update: invalidate by a full tag or a whole table
				tb := tables[rng.Intn(len(tables))]
				tag := tb
				if rng.Intn(2) == 0 {
					tag = rules.MissTag(tb)
				}
				match := func(tags []journal.Tag) bool {
					for _, h := range tags {
						if x := text[h]; x == tag || (tag == tb && strings.Split(x, "#")[0] == tb) {
							return true
						}
					}
					return false
				}
				want := 0
				for k, r := range m.recs {
					if match(r.Tags) {
						delete(m.recs, k)
						want++
					}
				}
				if n := tx.InvalidateTags(fam, []string{tag}); n != want {
					t.Fatalf("step %d: InvalidateTags(%q) = %d; model retires %d", step, tag, n, want)
				}
				if text := fmt.Sprint("rules after step ", step); text != m.rules {
					m.rules, m.list = text, nil // other rules drop the list
				}
				tx.SetFamilyRules(fam, m.rules)
			case 1: // a completed run's template list, over the family's
				m.list = []uint64{}
				for i := rng.Intn(4); i > 0; i-- {
					m.list = append(m.list, uint64(rng.Intn(60)))
				}
				if err := putList(tx, fam, fam, m.list...); err != nil {
					t.Fatal(err)
				}
				if held, err := tx.Put(fam, journal.New().Complete(fam, m.list)); err != nil || !held {
					t.Fatalf("step %d: the transaction does not read its own list (%v)", step, err)
				}
			default:
				r := testRecord(uint64(rng.Intn(60)), journal.Verdict(rng.Intn(3)), randomTags()...)
				if err := putRecord(tx, fam, r); err != nil {
					t.Fatal(err)
				}
				m.recs[r.Key] = r
				if held, err := tx.Put(fam, frameOf(r)); err != nil || !held {
					t.Fatalf("step %d: the transaction does not read its own write (%v)", step, err)
				}
			}
		}
		if rng.Intn(8) == 0 {
			tx.Abort()
			model = saved
			check(step, "after an abort")
			continue
		}
		mustCommit(t, tx)
		for _, m := range model {
			if m.rules == "" && len(m.recs) == 0 {
				m.list = nil // a family of a list alone is empty, and goes
			}
		}
		check(step, "open store")
		if rng.Intn(6) == 0 {
			compactions += s.Stats().Compactions
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(path, Options{}); err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
			check(step, "after a reopen")
		}
	}
	if compactions+s.Stats().Compactions == 0 {
		t.Fatal("300 steps of churn never compacted the log")
	}
}

// GetRecord reads one verdict record from the snapshot.
func (sn *Snapshot) GetRecord(fam uint64, kind journal.Kind, key uint64) (journal.Record, bool, error) {
	e, ok := sn.st.fam(fam).recs.Lookup(kind, key)
	if ok {
		sn.s.count(&sn.s.stats.SnapshotReads, 1)
	}
	return e.Record(), ok, nil
}
