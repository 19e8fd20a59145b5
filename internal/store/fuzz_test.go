package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/journal"
)

// FuzzOpen throws arbitrary bytes at Open. A store is reopened after a
// kill at any instant and may sit on a disk that flips bits, so Open must
// never panic, and when it accepts a file the recovery contract holds on
// whatever it found: a commit lands on top of the recovered state, and a
// reopen replays both from the log exactly as the open store served them
// — the contract journal's FuzzLoad states for checkpoints. Open must
// accept and reject what the decoding reference replay does, keep as many
// bytes, and read the same records, rules and live-byte counts.
func FuzzOpen(f *testing.F) {
	// Seeds: a log with appended transactions of every frame kind, its
	// truncations, a flipped byte, a compacted log, an empty file, junk, the
	// headers of earlier formats, a log of a dozen rule updates with retire
	// frames followed by re-puts, that churned log under the headers of the
	// text-tag and the tombstone formats, and a log whose retire frame names
	// a record its family does not hold.
	path := filepath.Join(f.TempDir(), "seed.store")
	s, err := Open(path, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i, fn := range workloadTxns() {
		tx, err := s.Begin()
		if err == nil {
			err = fn(tx)
		}
		if err == nil {
			err = tx.Commit()
		}
		if err != nil {
			f.Fatal(err)
		}
		if i == 1 || i == 5 || i == 8 { // appended ones; see TestRecoverySweep's log
			seed, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(seed)
			for _, n := range []int{1, headerLen - 1, headerLen, len(seed) / 2, len(seed) - 1} {
				f.Add(seed[:n])
			}
			flipped := append([]byte(nil), seed...)
			flipped[len(flipped)/3] ^= 0x40
			f.Add(flipped)
		}
	}
	s.Close()
	f.Add([]byte{})
	f.Add([]byte("\x08\x00\x00\x00MEISSAS4 but not really a store"))
	f.Add(pagedHeader)
	churned := filepath.Join(f.TempDir(), "churned.store")
	ruleChurn(f, churned, 200, 12)
	churn, err := os.ReadFile(churned)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(churn)
	f.Add(append(journal.AppendFrame(nil, []byte("MEISSAS2")), churn[headerLen:]...))
	f.Add(append(journal.AppendFrame(nil, []byte("MEISSAS3")), churn[headerLen:]...))
	stray := appendID(journal.AppendFrame(nil, []byte(magic)), frameFamily, recFam)
	stray = append(stray, frameOf(recRecord(1, journal.Sat, "acl#miss"))...)
	stray = journal.AppendFrame(stray, binary.LittleEndian.AppendUint64([]byte{frameRetire, byte(journal.KindEmit)}, 2))
	f.Add(appendID(stray, frameCommit, 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.store")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// A file with bytes in it, not of an earlier format, is replayed: the
		// frame tables must read it as the decoding reference does.
		replayed := len(data) > 0 && !(len(data) >= 12 && oldMagics[string(data[4:12])] != "")
		var ref *refState
		var refGood int
		var refErr error
		if replayed {
			ref, refGood, refErr = refReplay(data)
		}
		s, err := Open(path, Options{})
		if replayed && (err == nil) != (refErr == nil) {
			t.Fatalf("Open: %v, the reference replay: %v", err, refErr)
		}
		if err != nil {
			if got, _ := os.ReadFile(path); string(got) != string(data) {
				t.Fatalf("Open refused the file (%v) and changed it", err)
			}
			return
		}
		if replayed {
			sameAsReference(t, s.cur, ref)
			if st := s.Stats(); st.FileBytes != uint64(refGood) {
				t.Fatalf("Open kept %d bytes, the reference %d", st.FileBytes, refGood)
			}
		}
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := putRecord(tx, recFam, recRecord(1<<40, journal.Sat, "fuzz#miss")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit on a recovered store: %v", err)
		}
		want, txid := stateString(t, s), s.Txid()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(path, Options{})
		if err != nil {
			t.Fatalf("reopen after a commit: %v", err)
		}
		defer s.Close()
		if got := stateString(t, s); got != want || s.Txid() != txid {
			t.Fatalf("reopen reads txid %d:\n%s\nthe open store served txid %d:\n%s", s.Txid(), got, txid, want)
		}
		if st := s.Stats(); st.TailDiscarded != 0 {
			t.Fatalf("second open dropped a %d-byte tail the first should have", st.TailDiscarded)
		}
	})
}
