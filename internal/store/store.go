package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/journal"
)

// Options configures Open. The zero value is production defaults.
type Options struct {
	// FS is the filesystem to perform I/O through; nil means the real OS
	// (the recovery tests pass one that injects failpoints).
	FS FS
	// LockWait bounds how long Open waits for a busy store's advisory lock
	// before failing with ErrStoreBusy. Zero makes one attempt.
	LockWait time.Duration
}

// ErrCorrupt reports a store file damaged beyond the crash model: a frame
// inside committed history failing its checksum, or an intact one that
// makes no sense. Open never heals either by dropping history.
var ErrCorrupt = errors.New("corrupt store file")

// ErrWedged is returned by writes after an I/O error left a commit's
// outcome open, or left the committed state unread after a transaction
// that changed it did not commit. Reopening recovers to a transaction
// boundary.
var ErrWedged = errors.New("wedged by I/O error; reopen to recover")

// oldMagics are the headers of earlier releases' store formats, at bytes
// 4-12 of the file, with what made them different: Open refuses them by
// name.
var oldMagics = map[string]string{
	"MEISSAS1": "a page-based store: B+tree and -wal",
	"MEISSAS2": "its record frames spell each dependency tag out as text",
	"MEISSAS3": "its tombstones name the retired tags, not the retired records",
}

// oldFormat is Open's refusal of a file of the format old, which where
// says how Open told.
func oldFormat(where, old string) error {
	return fmt.Errorf("%s %s, a verdict store format this release does not read (%s): "+
		"delete it and any -wal beside it and re-populate a new store with `meissa gen -store` (every verdict is re-derivable)",
		where, old, oldMagics[old])
}

// Stats are one open store's counters.
type Stats struct {
	Commits       uint64 // committed transactions this open
	Aborts        uint64 // aborted transactions this open
	Compactions   uint64 // commits that rewrote the log instead of appending
	TailDiscarded uint64 // bytes of uncommitted tail dropped at Open
	FileBytes     uint64 // committed size of the file
	SnapshotReads uint64 // records served through snapshots and transactions' family tables
	Invalidated   uint64 // records a Retire removed
	// TagTests counts records tested against retired tags: every record of
	// the family a Retire names. Open tests none.
	TagTests uint64
}

// Store is an open verdict store, one goroutine's: every run opens it,
// holds at most one transaction on it and closes it, and the advisory lock
// keeps other processes out. It keeps one state, the committed one, which
// an open transaction changes in place; a transaction that changed it and
// does not commit reads the committed log back.
type Store struct {
	fs   FS
	path string
	lock *fileLock // advisory cross-process lock (nil with an injected FS)
	f    File      // the log

	cur    *state // the committed state, as the open transaction has left it
	tx     *Tx    // the open transaction, nil for none
	wedged error
	stats  Stats
}

// Open opens or creates the store at path and replays its log up to the
// last intact commit marker, dropping an uncommitted tail. A file in a
// format of earlier releases is refused, never overwritten.
func Open(path string, opts Options) (*Store, error) {
	s := &Store{fs: opts.FS, path: path}
	if s.fs == nil {
		// The advisory lock keeps a second live writer (another CLI run on
		// the same store) out. An injected FS simulates a process: nothing
		// to lock.
		s.fs = OSFS{}
		var err error
		if s.lock, err = acquireLock(path+"-lock", opts.LockWait); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", path, err)
		}
	}
	if err := s.load(); err != nil {
		if s.f != nil {
			s.f.Close()
		}
		s.lock.release()
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	return s, nil
}

func (s *Store) load() error {
	// A non-empty write-ahead log means a paged store, possibly one whose
	// main file a crash left empty or torn.
	if wal, err := s.fs.OpenFile(s.path+"-wal", os.O_RDONLY, 0); err == nil {
		n, _ := wal.Size()
		wal.Close()
		if n > 0 {
			return oldFormat("a non-empty -wal beside it marks", "MEISSAS1")
		}
	}
	var err error
	if s.f, err = s.fs.OpenFile(s.path, os.O_RDWR|os.O_CREATE, 0o644); err != nil {
		return err
	}
	size, err := s.f.Size()
	if err != nil {
		return err
	}
	if size == 0 {
		// A new store comes into being as a compacted one does: whole.
		s.cur, s.stats.FileBytes, err = s.rewrite(&state{fams: map[uint64]*family{}})
		return err
	}
	st, good, err := s.readLog(size)
	if err != nil {
		return err
	}
	if tail := uint64(size) - uint64(good); tail > 0 {
		// Not synced: a truncation the machine loses is redone by the next
		// Open, and the next commit's sync covers it.
		if err := s.f.Truncate(int64(good)); err != nil {
			return err
		}
		s.stats.TailDiscarded += tail
	}
	s.cur, s.stats.FileBytes = st, uint64(good)
	s.fs.Remove(s.path + ".compact") // what a crashed compaction left; absent otherwise
	return nil
}

// readLog reads the log's first size bytes and replays them (replay). The
// state's tables keep the bytes read: an entry is its frame.
func (s *Store) readLog(size int64) (*state, int, error) {
	data := make([]byte, size)
	if _, err := s.f.ReadAt(data, 0); err != nil && err != io.EOF {
		return nil, 0, err
	}
	if size >= 12 && oldMagics[string(data[4:12])] != "" {
		return nil, 0, oldFormat("the header at offset 4 reads", string(data[4:12]))
	}
	return replay(data)
}

// rollback puts the committed state back after a transaction that changed
// it did not commit: it reads the committed log again, as Open does, and
// counts nothing of what it reads. Failing that, the store is wedged.
func (s *Store) rollback() {
	st, _, err := s.readLog(int64(s.stats.FileBytes))
	if err != nil {
		s.wedged = fmt.Errorf("%w (cause: rollback: %v)", ErrWedged, err)
		return
	}
	s.cur = st
}

// Close releases the file and the lock; commits are durable already.
func (s *Store) Close() error {
	defer s.lock.release()
	return s.f.Close()
}

// Path returns the store file's path.
func (s *Store) Path() string { return s.path }

// Txid returns the committed transaction ID.
func (s *Store) Txid() uint64 { return s.cur.txid }

// Stats returns this store's lifetime counters.
func (s *Store) Stats() Stats { return s.stats }

// Tx is the store's one open transaction. It changes the committed state
// in place, so it reads its own writes, and so does every read of the
// store while it is open; its frames wait in memory for the commit.
type Tx struct {
	s     *Store
	full  [][]byte // its frames, in call order: the chunks filled,
	buf   []byte   // and the one filling, which the entries it put point into
	scope *family  // the family the last family frame names
}

// txChunk bounds a chunk: one buffer growing to a run's verdicts would be
// copied five times over on the way. No append writes over bytes a chunk
// holds, so the entries that point into one — or into an array an append
// outgrew — stay valid.
const txChunk = 1 << 20

// Begin starts a transaction. A store holds one at a time: Begin while
// one is open is an error.
func (s *Store) Begin() (*Tx, error) {
	switch {
	case s.wedged != nil:
		return nil, s.wedged
	case s.tx != nil:
		return nil, errors.New("store: a transaction is open already")
	}
	s.tx = &Tx{s: s}
	return s.tx, nil
}

// in returns fam to change, with buf scoped to it.
func (tx *Tx) in(fam uint64) *family {
	f := tx.s.cur.edit(fam)
	if len(tx.buf) >= txChunk {
		tx.full, tx.buf = append(tx.full, tx.buf), make([]byte, 0, txChunk+txChunk/8)
	}
	if tx.scope != f {
		tx.scope = f
		tx.buf = appendID(tx.buf, frameFamily, fam)
	}
	return f
}

// Put stores the verdict framed by fr — one whole frame, as a journal's
// table holds it — under family fam, over any record of its kind and key,
// or the template list framed by fr over the family's, and reports whether
// fam, as the transaction has left it, held those bytes already; then
// nothing changes. A list must follow the rules it belongs to: installing
// other rules drops the family's list (SetFamilyRules). A frame replay
// would refuse — failing its checksum, overrunning itself, or of another
// kind — is an error. The family keeps a copy of fr, written into the
// transaction's chunk.
func (tx *Tx) Put(fam uint64, fr []byte) (held bool, err error) {
	e, ok := journal.EntryOf(fr)
	if _, n, intact := journal.SplitFrame(fr); !ok || !intact || n != len(fr) ||
		(e.Kind() != journal.KindCheck && e.Kind() != journal.KindEmit && e.Kind() != journal.KindTemplates) {
		return false, fmt.Errorf("store: %d bytes hold no verdict frame", len(fr))
	}
	recs := &tx.s.cur.fam(fam).recs
	old, ok := recs.Lookup(e.Kind(), e.Key())
	if e.Kind() == journal.KindTemplates {
		old, ok = recs.Templates(), true
	}
	if ok && bytes.Equal(old.Frame(), fr) {
		return true, nil
	}
	f := tx.in(fam)
	at := len(tx.buf)
	tx.buf = append(tx.buf, fr...)
	f.put(tx.buf[at:len(tx.buf):len(tx.buf)])
	return false, nil
}

// Retire removes every record of fam one of whose dependency tags passes
// match (journal.Entry.DependsOn), testing each record once, and returns
// how many went. With SetFamilyRules in one transaction it is the atomic
// rule update. The log receives a retire frame of the retired keys, in
// canonical order, which Open deletes as it reads; retiring nothing
// writes nothing.
func (tx *Tx) Retire(fam uint64, match func(tag []byte) bool) int {
	recs := &tx.s.cur.fam(fam).recs
	tx.s.stats.TagTests += uint64(recs.Len())
	var gone []journal.Entry
	recs.DeleteFunc(func(e journal.Entry) bool {
		if !e.DependsOn(match) {
			return false
		}
		gone = append(gone, e)
		return true
	})
	if len(gone) == 0 {
		return 0
	}
	slices.SortFunc(gone, func(a, b journal.Entry) int {
		return cmp.Or(cmp.Compare(a.Kind(), b.Kind()), cmp.Compare(a.Key(), b.Key()))
	})
	f := tx.in(fam)
	p := append(make([]byte, 0, 1+9*len(gone)), frameRetire)
	for _, e := range gone {
		f.bytes -= int64(len(e.Frame()))
		p = binary.LittleEndian.AppendUint64(append(p, byte(e.Kind())), e.Key())
	}
	tx.buf = journal.AppendFrame(tx.buf, p)
	tx.s.stats.Invalidated += uint64(len(gone))
	return len(gone)
}

// SetFamilyRules records the rules text the family's entries are valid
// under. Text that is not the family's rules drops its template list.
func (tx *Tx) SetFamilyRules(fam uint64, rulesText string) {
	tx.in(fam).setRules(rulesText)
	tx.buf = appendRules(tx.buf, rulesText)
}

// Table returns fam's table, shared and not copied, and counts its records
// as read. It is the live table: the transaction's later calls change it
// in place. A warm start takes it before it retires anything and puts it
// in its journal; nobody else may change it.
func (tx *Tx) Table(fam uint64) *journal.Table {
	recs := &tx.s.cur.fam(fam).recs
	tx.s.stats.SnapshotReads += uint64(recs.Len())
	return recs
}

// Abort discards the transaction, and does nothing once it ended. Nothing
// of it reached disk; when it changed the state, the committed state is
// read back from the log.
func (tx *Tx) Abort() {
	s := tx.s
	if s.tx != tx {
		return
	}
	s.tx = nil
	s.stats.Aborts++
	if len(tx.buf) > 0 { // a frame follows every in
		s.rollback()
	}
}

// Commit makes the transaction durable and returns only once it is: its
// frames and a commit marker are written past the end of the log and the
// log is synced — or, when that would leave the log more dead bytes
// than live ones, the whole state replaces it. An error before the commit
// point aborts cleanly; one at or after it wedges the store.
func (tx *Tx) Commit() error {
	s := tx.s
	if s.tx != tx {
		return errors.New("store: transaction already finished")
	}
	s.tx = nil
	if len(tx.buf) == 0 {
		return nil // read-only transaction: a frame follows every in
	}
	st := s.cur
	st.txid++
	maps.DeleteFunc(st.fams, func(_ uint64, f *family) bool { return f.empty() })
	chunks := append(tx.full, appendID(tx.buf, frameCommit, st.txid))
	size := s.stats.FileBytes
	for _, c := range chunks {
		size += uint64(len(c))
	}
	compact := size > 2*st.live()
	var err error
	if compact {
		st, size, err = s.rewrite(st)
	} else {
		err = s.append(chunks)
	}
	if err != nil {
		err = fmt.Errorf("store: commit: %w", err)
		if errors.Is(err, ErrWedged) {
			s.wedged = err
		} else {
			s.stats.Aborts++
			s.rollback()
		}
		return err
	}
	s.cur, s.stats.FileBytes = st, size
	s.stats.Commits++
	if compact {
		s.stats.Compactions++
	}
	return nil
}

// append commits a transaction's frames to the end of the log. Its error
// wraps ErrWedged when what reached disk is open.
func (s *Store) append(chunks [][]byte) error {
	size := int64(s.stats.FileBytes)
	off := size
	for _, c := range chunks {
		if _, err := s.f.WriteAt(c, off); err != nil {
			// Before the commit point; but what the writes left must not
			// stay for a shorter transaction to be written over the head of.
			if terr := s.f.Truncate(size); terr != nil {
				return fmt.Errorf("%w (cause: %v, then %v)", ErrWedged, err, terr)
			}
			return fmt.Errorf("append: %w", err)
		}
		off += int64(len(c))
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("%w (cause: sync: %v)", ErrWedged, err)
	}
	return nil
}

// rewrite commits a transaction by compaction: next, which holds it,
// becomes a new log of live frames only — a temporary file, synced before
// the rename makes it the store (the commit point), the directory synced
// after. It returns the state read back from the new log, whose entries
// point into it and not into the log bytes it drops, and the log's size;
// or an error as append does.
func (s *Store) rewrite(next *state) (*state, uint64, error) {
	fams := make([]uint64, 0, len(next.fams))
	for fam := range next.fams {
		fams = append(fams, fam)
	}
	slices.Sort(fams)
	buf := journal.AppendFrame(make([]byte, 0, next.live()), []byte(magic))
	for _, fam := range fams {
		buf = next.fams[fam].appendTo(buf, fam)
	}
	if next.txid > 0 {
		buf = appendID(buf, frameCommit, next.txid)
	}
	repointed, _, err := replay(buf)
	if err != nil {
		return nil, 0, fmt.Errorf("compact: %w", err)
	}

	tmp := s.path + ".compact"
	f, err := s.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("compact: %w", err)
	}
	if _, err = f.WriteAt(buf, 0); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = s.fs.Rename(tmp, s.path)
	}
	if err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return nil, 0, fmt.Errorf("compact: %w", err)
	}
	s.f.Close()
	s.f = f
	// Whether the rename survives a machine crash is the directory's to say.
	dir, err := s.fs.OpenFile(filepath.Dir(s.path), os.O_RDONLY, 0)
	if err == nil {
		err = dir.Sync()
		dir.Close()
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%w (cause: compact: sync directory: %v)", ErrWedged, err)
	}
	return repointed, uint64(len(buf)), nil
}

// Snapshot reads the store's state as it is when each call reads it: the
// committed one, or an open transaction's. It pins nothing.
type Snapshot struct{ s *Store }

// Snapshot returns a reader of the store's state.
func (s *Store) Snapshot() *Snapshot { return &Snapshot{s} }

// Close releases the snapshot.
func (sn *Snapshot) Close() {}

// FamilyInfo describes the rules a family's records are valid under.
type FamilyInfo struct {
	RulesHash uint64
	Rules     string
	// Templates is the template list of the last completed run under Rules
	// (journal.Table.Templates), the zero Entry for none.
	Templates journal.Entry
}

// Family reads a family's rules from the store's state.
func (s *Store) Family(fam uint64) (FamilyInfo, bool) { return s.Snapshot().Family(fam) }

// Family reads the rules the family's records are valid under.
func (sn *Snapshot) Family(fam uint64) (FamilyInfo, bool) {
	f := sn.s.cur.fam(fam)
	if !f.hasRules {
		return FamilyInfo{}, false
	}
	return FamilyInfo{RulesHash: hash64(f.rules), Rules: f.rules, Templates: f.recs.Templates()}, true
}

// Records visits fam's verdict records in canonical (kind, key) order
// until fn returns false, decoded.
func (sn *Snapshot) Records(fam uint64, fn func(journal.Record) bool) error {
	served := uint64(0)
	for _, r := range sn.s.cur.fam(fam).recs.Records() {
		served++
		if !fn(r) {
			break
		}
	}
	sn.s.stats.SnapshotReads += served
	return nil
}

// RecordCount returns the number of verdict records stored for fam; its
// template list is none.
func (sn *Snapshot) RecordCount(fam uint64) int { return sn.s.cur.fam(fam).recs.Len() }
