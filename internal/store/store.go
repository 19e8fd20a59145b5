package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/journal"
)

// Options configures Open. The zero value is production defaults.
type Options struct {
	// FS is the filesystem to perform I/O through; nil means the real OS
	// (the recovery harness injects a FailFS).
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
// outcome open. Reopening recovers to a transaction boundary.
var ErrWedged = errors.New("wedged by I/O error; reopen to recover")

var errPaged = errors.New("a page-based (MEISSAS1: B+tree and -wal) verdict store, which this release does not read: " +
	"delete it and its -wal and re-populate a new store with `meissa gen -store` (every verdict is re-derivable)")

var errTextTags = errors.New("the header at offset 4 reads " + textMagic + ", a verdict store format this release does not read " +
	"(its record frames spell each dependency tag out as text): " +
	"delete it and re-populate a new store with `meissa gen -store` (every verdict is re-derivable)")

// Stats are one open store's counters.
type Stats struct {
	Commits       uint64 // committed transactions this open
	Aborts        uint64 // aborted transactions this open
	Compactions   uint64 // commits that rewrote the log instead of appending
	TailDiscarded uint64 // bytes of uncommitted tail dropped at Open
	FileBytes     uint64 // committed size of the file
	SnapshotReads uint64 // records served through snapshot handles
	Invalidated   uint64 // records removed by tag invalidation
	// TagTests counts records tested against retired tags: at Open each
	// record a tombstone follows, once, and every record of the family an
	// invalidation names.
	TagTests uint64
}

// Store is an open verdict store, safe for concurrent use: transactions
// serialize on a writer lock, snapshots read concurrently with the writer.
type Store struct {
	fs   FS
	path string
	lock *fileLock // advisory cross-process lock (nil with an injected FS)

	txMu sync.Mutex // single writer, held Begin → Commit/Abort
	f    File       // the log; written under txMu

	mu     sync.Mutex // guards everything below
	cur    *state     // the committed state
	wedged error
	stats  Stats // FileBytes, the log's committed size, changes under txMu too
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
			return errPaged
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
	// The committed state's tables keep this buffer: an entry is its frame.
	data := make([]byte, size)
	if _, err := s.f.ReadAt(data, 0); err != nil && err != io.EOF {
		return err
	}
	if size >= 12 {
		switch string(data[4:12]) {
		case pagedMagic:
			return errPaged
		case textMagic:
			return errTextTags
		}
	}
	st, good, tests, err := replay(data)
	if err != nil {
		return err
	}
	if tail := uint64(len(data) - good); tail > 0 {
		// Not synced: a truncation the machine loses is redone by the next
		// Open, and the next commit's sync covers it.
		if err := s.f.Truncate(int64(good)); err != nil {
			return err
		}
		s.count(&s.stats.TailDiscarded, tail)
	}
	s.cur, s.stats.FileBytes, s.stats.TagTests = st, uint64(good), tests
	s.fs.Remove(s.path + ".compact") // what a crashed compaction left; absent otherwise
	return nil
}

// Close releases the file and the lock; commits are durable already.
func (s *Store) Close() error {
	defer s.lock.release()
	return s.f.Close()
}

// Path returns the store file's path.
func (s *Store) Path() string { return s.path }

// Txid returns the committed transaction ID.
func (s *Store) Txid() uint64 { return s.Snapshot().st.txid }

// Stats returns this store's lifetime counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// count adds n to one of the store's counters.
func (s *Store) count(field *uint64, n uint64) {
	s.mu.Lock()
	*field += n
	s.mu.Unlock()
}

// Tx is a writer transaction, one at a time; it reads its own writes.
type Tx struct {
	s     *Store
	base  *state
	fams  map[uint64]*family // clones of the families it touched
	full  [][]byte           // its frames, in call order: the chunks filled,
	buf   []byte             // and the one filling, which the clones' entries point into
	scope *family            // the family the last family frame names
	done  bool
}

// txChunk bounds a chunk: one buffer growing to a run's verdicts would be
// copied five times over on the way. No append writes over bytes a chunk
// holds, so the entries that point into one — or into an array an append
// outgrew — stay valid.
const txChunk = 1 << 20

// Begin starts a transaction once any current writer has finished.
func (s *Store) Begin() (*Tx, error) {
	s.txMu.Lock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wedged != nil {
		s.txMu.Unlock()
		return nil, s.wedged
	}
	return &Tx{s: s, base: s.cur, fams: map[uint64]*family{}}, nil
}

// in returns the transaction's clone of fam, with buf scoped to it.
func (tx *Tx) in(fam uint64) *family {
	f := tx.fams[fam]
	if f == nil {
		f = tx.base.fam(fam).clone()
		tx.fams[fam] = f
	}
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
	recs := &tx.view(fam).recs
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

// InvalidateTags removes every record of fam that depends on one of tags (a
// full rules.DepTag matches itself, a bare table name all of the table's)
// and returns how many. With SetFamilyRules in one transaction it is the
// atomic rule update.
func (tx *Tx) InvalidateTags(fam uint64, tags []string) int {
	if len(tags) == 0 {
		return 0
	}
	f := tx.in(fam)
	tested := uint64(f.recs.Len())
	removed := f.kill(tags)
	tx.buf = appendDead(tx.buf, tags)
	tx.s.count(&tx.s.stats.TagTests, tested)
	tx.s.count(&tx.s.stats.Invalidated, uint64(removed))
	return removed
}

// SetFamilyRules records the rules text the family's entries are valid
// under. Text that is not the family's rules drops its template list.
func (tx *Tx) SetFamilyRules(fam uint64, rulesText string) {
	tx.in(fam).setRules(rulesText)
	tx.buf = appendRules(tx.buf, rulesText)
}

// view returns fam as the transaction has left it, to read.
func (tx *Tx) view(fam uint64) *family {
	if f := tx.fams[fam]; f != nil {
		return f
	}
	return tx.base.fam(fam)
}

// Abort discards the transaction; nothing of it reached disk.
func (tx *Tx) Abort() {
	if !tx.done {
		tx.done = true
		tx.s.count(&tx.s.stats.Aborts, 1)
		tx.s.txMu.Unlock()
	}
}

// Commit makes the transaction durable and returns only once it is: its
// frames and a commit marker are written past the end of the log and the
// log is synced — or, when that would leave the log more dead bytes
// than live ones, the whole next state replaces it. An error before the
// commit point aborts cleanly; one at or after it wedges the store.
func (tx *Tx) Commit() error {
	if tx.done {
		return errors.New("store: transaction already finished")
	}
	tx.done = true
	s := tx.s
	defer s.txMu.Unlock()
	if len(tx.buf) == 0 {
		return nil // read-only transaction: a frame follows every in
	}
	next := &state{txid: tx.base.txid + 1, fams: maps.Clone(tx.base.fams)}
	for fam, f := range tx.fams {
		if next.fams[fam] = f; f.empty() {
			delete(next.fams, fam)
		}
	}
	chunks := append(tx.full, appendID(tx.buf, frameCommit, next.txid))
	size := s.stats.FileBytes
	for _, c := range chunks {
		size += uint64(len(c))
	}
	compact := size > 2*next.live()
	var err error
	if compact {
		next, size, err = s.rewrite(next)
	} else {
		err = s.append(chunks)
	}
	if err != nil {
		err = fmt.Errorf("store: commit: %w", err)
		if errors.Is(err, ErrWedged) {
			s.mu.Lock()
			s.wedged = err
			s.mu.Unlock()
		} else {
			s.count(&s.stats.Aborts, 1)
		}
		return err
	}
	s.mu.Lock()
	s.cur, s.stats.FileBytes = next, size
	s.mu.Unlock()
	s.count(&s.stats.Commits, 1)
	if compact {
		s.count(&s.stats.Compactions, 1)
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
	repointed, _, _, err := replay(buf)
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

// Snapshot is a view of one committed state, which commits never change.
type Snapshot struct {
	s  *Store
	st *state
}

// Snapshot pins the current committed state for reading.
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Snapshot{s: s, st: s.cur}
}

// Close releases the snapshot.
func (sn *Snapshot) Close() {}

// FamilyInfo describes the rules a family's records are valid under.
type FamilyInfo struct {
	RulesHash uint64
	Rules     string
}

// Family reads a family's rules from the committed state.
func (s *Store) Family(fam uint64) (FamilyInfo, bool) { return s.Snapshot().Family(fam) }

// Family reads the rules the snapshot's records are valid under.
func (sn *Snapshot) Family(fam uint64) (FamilyInfo, bool) {
	f := sn.st.fam(fam)
	if !f.hasRules {
		return FamilyInfo{}, false
	}
	return FamilyInfo{RulesHash: hash64(f.rules), Rules: f.rules}, true
}

// Records visits fam's verdict records in canonical (kind, key) order
// until fn returns false, decoded.
func (sn *Snapshot) Records(fam uint64, fn func(journal.Record) bool) error {
	served := uint64(0)
	for _, r := range sn.st.fam(fam).recs.Records() {
		served++
		if !fn(r) {
			break
		}
	}
	sn.s.count(&sn.s.stats.SnapshotReads, served)
	return nil
}

// Table returns fam's records as the snapshot's committed state holds
// them: the family's own table, shared and not copied, which nobody
// changes (a transaction clones it). A warm start puts it in its journal.
func (sn *Snapshot) Table(fam uint64) *journal.Table {
	t := &sn.st.fam(fam).recs
	sn.s.count(&sn.s.stats.SnapshotReads, uint64(t.Len()))
	return t
}

// RecordCount returns the number of verdict records stored for fam; its
// template list is none.
func (sn *Snapshot) RecordCount(fam uint64) int { return sn.st.fam(fam).recs.Len() }
