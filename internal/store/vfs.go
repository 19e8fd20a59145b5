// Package store implements the durable cross-run verdict store: one
// append-only file holding, per program family (program + options, no
// rules), the verdict records of completed runs, the rule text they are
// valid under, and the template list of the last completed run under that
// text.
//
// The file is a log in the checkpoint journal's framing,
// [u32 length][payload][u32 CRC32C(payload)], the first payload byte
// naming the frame. A header opens it; then each transaction is a run of
// frames closed by a commit marker:
//
//	header  "MEISSAS3" (bytes 4-12 of the file)
//	'F'     fam(8): scopes the frames up to the next 'F' or 'X'
//	1, 2    a verdict, its dependency tags inline as 8-byte hashes
//	        (journal.Tag): the frame a checkpoint journal holds it in
//	3       the template list of a completed run under the family's
//	        rules, keyed by its fingerprint: the frame its checkpoint
//	        holds it in. At most one a family: a later list replaces it,
//	        and an 'R' frame with other rules drops it
//	'R'     the rules text the family's entries are valid under
//	'T'     tombstone, {tlen(2) tag}*: retires what depends on its tags,
//	        spelt out as rulediff.Matcher reads them
//	'X'     txid(8): commit marker
//
// A file of an earlier format — MEISSAS1, the page-based engine's, or
// MEISSAS2, whose record frames spelt their tags out — is refused by
// name, never read or overwritten.
//
// Commit appends a transaction's frames and marker past the committed
// size, syncs, and only then returns. No frame counts without its marker,
// so rules, invalidation and records become durable together or not at
// all. Open replays the log up to the last intact marker and truncates the
// rest, as the journal drops a torn tail. A frame failing its checksum is
// such a tail only if no later transaction committed: a marker with a
// higher ID further on proves the damage lies in history that was durable,
// and Open fails with ErrCorrupt rather than serve a shorter one; so does
// an intact frame that makes no sense.
//
// Superseded records, retired entries, replaced rules and tombstones stay
// behind as dead bytes. A commit that would leave more of them than live
// ones writes the whole live state instead: to path+".compact", synced,
// renamed over the store (its commit point), the directory synced. A new
// store is created the same way.
//
// There is no tree because no caller needs one: each reads a whole family
// (warm start, export, regression baseline), writes all a run derived in
// one transaction, and retires entries by dependency tag. The committed
// state is one immutable journal.Table per family, indexing the frames
// Open read, decoded only when a reader asks; transactions change clones,
// snapshots are pointers, and a warm start shares a family's table with
// its run's journal instead of copying it. recovery_test.go crashes a
// scripted workload at every write point of the failpoint filesystem
// below, compaction included: each reopened store must equal a
// transaction-boundary state.
package store

import (
	"errors"
	"io"
	"os"
	"sync"
)

// FS is the filesystem the store performs I/O through. Production uses
// the real OS filesystem (OSFS); the recovery harness injects failpoints
// through FailFS.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Remove(name string) error
	Rename(oldname, newname string) error
}

// File is the store's view of an open file: positional I/O only, so
// every write names its offset and the failpoint layer can tear it
// deterministically.
type File interface {
	io.ReaderAt
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
	Size() (int64, error)
}

// OSFS is the real filesystem.
type OSFS struct{}

// OpenFile opens name with the OS.
func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Remove deletes name.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// Rename renames oldname to newname.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// ErrCrashed is returned by every operation of a FailFS after its crash
// point fired: the simulated process is dead and no further I/O happens.
var ErrCrashed = errors.New("injected crash")

// Failpoints scripts a FailFS. The zero value injects nothing.
type Failpoints struct {
	// CrashAt kills the filesystem at the Nth write point (1-based):
	// write point N executes (fully, or torn when Torn is set and it is a
	// WriteAt), and every operation after it — reads included — returns
	// ErrCrashed. 0 disables.
	CrashAt int
	// Torn makes the crashing write point a torn write: only the first
	// half of the buffer reaches the file before the crash.
	Torn bool
	// FailAt makes the Nth write point return an injected error WITHOUT
	// executing it and without killing the filesystem — the transient-
	// error path (ENOSPC and friends). 0 disables.
	FailAt int

	mu      sync.Mutex
	ops     int
	crashed bool
}

// ErrInjected is the transient error returned at a FailAt point.
var ErrInjected = errors.New("injected I/O error")

// Crashed reports whether the crash point fired.
func (fp *Failpoints) Crashed() bool {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.crashed
}

// gate is called before every operation; write points additionally call
// it with point=true. It returns (torn, err): torn instructs a WriteAt
// to write half its buffer before dying.
func (fp *Failpoints) gate(point bool) (bool, error) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.crashed {
		return false, ErrCrashed
	}
	if !point {
		return false, nil
	}
	fp.ops++
	if fp.FailAt > 0 && fp.ops == fp.FailAt {
		return false, ErrInjected
	}
	if fp.CrashAt > 0 && fp.ops == fp.CrashAt {
		fp.crashed = true
		if fp.Torn {
			return true, nil
		}
		// Crash AFTER the syscall: the op executes, the next one fails.
		return false, nil
	}
	return false, nil
}

// FailFS wraps a base filesystem with scripted failpoints shared across
// every file it opens.
type FailFS struct {
	Base FS
	FP   *Failpoints
}

// OpenFile opens through the base filesystem unless crashed.
func (f *FailFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if _, err := f.FP.gate(false); err != nil {
		return nil, err
	}
	bf, err := f.Base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &failFile{base: bf, fp: f.FP}, nil
}

// Remove deletes through the base filesystem unless crashed.
func (f *FailFS) Remove(name string) error {
	if _, err := f.FP.gate(false); err != nil {
		return err
	}
	return f.Base.Remove(name)
}

// Rename is a write point.
func (f *FailFS) Rename(oldname, newname string) error {
	if _, err := f.FP.gate(true); err != nil {
		return err
	}
	return f.Base.Rename(oldname, newname)
}

type failFile struct {
	base File
	fp   *Failpoints
}

func (f *failFile) ReadAt(p []byte, off int64) (int, error) {
	if _, err := f.fp.gate(false); err != nil {
		return 0, err
	}
	return f.base.ReadAt(p, off)
}

func (f *failFile) WriteAt(p []byte, off int64) (int, error) {
	torn, err := f.fp.gate(true)
	if err != nil {
		return 0, err
	}
	if torn {
		n, _ := f.base.WriteAt(p[:len(p)/2], off)
		return n, ErrCrashed
	}
	// At a crash-after point the write lands and the caller learns on its
	// NEXT operation.
	return f.base.WriteAt(p, off)
}

func (f *failFile) Sync() error {
	if _, err := f.fp.gate(true); err != nil {
		return err
	}
	return f.base.Sync()
}

func (f *failFile) Truncate(size int64) error {
	if _, err := f.fp.gate(true); err != nil {
		return err
	}
	return f.base.Truncate(size)
}

func (f *failFile) Close() error { return f.base.Close() }

func (f *failFile) Size() (int64, error) {
	if _, err := f.fp.gate(false); err != nil {
		return 0, err
	}
	return f.base.Size()
}
