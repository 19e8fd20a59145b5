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
//	header  "MEISSAS4" (bytes 4-12 of the file)
//	'F'     fam(8): scopes the frames up to the next 'F' or 'X'
//	1, 2    a verdict, its dependency tags inline as 8-byte hashes
//	        (journal.Tag): the frame a checkpoint journal holds it in
//	3       the template list of a completed run under the family's
//	        rules, keyed by its fingerprint: the frame its checkpoint
//	        holds it in. At most one a family: a later list replaces it,
//	        and an 'R' frame with other rules drops it
//	'R'     the rules text the family's entries are valid under
//	'K'     retire frame, {kind(1) key(8)}*: the records a transaction
//	        retired, in canonical order, deleted as it is read; a key the
//	        family does not hold there is ErrCorrupt
//	'X'     txid(8): commit marker
//
// A file of an earlier format — MEISSAS1, the page-based engine's,
// MEISSAS2, whose record frames spelt their tags out, or MEISSAS3, whose
// tombstones named the retired tags and left Open to test records against
// them — is refused by name, never read or overwritten.
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
// Superseded records, retired entries, replaced rules and retire frames
// stay behind as dead bytes. A commit that would leave more of them than
// live ones writes the whole live state instead: to path+".compact",
// synced, renamed over the store (its commit point), the directory synced.
// A new store is created the same way.
//
// There is no tree because no caller needs one: each reads a whole family
// (warm start, export, regression baseline), writes all a run derived in
// one transaction, and retires the entries its tag matcher picks (Retire),
// which the log then names: Open reads each frame once, in one forward
// pass, and tests no tag. An open store is one goroutine's — a run opens
// it, holds at most one transaction and closes it — and the advisory lock
// keeps other processes out. Its one state is a journal.Table per family,
// indexing the frames Open read, decoded only when a reader asks. The
// transaction changes that state in place, and a warm start shares a
// family's table with its run's journal instead of copying it. A
// transaction that wrote a frame and does not commit has the store replay
// its committed log again, as Open does; no other version of the state is
// kept. recovery_test.go crashes a scripted workload at every write point
// of a failpoint filesystem passed in as Options.FS (failfs_test.go),
// compaction included: each reopened store must equal a
// transaction-boundary state.
package store

import (
	"io"
	"os"
)

// FS is the filesystem the store performs I/O through. Production uses
// the real OS filesystem (OSFS); the recovery tests wrap it in one that
// injects failpoints.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Remove(name string) error
	Rename(oldname, newname string) error
}

// File is the store's view of an open file: positional I/O only, so
// every write names its offset and a failpoint filesystem can tear it
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
