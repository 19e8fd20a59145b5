// Package journal implements the crash-safe exploration checkpoint: an
// append-only log of solver verdicts keyed by (salted) path-prefix
// hashes. A run that journals every satisfiability verdict it derives can
// be SIGKILLed at any instant and resumed: the resumed exploration walks
// the same deterministic DFS, answers every already-journaled solver
// interaction from the log (no re-solving), and re-derives byte-identical
// templates for the completed prefix before continuing live where the
// dead run stopped.
//
// Record framing is length-prefixed and checksummed:
//
//	[u32 LE payload length][payload][u32 LE CRC32C(payload)]
//
// so a record torn by a mid-write kill is detected on load; the loader
// keeps every intact record before the tear, discards the tail, and
// truncates the file back to the last intact boundary before appending
// resumes. The first record is a header carrying a magic string and the
// caller's fingerprint (a digest of the program, rules and exploration
// options); resuming against a journal written for different inputs is
// an error rather than silent corruption. Every record after it is one
// verdict, its dependency tags inline as 8-byte Tags — hashes, not text —
// so a record's size does not grow with its tags' spelling: the frame the
// verdict store's log holds it in, byte for byte. The payload is
//
//	kind verdict key(8) nm(2) {vlen(2) var val(8)}* nt(2) {table(4) tag(4)}*
//
// all integers little-endian, then, in the header only, the magic.
//
// A run's one verdict table is a Table, which keeps each record as the
// frame it was read from: Open indexes the checkpoint file's frames into
// one, Adopt puts another source's table (a regression baseline, a store
// snapshot's family) in its place without copying it, and a journal made
// by New has no file at all. A lookup reads the verdict byte,
// which the table copies beside each frame; a model is decoded only when
// asked for, tags only by the decoded view (Record) that tests use. The
// frames a run appends can be kept in a table of their own (KeepFresh),
// which a store commit writes as they are.
//
// Concurrency: the table is filled before the run's first exploration — at
// Open and in Adopt — and never changes while one runs, so Lookup
// is lock-free and safe from any number of exploration workers, and the
// records a run appends never change what the same run's lookups answer;
// Append serializes file writes behind a mutex.
package journal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the two solver interactions a path exploration
// journals.
type Kind byte

const (
	// KindHeader is the file header record (internal).
	KindHeader Kind = 0
	// KindCheck is an early-termination satisfiability check at a path
	// prefix (Algorithm 1's prune test).
	KindCheck Kind = 1
	// KindEmit is a leaf/stop-node emission verdict, optionally carrying
	// the model extracted for the template.
	KindEmit Kind = 2
)

// Verdict mirrors smt.Result without importing it (journal sits below the
// solver in the dependency order).
type Verdict byte

// Verdict values. Unknown verdicts ARE journaled — unlike the in-memory
// verdict cache — because a resumed run must reproduce the interrupted
// run's conservative keep decisions byte-for-byte, and the fingerprint
// pins the budget options that produced them.
const (
	Unsat   Verdict = 0
	Sat     Verdict = 1
	Unknown Verdict = 2
)

// VarVal is one model binding. Models are stored sorted by variable name
// so the journal encoding of a given state is canonical.
type VarVal struct {
	Var string
	Val uint64
}

// Record is one journaled solver verdict.
type Record struct {
	Kind    Kind
	Key     uint64 // content-based path-prefix hash
	Verdict Verdict
	Model   []VarVal // KindEmit with a Sat verdict only; sorted by Var

	// Tags holds the dependency tags of the path that produced the verdict
	// (TagOf of each, in sorted tag order), so an incremental rebase can
	// retire the records a rule update touches.
	Tags []Tag
}

// TagLen is the size of a Tag.
const TagLen = 8

// Tag is a dependency tag (rules.DepTag format, or a bare table name) as a
// record frame holds it: the FNV-1a-32 hash of its table — the part before
// its first '#', the whole tag when it has none — then that of the whole
// tag, each a little-endian u32. The same string always gives the same
// Tag, so a frame's tags mean the same in any file; two strings may give
// one Tag, which can only make a record look dependent on a tag it does
// not carry (see rulediff.Matcher).
type Tag [TagLen]byte

// TagOf returns the Tag of a dependency tag.
func TagOf(tag string) Tag {
	table, _, _ := strings.Cut(tag, "#")
	var t Tag
	binary.LittleEndian.PutUint32(t[:4], fnv32a(table))
	binary.LittleEndian.PutUint32(t[4:], fnv32a(tag))
	return t
}

// Table returns the hash of the tag's table.
func (t Tag) Table() uint32 { return binary.LittleEndian.Uint32(t[:4]) }

// fnv32a is FNV-1a over s, without the allocation hash/fnv's interface
// makes.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// Journal is a run's verdict table, backed by an open checkpoint file
// unless New made it.
type Journal struct {
	mu sync.Mutex
	f  *os.File // nil: no file behind the table
	// buf is where Append frames a record, under mu: scratch, or with a
	// fresh table the chunk filling, which its entries point into.
	buf []byte
	t   *Table // filled before the first exploration, never written after

	// fresh, when KeepFresh made it, holds every frame appended since: what
	// a store-backed generation commits. Written under mu.
	fresh *Table

	loaded   int // verdict records put into the table: recovered at Open, adopted
	appended atomic.Uint64
}

const magic = "MEISSAJ3"

// oldMagics are the header magics of earlier releases' formats, with what
// made them different: Open refuses them by name.
var oldMagics = map[string]string{
	"MEISSAJ1": "it frames each verdict's tags apart",
	"MEISSAJ2": "it spells each dependency tag out as text",
}

// freshChunk bounds a chunk of the fresh table: one buffer growing to a
// run's verdicts would be copied five times over on the way. No append
// writes over bytes a chunk holds, so the entries that point into one — or
// into an array an append outgrew — stay valid.
const freshChunk = 1 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// New returns a journal with no file behind it, for a run that named no
// checkpoint: appends reach the fresh table, when it keeps one, and the
// counters only, and Sync and Close do nothing.
func New() *Journal { return &Journal{t: &Table{}} }

// Open opens a checkpoint file. With resume=false the file is created or
// truncated and a fresh header is written. With resume=true the existing
// file is read and indexed: the header fingerprint must match, intact
// records fill the table (which keeps the file's bytes), and a torn or
// corrupt tail is discarded (the file is truncated back to the last intact
// record) so appends continue from a clean boundary.
func Open(path string, fingerprint uint64, resume bool) (*Journal, error) {
	if !resume {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, fmt.Errorf("journal: create %s: %w", path, err)
		}
		j := &Journal{f: f, t: &Table{}}
		hdr := Record{Kind: KindHeader, Key: fingerprint}
		if _, err := f.Write(encode(hdr)); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: write header: %w", err)
		}
		return j, nil
	}

	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: resume %s: %w", path, err)
	}
	t, good, loaded, err := load(f, fingerprint)
	if err != nil {
		f.Close()
		return nil, err
	}
	j := &Journal{f: f, t: t, loaded: loaded}
	// Drop the torn tail (if any) so new appends start at a record
	// boundary.
	if err := f.Truncate(int64(good)); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: seek: %w", err)
	}
	return j, nil
}

// load reads an open checkpoint and indexes it (see index), the file's
// bytes read once into a buffer of its size that the table then keeps.
func load(f *os.File, fingerprint uint64) (*Table, int, int, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("journal: stat: %w", err)
	}
	data := make([]byte, st.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, 0, 0, fmt.Errorf("journal: read: %w", err)
	}
	t, good, loaded, err := index(data, fingerprint)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("journal: %s: %w", f.Name(), err)
	}
	return t, good, loaded, nil
}

// Lookup returns the entry the table holds for a key. Safe for concurrent
// use without locking: the table is frozen while an exploration runs.
func (j *Journal) Lookup(kind Kind, key uint64) (Entry, bool) { return j.t.Lookup(kind, key) }

// Adopt makes t the journal's table, as though the run it continues had
// journaled its records: a file receives their frames in canonical order,
// as they are, and a journal with no file writes nothing — t comes from a
// source the run does not re-journal (a regression's baseline, a store
// warm start). They count as loaded, not appended, and the fresh table
// does not hold them. t is not copied, so nobody may change it afterwards.
// Legal only before the run's first exploration, on a journal that holds
// no records yet: one made by New, or opened without resume.
func (j *Journal) Adopt(t *Table) error {
	n := t.Len()
	if n == 0 {
		return nil
	}
	if j.f != nil {
		// A kill mid-way leaves a shorter journal, as one between appends would.
		w := bufio.NewWriterSize(j.f, 1<<20)
		for _, e := range t.Sorted() {
			w.Write(e.b) // Flush reports a failed write
		}
		if err := w.Flush(); err != nil {
			return fmt.Errorf("journal: adopt: %w", err)
		}
	}
	j.t = t
	j.loaded += n
	return nil
}

// Append journals one verdict, its dependency tags (r.Tags) inline, with
// a single write(2) call, so a kill tears at most this one record — which
// load tolerates. It keeps nothing of r: the caller may reuse r.Tags and
// r.Model once it returns. Thread-safe.
func (j *Journal) Append(r Record) error {
	var err error
	j.mu.Lock()
	if j.f != nil || j.fresh != nil {
		err = j.write(r)
	}
	j.mu.Unlock()
	if err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	j.appended.Add(1)
	return nil
}

// write frames r into buf, writes the frame to the file and puts it into
// the fresh table, whichever the journal has. Under mu.
func (j *Journal) write(r Record) error {
	if j.fresh == nil {
		j.buf = j.buf[:0]
	} else if len(j.buf) >= freshChunk {
		j.buf = make([]byte, 0, freshChunk+freshChunk/8)
	}
	at := len(j.buf)
	j.buf = appendRecord(j.buf, r)
	frame := j.buf[at:len(j.buf):len(j.buf)]
	if j.f != nil {
		if _, err := j.f.Write(frame); err != nil {
			j.buf = j.buf[:at]
			return err
		}
	}
	if j.fresh != nil {
		j.fresh.put(Entry{b: frame, verdict: r.Verdict})
	}
	return nil
}

// KeepFresh makes the journal keep every frame it appends from now on in a
// table of its own, over chunks of its own that Append frames them into,
// which Fresh returns. Call it before concurrent appends begin.
func (j *Journal) KeepFresh() {
	j.mu.Lock()
	j.fresh, j.buf = &Table{}, nil
	j.mu.Unlock()
}

// Fresh returns the table of the frames appended since KeepFresh (nil
// without it): the records this run derived, the last of a kind and key
// winning. Read it once the appends are done.
func (j *Journal) Fresh() *Table { return j.fresh }

// Table returns the journal's table: the records the run started with,
// which nobody may change.
func (j *Journal) Table() *Table { return j.t }

// ReadTable opens a checkpoint read-only and indexes it, tolerating a torn
// tail exactly like a resume: how Regress loads a baseline journal. The
// file is never truncated or written; the table keeps its bytes.
func ReadTable(path string, fingerprint uint64) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: read %s: %w", path, err)
	}
	defer f.Close()
	t, _, _, err := load(f, fingerprint)
	return t, err
}

// Loaded returns the number of records the run started with: recovered
// at Open, shared or adopted.
func (j *Journal) Loaded() int { return j.loaded }

// Appended returns the number of records this journal appended.
func (j *Journal) Appended() uint64 { return j.appended.Load() }

// Sync flushes the journal to stable storage. Not required for
// kill-safety (the page cache survives process death); call it when the
// threat model includes machine crashes.
func (j *Journal) Sync() error {
	if j.f == nil {
		return nil
	}
	return j.f.Sync()
}

// Close releases the file.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	return j.f.Close()
}

// SortModel canonicalizes a model for journaling, allocating nothing.
func SortModel(m []VarVal) {
	slices.SortFunc(m, func(a, b VarVal) int { return strings.Compare(a.Var, b.Var) })
}

// encode frames one record.
func encode(r Record) []byte { return appendRecord(nil, r) }

// AppendFrame appends one frame, [u32 len][payload][u32 CRC32C], whose
// payload is the pieces in order. Every frame of a checkpoint and of the
// verdict store's log is one: a record's payload is its encoding.
func AppendFrame(out []byte, pieces ...[]byte) []byte {
	start := len(out)
	out = append(out, 0, 0, 0, 0)
	for _, p := range pieces {
		out = append(out, p...)
	}
	return seal(out, start)
}

// seal completes the frame begun at out[start:]: its payload follows the
// four bytes left there for its length.
func seal(out []byte, start int) []byte {
	payload := out[start+4:]
	binary.LittleEndian.PutUint32(out[start:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
}

// SplitFrame splits the first frame off data: its payload and its whole
// length. ok=false means data begins with no intact frame: short, torn,
// empty or failing its checksum.
func SplitFrame(data []byte) (payload []byte, n int, ok bool) {
	if len(data) < 8 {
		return nil, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(data))
	if plen < 1 || plen > len(data)-8 {
		return nil, 0, false
	}
	payload = data[4 : 4+plen]
	return payload, 8 + plen, crc32.Checksum(payload, crcTable) == binary.LittleEndian.Uint32(data[4+plen:])
}

// appendRecord appends one framed record to out, encoding it in place.
func appendRecord(out []byte, r Record) []byte {
	// payload: kind(1) verdict(1) key(8) nmodel(2) {varlen(2) var val(8)}*
	//          ntags(2) {table(4) tag(4)}*
	start := len(out)
	out = append(out, 0, 0, 0, 0) // payload length, set below
	out = append(out, byte(r.Kind), byte(r.Verdict))
	out = binary.LittleEndian.AppendUint64(out, r.Key)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(r.Model)))
	for _, vv := range r.Model {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(vv.Var)))
		out = append(out, vv.Var...)
		out = binary.LittleEndian.AppendUint64(out, vv.Val)
	}
	out = binary.LittleEndian.AppendUint16(out, uint16(len(r.Tags)))
	for _, t := range r.Tags {
		out = append(out, t[:]...)
	}
	if r.Kind == KindHeader {
		out = append(out, magic...)
	}
	return seal(out, start)
}
