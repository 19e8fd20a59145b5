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
// so a frame torn by a mid-write kill is detected on load; the loader
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
// all integers little-endian, then, in the header only, the magic. A
// verdict's payload ends with its tag list, so each record has one frame.
// One more record follows the verdicts of a run that completed: its
// template list (KindTemplates), the run's fingerprint as its key, no
// model and no tags, then the path key of each template in template order,
// {pathkey(8)}*. A regression reads the baseline's templates from it
// instead of exploring the baseline again; a checkpoint without one is an
// interrupted run's, or a halted one's.
//
// A run's one verdict table is a Table, which keeps each record as the
// frame it was read from: Open indexes the checkpoint file's frames into
// one, Adopt puts another source's table (a regression baseline, a store
// snapshot's family) in its place without copying or writing it, and a
// journal made by New has no file at all. A lookup reads the verdict byte,
// which the table copies beside each frame; a model is decoded only when
// asked for, tags only by the decoded view (Record) that tests use. The
// frames a run appends can be kept in a table of their own (KeepFresh),
// which a store commit writes as they are.
//
// An adopted table is filtered at lookup: a record one of whose tags the
// adopting run's filter (a rule delta's) matches is a miss. A hit on any
// other record is not in the run's file, so the run journals it there
// (AppendHit) where it would have appended the verdict, with its own tags:
// the file holds what a cold run's would, but only the verdicts the run
// used. A run killed part-way leaves those; the table it adopted is
// unchanged, so running it again is the cheap way out, and a resume of its
// file solves the rest again.
//
// Appends reach the file in batches: Append frames a record into a pending
// buffer, and every batchFrames records the buffer goes to the file in one
// write(2), so a kill loses at most the last batchFrames-1 verdicts (a
// resume re-solves them) and tears at most one batch, which load cuts back
// to its last whole frame. Sync and Close write what is pending.
//
// Concurrency: the table is filled before the run's first exploration — at
// Open and in Adopt — and never changes while one runs, so Lookup
// is lock-free and safe from any number of exploration workers, and the
// records a run appends never change what the same run's lookups answer;
// Append serializes its framing and the file writes behind a mutex.
package journal

import (
	"bytes"
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
	// KindTemplates is a completed run's template list: no verdict, and
	// never counted as a record (see Table.Templates).
	KindTemplates Kind = 3
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
	// (TagOf of each, in sorted tag order), so a regression can miss the
	// records a rule update touches.
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
	// buf is the chunk filling, which the fresh table's entries point into,
	// when KeepFresh made one. Under mu.
	buf []byte
	// pend holds the frames appended to the file since its last write,
	// npend of them; err is the first failed write, after which the file
	// takes no more. Under mu.
	pend  []byte
	npend int
	err   error
	t     *Table // filled before the first exploration, never written after

	// fresh, when KeepFresh made it, holds every frame appended since: what
	// a store-backed generation commits. Written under mu.
	fresh *Table

	// resumed says Open read the table from the file, template list and
	// all; adopted, that Adopt shared it, under the filter invalid.
	resumed, adopted bool
	invalid          func(tag []byte) bool

	loaded   int // verdict records recovered at Open
	appended atomic.Uint64
}

const magic = "MEISSAJ3"

// oldMagics are the header magics of earlier releases' formats, with what
// made them different: Open refuses them by name.
var oldMagics = map[string]string{
	"MEISSAJ1": "it frames each verdict's tags apart",
	"MEISSAJ2": "it spells each dependency tag out as text",
}

// batchFrames is how many appended frames the file receives in one
// write(2). A kill loses at most batchFrames-1 verdicts, which the resumed
// run solves again; a run whose checkpoint holds fewer frames than this
// leaves only its header on the file until Sync or Close.
const batchFrames = 32

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
	j := &Journal{f: f, t: t, loaded: loaded, resumed: true}
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

// Lookup returns the entry the table holds for a key; a record one of
// whose tags the filter Adopt was given matches is a miss. Safe for
// concurrent use without locking: the table is frozen while an exploration
// runs.
func (j *Journal) Lookup(kind Kind, key uint64) (Entry, bool) {
	e, ok := j.t.Lookup(kind, key)
	if ok && j.invalid != nil && e.DependsOn(j.invalid) {
		return Entry{}, false
	}
	return e, ok
}

// Adopt makes t — a regression's baseline, a store family — the
// journal's table, shared as it is and written nowhere: a record one of
// whose tags invalid matches is a miss (nil: none), and a hit on any other
// is not in the file until the run journals it (AppendHit). Neither a
// count nor the fresh table includes t's records, and t's template list is
// its own run's. Nobody may change t afterwards. Legal only before the run's
// first exploration, on a journal made by New or opened without resume.
func (j *Journal) Adopt(t *Table, invalid func(tag []byte) bool) {
	if t.Len() > 0 {
		j.t, j.invalid, j.adopted = t, invalid, true
	}
}

// AppendsHits reports whether the run must journal its hits (AppendHit):
// the table was adopted and a file receives the run's verdicts.
func (j *Journal) AppendsHits() bool { return j.adopted && j.f != nil }

// Append journals one verdict, its dependency tags (r.Tags) inline. The
// file receives it with the batch it completes or with Sync or Close (see
// batchFrames); an error is that of the batch's write, and every later
// Append returns it too. It keeps nothing of r: the caller may reuse
// r.Tags and r.Model once it returns. Thread-safe.
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

// write frames r into the pending batch and puts it into the fresh table,
// whichever the journal has, and writes the batch once it is full. Under
// mu.
func (j *Journal) write(r Record) error {
	if j.err != nil {
		return j.err
	}
	if j.fresh == nil {
		j.pend = appendRecord(j.pend, r)
	} else {
		if len(j.buf) >= freshChunk {
			j.buf = make([]byte, 0, freshChunk+freshChunk/8)
		}
		at := len(j.buf)
		j.buf = appendRecord(j.buf, r)
		frame := j.buf[at:len(j.buf):len(j.buf)]
		j.fresh.put(Entry{b: frame, verdict: r.Verdict})
		if j.f != nil {
			j.pend = append(j.pend, frame...)
		}
	}
	if j.f == nil {
		return nil
	}
	return j.pended()
}

// pended counts one frame into the pending batch and writes the batch once
// it is full. Under mu.
func (j *Journal) pended() error {
	if j.npend++; j.npend < batchFrames {
		return nil
	}
	return j.flush()
}

// AppendHit journals a verdict the adopted table answered as Append would
// have, had the run derived it: e's kind, verdict, key and model, with the
// run's tags, which it does not keep. It goes to the file only: neither the
// fresh table, which a store commit reads, nor Appended counts it.
func (j *Journal) AppendHit(e Entry, tags []Tag) error {
	return j.pendFrame(func(out []byte) []byte {
		at := len(out)
		out = append(append(out, 0, 0, 0, 0), e.b[offKind:e.modelEnd()]...)
		return seal(appendTags(out, tags), at)
	})
}

// Copy journals e's frame as it is, to the file only: how an export writes
// the records it keeps.
func (j *Journal) Copy(e Entry) error {
	return j.pendFrame(func(out []byte) []byte { return append(out, e.b...) })
}

// pendFrame adds the frame frame appends to the pending batch, unless a
// write failed, and writes the batch once it is full. Thread-safe.
func (j *Journal) pendFrame(frame func(out []byte) []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		j.pend = frame(j.pend)
		j.pended()
	}
	if j.err != nil {
		return fmt.Errorf("journal: append: %w", j.err)
	}
	return nil
}

// flush writes the pending batch to the file, if any, in one write(2). A
// failed write is kept: the file takes nothing after it. Under mu.
func (j *Journal) flush() error {
	if j.err == nil && len(j.pend) > 0 {
		if _, err := j.f.Write(j.pend); err != nil {
			j.err = err
		}
	}
	j.pend, j.npend = j.pend[:0], 0
	return j.err
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

// Complete frames the template list of the run the journal records — the
// path keys of its templates, in template order, under the run's
// fingerprint — and returns the frame. A file receives it after every
// verdict appended so far, with the last batch, unless the file it was
// resumed from holds the same list already. Neither Appended nor the fresh
// table counts it.
func (j *Journal) Complete(fingerprint uint64, keys []uint64) []byte {
	fr := appendTemplates(nil, fingerprint, keys)
	if j.f != nil && !(j.resumed && bytes.Equal(j.t.Templates().Frame(), fr)) {
		j.mu.Lock()
		j.pend = append(j.pend, fr...)
		j.mu.Unlock()
	}
	return fr
}

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

// Loaded returns the number of records recovered at Open.
func (j *Journal) Loaded() int { return j.loaded }

// Appended returns the number of records this journal appended.
func (j *Journal) Appended() uint64 { return j.appended.Load() }

// Close writes the pending batch and releases the file. Its error is the
// first write that failed, the last batch's included: the file then lacks
// verdicts the run derived.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.flush()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: close: %w", err)
	}
	return nil
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

// appendTemplates appends the frame of a template list: kind
// KindTemplates, verdict 0, the fingerprint as its key, empty model and tag
// lists, then keys.
func appendTemplates(out []byte, fingerprint uint64, keys []uint64) []byte {
	start := len(out)
	out = append(out, 0, 0, 0, 0, byte(KindTemplates), 0)
	out = binary.LittleEndian.AppendUint64(out, fingerprint)
	out = append(out, 0, 0, 0, 0)
	for _, k := range keys {
		out = binary.LittleEndian.AppendUint64(out, k)
	}
	return seal(out, start)
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
	out = appendTags(out, r.Tags)
	if r.Kind == KindHeader {
		out = append(out, magic...)
	}
	return seal(out, start)
}

// appendTags appends a record's tag list: its count, then each tag.
func appendTags(out []byte, tags []Tag) []byte {
	out = binary.LittleEndian.AppendUint16(out, uint16(len(tags)))
	for _, t := range tags {
		out = append(out, t[:]...)
	}
	return out
}
