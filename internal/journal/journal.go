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
//	[u32 LE payload length][payload][u32 LE CRC32(payload)]
//
// so a record torn by a mid-write kill is detected on load; the loader
// keeps every intact record before the tear, discards the tail, and
// truncates the file back to the last intact boundary before appending
// resumes. The first record is a header carrying a magic string and the
// caller's fingerprint (a digest of the program, rules and exploration
// options); resuming against a journal written for different inputs is
// an error rather than silent corruption.
//
// A run's one verdict table is a Table, which keeps each record as the
// frame it was read from: Open indexes the checkpoint file's frames into
// one, Share and Adopt put another source's table (a regression baseline,
// a store snapshot's family) in its place without copying it, and a
// journal made by New has no file at all. A lookup reads the verdict byte,
// which the table copies beside each frame; a model is decoded only when
// asked for, tags only by the decoded view (Record) that tests, commits
// and exports use.
//
// Concurrency: the table is filled before the run's first exploration — at
// Open, in Share and in Adopt — and never changes while one runs, so Lookup
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
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
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
	// KindIndex is a dependency-index record annotating the immediately
	// preceding verdict record: it carries the table dependency tags of
	// the path that produced the verdict, so an incremental rebase can
	// retire exactly the records a rule update touches. Its Key is the
	// annotated record's key and its Verdict byte stores the annotated
	// record's Kind (Check and Emit records may legally share a key
	// value). Index records never answer lookups themselves; at load they
	// fold into the verdict record they annotate.
	KindIndex Kind = 3
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

	// Tables holds the dependency tags of the path that produced the
	// verdict (sorted; rules.DepTag format). On verdict records it is
	// populated from the trailing KindIndex record at load; on KindIndex
	// records it is the payload itself.
	Tables []string
	// Indexed reports whether a dependency index record was recovered for
	// this verdict. The pair is appended with one write(2), but a tear can
	// still strand a verdict without its index (partial write, or a record
	// written by plain Append); Rebase treats such records conservatively.
	// In-memory only; not serialized.
	Indexed bool
}

// Journal is a run's verdict table, backed by an open checkpoint file
// unless New made it.
type Journal struct {
	mu  sync.Mutex
	f   *os.File // nil: no file behind the table
	buf []byte   // Append's encoding scratch, under mu
	t   *Table   // filled before the first exploration, never written after

	// mirror, when set, observes every successfully appended record
	// (dependency tags and Indexed folded in, exactly as a reload would
	// see it). A store-backed generation collects what it derived this
	// way, for its commit, without re-reading a file. Invoked under the
	// append lock, so observations are ordered; the callback must not
	// call back into the journal.
	mirror func(Record)

	loaded   int // verdict records put into the table: recovered at Open, shared, adopted
	appended atomic.Uint64
}

const magic = "MEISSAJ1"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// New returns a journal with no file behind it, for a run that named no
// checkpoint: appends reach the mirror and the counters only, and Sync
// and Close do nothing.
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
		obs.RecordFlight(obs.FlightJournalOpen, 0, 0, fingerprint)
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
	mRecordsLoaded.Add(uint64(loaded))
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
	obs.RecordFlight(obs.FlightJournalOpen, 1, uint64(j.loaded), fingerprint)
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
	return index(data, fingerprint)
}

// Lookup returns the entry the table holds for a key. Safe for concurrent
// use without locking: the table is frozen while an exploration runs.
func (j *Journal) Lookup(kind Kind, key uint64) (Entry, bool) { return j.t.Lookup(kind, key) }

// Share makes t the journal's table and writes nothing: t comes from a
// source the run does not re-journal (a regression's baseline replay, a
// store warm start without a checkpoint). Its records count as loaded. t
// is not copied, so nobody may change it afterwards; a journal that holds
// records already gets a merged copy, t's records winning. Legal only
// before the run's first exploration.
func (j *Journal) Share(t *Table) {
	n := t.Len()
	if n == 0 {
		return
	}
	if j.t.Len() > 0 {
		merged := j.t.Clone()
		for _, m := range t.kinds {
			for _, e := range m {
				merged.put(e)
			}
		}
		t = merged
	}
	j.t = t
	j.loaded += n
	mRecordsLoaded.Add(uint64(n))
}

// Adopt makes t part of the journal as though the run it continues had
// journaled its records: a file receives them in canonical order, in the
// bytes Append would have written, and then t is shared. They count as
// loaded, not appended, and the mirror does not see them. Legal only
// before the run's first exploration.
func (j *Journal) Adopt(t *Table) error {
	if j.f != nil && t.Len() > 0 {
		// A kill mid-way leaves a shorter journal, as one between appends would.
		w := bufio.NewWriterSize(j.f, 1<<20)
		var buf []byte
		for _, e := range t.Sorted() {
			buf = e.appendVerdict(buf[:0])
			w.Write(buf) // Flush reports a failed write
		}
		if err := w.Flush(); err != nil {
			return fmt.Errorf("journal: adopt: %w", err)
		}
	}
	j.Share(t)
	return nil
}

// Append journals one verdict and, when r.Indexed, the dependency index
// record carrying r.Tables after it, with a single write(2) call, so a
// kill tears at most this one record or pair — which load tolerates.
// Thread-safe.
func (j *Journal) Append(r Record) error {
	var err error
	j.mu.Lock()
	if j.f != nil {
		j.buf = appendVerdict(j.buf[:0], r)
		_, err = j.f.Write(j.buf)
	}
	if err == nil && j.mirror != nil {
		j.mirror(r)
	}
	j.mu.Unlock()
	if err != nil {
		mAppendErrors.Inc()
		return fmt.Errorf("journal: append: %w", err)
	}
	n := uint64(1)
	if r.Indexed {
		n = 2
	}
	j.appended.Add(n)
	mRecordsAppended.Add(n)
	return nil
}

// SetMirror installs (or clears, with nil) the append observer. Set it
// before concurrent appends begin.
func (j *Journal) SetMirror(fn func(Record)) {
	j.mu.Lock()
	j.mirror = fn
	j.mu.Unlock()
}

// AppendWithDeps journals one verdict together with its dependency index
// record: a verdict that survives a tear without its index is detected
// (Indexed stays false at load) and handled conservatively by the rebase.
// The index is written even when tables is empty: its presence is what
// distinguishes "depends on no table" from "index lost to a tear".
// Thread-safe.
func (j *Journal) AppendWithDeps(r Record, tables []string) error {
	r.Tables, r.Indexed = tables, true
	return j.Append(r)
}

// appendVerdict frames a verdict record and, when it is indexed, its
// dependency index record after it (the tags live on the index record
// only).
func appendVerdict(buf []byte, r Record) []byte {
	tables := r.Tables
	r.Tables = nil
	buf = appendRecord(buf, r)
	if r.Indexed {
		buf = appendRecord(buf, Record{Kind: KindIndex, Key: r.Key, Verdict: Verdict(r.Kind), Tables: tables})
	}
	return buf
}

// Records returns the deduplicated verdict records (dependency
// annotations folded in) in canonical order: sorted by (kind, key).
func (j *Journal) Records() []Record { return j.t.Records() }

// Canonical returns recs as a journal that loaded them in this order
// would: the last of the records sharing a (kind, key), sorted by both.
func Canonical(recs []Record) []Record {
	last := make(map[mapKey]Record, len(recs))
	for _, r := range recs {
		last[mapKey{r.Kind, r.Key}] = r
	}
	out := make([]Record, 0, len(last))
	for _, r := range last {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b Record) int { return compareKeys(mapKey{a.Kind, a.Key}, mapKey{b.Kind, b.Key}) })
	return out
}

// ReadTable opens a checkpoint read-only and indexes it, tolerating a torn
// tail exactly like a resume: how Regress loads a baseline journal, and
// `store import` a journal to import. The file is never truncated or
// written; the table keeps its bytes.
func ReadTable(path string, fingerprint uint64) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: read %s: %w", path, err)
	}
	defer f.Close()
	t, _, _, err := load(f, fingerprint)
	return t, err
}

// MarshalRecord returns the framed encoding of r — length prefix,
// payload, CRC32C, dependency tags inline — in the framing Append writes.
// The disk-backed verdict store's log holds its verdicts as these frames.
func MarshalRecord(r Record) []byte { return encode(r) }

// AppendRecord appends MarshalRecord(r) to out.
func AppendRecord(out []byte, r Record) []byte { return appendRecord(out, r) }

// UnmarshalRecord parses one framed record produced by MarshalRecord.
// ok=false means the bytes hold no intact record.
func UnmarshalRecord(data []byte) (Record, bool) {
	_, tags, ok := parse(data)
	if !ok {
		return Record{}, false
	}
	return Record{
		Kind: Kind(data[offKind]), Key: binary.LittleEndian.Uint64(data[offKey:]), Verdict: Verdict(data[offVerdict]),
		Model: decodeModel(data, offModel), Tables: decodeTags(data, tags, nil),
	}, true
}

// Loaded returns the number of records the run started with: recovered
// at Open, shared or adopted.
func (j *Journal) Loaded() int { return j.loaded }

// Appended returns the number of records written by this process.
func (j *Journal) Appended() uint64 { return j.appended.Load() }

// Sync flushes the journal to stable storage. Not required for
// kill-safety (the page cache survives process death); call it when the
// threat model includes machine crashes.
func (j *Journal) Sync() error {
	if j.f == nil {
		return nil
	}
	obs.RecordFlight(obs.FlightJournalSync, j.appended.Load(), 0, 0)
	return j.f.Sync()
}

// Close releases the file.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	return j.f.Close()
}

// SortModel canonicalizes a model for journaling.
func SortModel(m []VarVal) {
	sort.Slice(m, func(i, k int) bool { return m[i].Var < m[k].Var })
}

// encode frames one record.
func encode(r Record) []byte { return appendRecord(nil, r) }

// appendRecord appends one framed record to out.
func appendRecord(out []byte, r Record) []byte {
	// payload: kind(1) verdict(1) key(8) nmodel(2) {varlen(2) var val(8)}*
	//          ntables(2) {tlen(2) table}*
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
	out = binary.LittleEndian.AppendUint16(out, uint16(len(r.Tables)))
	for _, t := range r.Tables {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(t)))
		out = append(out, t...)
	}
	if r.Kind == KindHeader {
		out = append(out, magic...)
	}
	payload := out[start+4:]
	binary.LittleEndian.PutUint32(out[start:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
}
