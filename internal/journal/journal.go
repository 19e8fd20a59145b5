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
// The lookup index is the run's one verdict table: Open fills it from the
// file, Seed and Adopt put records from other sources (a regression
// baseline, a store snapshot) straight into it, and a journal made by New
// has no file at all.
//
// Concurrency: the index is filled before the run's first exploration — at
// Open, in Seed and in Adopt — and never changes while one runs, so Lookup
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

type mapKey struct {
	kind Kind
	key  uint64
}

// Journal is a run's verdict table, backed by an open checkpoint file
// unless New made it.
type Journal struct {
	mu   sync.Mutex
	f    *os.File          // nil: no file behind the table
	buf  []byte            // Append's encoding scratch, under mu
	seen map[mapKey]Record // filled before the first exploration

	// mirror, when set, observes every successfully appended record
	// (dependency tags and Indexed folded in, exactly as a reload would
	// see it). A store-backed generation collects what it derived this
	// way, for its commit, without re-reading a file. Invoked under the
	// append lock, so observations are ordered; the callback must not
	// call back into the journal.
	mirror func(Record)

	loaded   int // verdict records put into the index: recovered at Open, seeded, adopted
	appended atomic.Uint64
}

const magic = "MEISSAJ1"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// New returns a journal with no file behind it, for a run that named no
// checkpoint: appends reach the mirror and the counters only, and Sync
// and Close do nothing.
func New() *Journal { return &Journal{seen: map[mapKey]Record{}} }

// Open opens a checkpoint file. With resume=false the file is created or
// truncated and a fresh header is written. With resume=true the existing
// file is loaded: the header fingerprint must match, intact records
// populate the lookup map, and a torn or corrupt tail is discarded (the
// file is truncated back to the last intact record) so appends continue
// from a clean boundary.
func Open(path string, fingerprint uint64, resume bool) (*Journal, error) {
	if !resume {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, fmt.Errorf("journal: create %s: %w", path, err)
		}
		j := &Journal{f: f, seen: map[mapKey]Record{}}
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
	j := &Journal{f: f, seen: map[mapKey]Record{}}
	good, err := j.load(fingerprint)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Drop the torn tail (if any) so new appends start at a record
	// boundary.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: seek: %w", err)
	}
	obs.RecordFlight(obs.FlightJournalOpen, 1, uint64(j.loaded), fingerprint)
	return j, nil
}

// load scans the file, populating seen, and returns the offset just past
// the last intact record. A short, torn, or checksum-failing record ends
// the scan without error — that is the tolerated kill artifact. A missing
// or mismatched header is an error: the journal belongs to different
// inputs.
func (j *Journal) load(fingerprint uint64) (int64, error) {
	// One read into a buffer of the file's size, and one copy of each
	// dependency tag: a gw-4 checkpoint is 39 MB of records that repeat a
	// few hundred tags a million times over.
	st, err := j.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("journal: stat: %w", err)
	}
	data := make([]byte, st.Size())
	if _, err := io.ReadFull(j.f, data); err != nil {
		return 0, fmt.Errorf("journal: read: %w", err)
	}
	tags := map[string]string{}
	off := int64(0)
	first := true
	for {
		rec, n, ok := decode(data[off:], tags)
		if !ok {
			break
		}
		if first {
			if rec.Kind != KindHeader || rec.Key != fingerprint {
				return 0, fmt.Errorf("journal: checkpoint written for a different program or options (fingerprint %#x, want %#x)", rec.Key, fingerprint)
			}
			first = false
		} else if rec.Kind == KindIndex {
			// Fold the dependency index into the verdict it annotates (its
			// Verdict byte stores the annotated record's kind). An index is
			// appended in the same write as its verdict, so it always
			// follows it; an orphan index (verdict superseded later in the
			// file) is simply dropped.
			k := mapKey{Kind(rec.Verdict), rec.Key}
			if vr, ok := j.seen[k]; ok {
				vr.Tables = rec.Tables
				vr.Indexed = true
				j.seen[k] = vr
			}
		} else {
			j.Seed(rec)
		}
		off += int64(n)
	}
	if first {
		return 0, fmt.Errorf("journal: no checkpoint header (empty or torn file)")
	}
	return off, nil
}

// Lookup returns the record the index holds for a key. Safe for
// concurrent use without locking: the index is frozen while an
// exploration runs.
func (j *Journal) Lookup(kind Kind, key uint64) (Record, bool) {
	r, ok := j.seen[mapKey{kind, key}]
	return r, ok
}

// Seed puts r into the lookup index and writes nothing: r was read from
// this journal's file at Open, or comes from a source the run does not
// re-journal (a regression's baseline replay). It counts as loaded. Legal
// only before the run's first exploration.
func (j *Journal) Seed(r Record) {
	j.seen[mapKey{r.Kind, r.Key}] = r
	j.loaded++
	mRecordsLoaded.Inc()
}

// Adopt makes recs part of the journal as though the run it continues
// had journaled them: a file receives them in order, in the bytes Append
// would have written, and then they are seeded. They count as loaded, not
// appended, and the mirror does not see them. Legal only before the run's
// first exploration.
func (j *Journal) Adopt(recs []Record) error {
	if j.f != nil {
		// A kill mid-way leaves a shorter journal, as one between appends would.
		w := bufio.NewWriterSize(j.f, 1<<20)
		var buf []byte
		for _, r := range recs {
			buf = appendVerdict(buf[:0], r)
			w.Write(buf) // Flush reports a failed write
		}
		if err := w.Flush(); err != nil {
			return fmt.Errorf("journal: adopt: %w", err)
		}
	}
	for _, r := range recs {
		j.Seed(r)
	}
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
func (j *Journal) Records() []Record {
	out := make([]Record, 0, len(j.seen))
	for _, r := range j.seen {
		out = append(out, r)
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Kind != out[k].Kind {
			return out[i].Kind < out[k].Kind
		}
		return out[i].Key < out[k].Key
	})
	return out
}

// Canonical returns recs as a journal that loaded them in this order
// would: the last of the records sharing a (kind, key), sorted by both.
func Canonical(recs []Record) []Record {
	t := Journal{seen: make(map[mapKey]Record, len(recs))}
	for _, r := range recs {
		t.seen[mapKey{r.Kind, r.Key}] = r
	}
	return t.Records()
}

// ReadRecords opens a checkpoint read-only and returns its deduplicated
// verdict records (dependency annotations folded in) in canonical
// (kind, key) order, tolerating a torn tail exactly like a resume: how
// Regress loads a baseline journal, and `store import` a journal to
// import. The file is never truncated or written.
func ReadRecords(path string, fingerprint uint64) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: read %s: %w", path, err)
	}
	j := &Journal{f: f, seen: map[mapKey]Record{}}
	_, lerr := j.load(fingerprint)
	f.Close()
	if lerr != nil {
		return nil, lerr
	}
	return j.Records(), nil
}

// MarshalRecord returns the framed encoding of r — length prefix,
// payload, CRC32C, dependency tags inline — in the framing Append writes.
// The disk-backed verdict store's log holds its verdicts as these frames.
func MarshalRecord(r Record) []byte { return encode(r) }

// AppendRecord appends MarshalRecord(r) to out.
func AppendRecord(out []byte, r Record) []byte { return appendRecord(out, r) }

// UnmarshalRecord parses one framed record produced by MarshalRecord.
// ok=false means the bytes hold no intact record.
func UnmarshalRecord(data []byte) (Record, bool) { return UnmarshalInterned(data, nil) }

// UnmarshalInterned is UnmarshalRecord for a reader that keeps many
// records: a non-nil tags holds the one copy of every dependency tag
// decoded so far, which the records then share (a run's verdicts repeat a
// few hundred tags a million times over).
func UnmarshalInterned(data []byte, tags map[string]string) (Record, bool) {
	r, _, ok := decode(data, tags)
	return r, ok
}

// Loaded returns the number of records the run started with: recovered
// at Open, seeded or adopted.
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

// decode parses the first record in data. ok=false means data holds no
// intact record (empty, short, or corrupt) — the torn-tail condition.
// tags, when non-nil, interns the record's dependency tags.
func decode(data []byte, tags map[string]string) (Record, int, bool) {
	if len(data) < 4 {
		return Record{}, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(data))
	total := 4 + plen + 4
	if plen < 14 || len(data) < total {
		return Record{}, 0, false
	}
	payload := data[4 : 4+plen]
	want := binary.LittleEndian.Uint32(data[4+plen:])
	if crc32.Checksum(payload, crcTable) != want {
		return Record{}, 0, false
	}
	var r Record
	r.Kind = Kind(payload[0])
	r.Verdict = Verdict(payload[1])
	r.Key = binary.LittleEndian.Uint64(payload[2:])
	nm := int(binary.LittleEndian.Uint16(payload[10:]))
	off := 12
	for i := 0; i < nm; i++ {
		if off+2 > plen {
			return Record{}, 0, false
		}
		vl := int(binary.LittleEndian.Uint16(payload[off:]))
		off += 2
		if off+vl+8 > plen {
			return Record{}, 0, false
		}
		r.Model = append(r.Model, VarVal{Var: string(payload[off : off+vl]), Val: binary.LittleEndian.Uint64(payload[off+vl:])})
		off += vl + 8
	}
	if off+2 > plen {
		return Record{}, 0, false
	}
	nt := int(binary.LittleEndian.Uint16(payload[off:]))
	off += 2
	for i := 0; i < nt; i++ {
		if off+2 > plen {
			return Record{}, 0, false
		}
		tl := int(binary.LittleEndian.Uint16(payload[off:]))
		off += 2
		if off+tl > plen {
			return Record{}, 0, false
		}
		tag, ok := tags[string(payload[off:off+tl])]
		if !ok {
			if tag = string(payload[off : off+tl]); tags != nil {
				tags[tag] = tag
			}
		}
		r.Tables = append(r.Tables, tag)
		off += tl
	}
	if r.Kind == KindHeader {
		if plen < off+len(magic) || string(payload[off:off+len(magic)]) != magic {
			return Record{}, 0, false
		}
	}
	return r, total, true
}
