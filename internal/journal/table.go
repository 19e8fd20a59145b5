package journal

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
)

// The verdict table over undecoded frames. A record's frame is
//
//	[u32 plen] kind verdict key(8) nm(2) {vlen(2) var val(8)}* nt(2) {table(4) tag(4)}* [magic | {pathkey(8)}*] [u32 CRC32C]
//
// (a Tag is its table(4) tag(4); the magic ends a header, the path keys a
// template list, whose lists are empty), and these are the fixed offsets in
// it that a lookup reads.
const (
	offKind    = 4
	offVerdict = 5
	offKey     = 6
	offModel   = 14 // the model's binding count; the bindings follow
	// minFrame frames the smallest payload: kind, verdict, key, two counts.
	minFrame = 8 + 14
)

// Entry is one record of a Table, kept as the frame it was read from,
// its dependency tags inline. Nothing is decoded until a method asks for
// it.
type Entry struct {
	// b is the frame. It is never appended to.
	b []byte
	// verdict is the frame's verdict byte, kept beside the slice: a lookup
	// reads it without touching the frame.
	verdict Verdict
}

// frameLen reads the length of the frame at the start of b.
func frameLen(b []byte) int { return 8 + int(binary.LittleEndian.Uint32(b)) }

// Kind returns the record's kind.
func (e Entry) Kind() Kind { return Kind(e.b[offKind]) }

// Key returns the record's key.
func (e Entry) Key() uint64 { return binary.LittleEndian.Uint64(e.b[offKey:]) }

// Verdict returns the record's verdict.
func (e Entry) Verdict() Verdict { return e.verdict }

// Model decodes the record's model (nil when it has none).
func (e Entry) Model() []VarVal { return decodeModel(e.b, offModel) }

// Frame returns the record's frame; nil for the zero Entry.
func (e Entry) Frame() []byte { return e.b }

// PathKeys decodes a template list's path keys, in template order; nil
// for any other record.
func (e Entry) PathKeys() []uint64 {
	if e.b == nil || e.Kind() != KindTemplates {
		return nil
	}
	body := e.b[offModel+4 : len(e.b)-4]
	keys := make([]uint64, len(body)/8)
	for i := range keys {
		keys[i] = binary.LittleEndian.Uint64(body[8*i:])
	}
	return keys
}

// Record decodes the entry into the Record a load of its frame yields;
// the zero Record for the zero Entry.
func (e Entry) Record() Record {
	if e.b == nil {
		return Record{}
	}
	return Record{
		Kind: e.Kind(), Key: e.Key(), Verdict: Verdict(e.b[offVerdict]), Model: e.Model(),
		Tags: decodeTags(e.b, e.modelEnd()),
	}
}

// DependsOn reports whether one of the record's dependency tags passes
// match, which is handed each tag's TagLen bytes in place; none passes a
// nil match. It allocates nothing.
func (e Entry) DependsOn(match func(tag []byte) bool) bool {
	if match == nil {
		return false
	}
	off := e.modelEnd()
	end := off + 2 + TagLen*int(binary.LittleEndian.Uint16(e.b[off:]))
	for off += 2; off < end; off += TagLen {
		if match(e.b[off : off+TagLen]) {
			return true
		}
	}
	return false
}

// modelEnd returns the offset just past the model list: the tag list's.
func (e Entry) modelEnd() int {
	off, _ := skipModel(e.b, len(e.b)-4)
	return off
}

// mapKey names a record; the tests key decoded records by it.
type mapKey struct {
	kind Kind
	key  uint64
}

func compareKeys(a, b mapKey) int {
	if a.kind != b.kind {
		return int(a.kind) - int(b.kind)
	}
	return cmp.Compare(a.key, b.key)
}

// Table is a verdict table: for each (kind, key), the Entry of the last
// record put under it. The zero Table is empty and ready to use.
//
// A table that more than one reader holds — a store snapshot's family, a
// regression baseline, a run's journal that shares either — is never
// changed again: a writer clones it first. That is what makes sharing it
// free and reading it lock-free.
type Table struct {
	// kinds holds one map per record kind, indexed by the kind: a lookup
	// hashes one uint64, which the runtime's maps do three times as fast as
	// a (kind, key) pair. A kind's map is nil until it holds a record.
	kinds []map[uint64]Entry
	// list is the template list put last (the zero Entry for none). It is
	// no verdict: Len, Lookup, Sorted and DeleteFunc pass it by.
	list Entry
}

// Len returns the number of records; 0 for a nil table.
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, m := range t.kinds {
		n += len(m)
	}
	return n
}

// Templates returns the template list the table holds, the zero Entry
// for none. Its key is the fingerprint of the run that wrote it.
func (t *Table) Templates() Entry { return t.list }

// DropTemplates removes the table's template list and returns it.
func (t *Table) DropTemplates() Entry {
	old := t.list
	t.list = Entry{}
	return old
}

// Lookup returns the entry held for (kind, key).
func (t *Table) Lookup(kind Kind, key uint64) (Entry, bool) {
	if int(kind) >= len(t.kinds) {
		return Entry{}, false
	}
	e, ok := t.kinds[kind][key]
	return e, ok
}

// Clone returns a copy that may be changed; its entries share their bytes
// with t's.
func (t *Table) Clone() *Table {
	c := &Table{kinds: make([]map[uint64]Entry, len(t.kinds)), list: t.list}
	for k, m := range t.kinds {
		if len(m) > 0 {
			c.kinds[k] = maps.Clone(m)
		}
	}
	return c
}

// kind returns the map of one kind, made when the table has none yet.
func (t *Table) kind(k Kind) map[uint64]Entry {
	if int(k) >= len(t.kinds) {
		t.kinds = append(t.kinds, make([]map[uint64]Entry, int(k)+1-len(t.kinds))...)
	}
	if t.kinds[k] == nil {
		t.kinds[k] = map[uint64]Entry{}
	}
	return t.kinds[k]
}

// put puts e over any entry of its kind and key — a template list over
// the table's list — and returns the one it replaced.
func (t *Table) put(e Entry) Entry {
	if e.Kind() == KindTemplates {
		old := t.list
		t.list = e
		return old
	}
	m, key := t.kind(e.Kind()), e.Key()
	old := m[key]
	m[key] = e
	return old
}

// Merge returns a table of under's entries with over's put over them. It
// changes neither: it returns one of them when the other is empty, else a
// copy.
func Merge(under, over *Table) *Table {
	if over.Len() == 0 {
		return under
	}
	if under.Len() == 0 {
		return over
	}
	m := under.Clone()
	for _, es := range over.kinds {
		for _, e := range es {
			m.put(e)
		}
	}
	return m
}

// PutFrame puts the record framed by frame — one whole frame, its
// checksum written or checked by the caller — over any entry of its kind
// and key, or a template list over the table's. The table keeps frame,
// which must not change. It returns the entry replaced (the zero Entry for
// none), or ok=false, and no change, when the payload does not hold a
// record.
func (t *Table) PutFrame(frame []byte) (replaced Entry, ok bool) {
	e, ok := EntryOf(frame)
	if !ok {
		return Entry{}, false
	}
	return t.put(e), true
}

// EntryOf reads frame as PutFrame puts it, into no table: ok=false when
// the payload does not hold a record.
func EntryOf(frame []byte) (e Entry, ok bool) {
	if len(frame) < minFrame || frameLen(frame) != len(frame) {
		return Entry{}, false
	}
	if _, ok := walk(frame); !ok {
		return Entry{}, false
	}
	return Entry{b: frame, verdict: Verdict(frame[offVerdict])}, true
}

// Drop removes e when it is the entry t holds for its kind and key — the
// same frame, not merely an equal one — and reports whether it was.
func (t *Table) Drop(e Entry) bool {
	held, ok := t.Lookup(e.Kind(), e.Key())
	if ok = ok && &held.b[0] == &e.b[0]; ok {
		delete(t.kinds[e.Kind()], e.Key())
	}
	return ok
}

// DeleteFunc removes every entry del returns true for and returns how
// many.
func (t *Table) DeleteFunc(del func(Entry) bool) int {
	n := t.Len()
	for _, m := range t.kinds {
		maps.DeleteFunc(m, func(_ uint64, e Entry) bool { return del(e) })
	}
	return n - t.Len()
}

// CountFunc returns how many entries f returns true for.
func (t *Table) CountFunc(f func(Entry) bool) int {
	n := 0
	for _, m := range t.kinds {
		for _, e := range m {
			if f(e) {
				n++
			}
		}
	}
	return n
}

// Sorted returns the entries in canonical (kind, key) order; none for a
// nil table.
func (t *Table) Sorted() []Entry {
	if t == nil {
		return nil
	}
	// Sort keys with positions, not whole entries: a third of the bytes to
	// move.
	type keyed struct {
		key uint64
		at  int
	}
	out := make([]Entry, 0, t.Len())
	for _, m := range t.kinds { // in kind order
		es, ks := make([]Entry, 0, len(m)), make([]keyed, 0, len(m))
		for key, e := range m {
			ks = append(ks, keyed{key, len(es)})
			es = append(es, e)
		}
		slices.SortFunc(ks, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
		for _, k := range ks {
			out = append(out, es[k.at])
		}
	}
	return out
}

// Records decodes the table in canonical (kind, key) order.
func (t *Table) Records() []Record {
	es := t.Sorted()
	out := make([]Record, len(es))
	for i, e := range es {
		out[i] = e.Record()
	}
	return out
}

// index reads a checkpoint file's bytes into a table whose entries point
// into data, a record winning over any earlier one of its kind and key and
// a template list over any earlier list. A short, torn or checksum-failing
// frame ends the scan: good is the offset past the last intact one, and
// loaded counts the verdicts read. A missing or mismatched header is an
// error, and so is an intact frame after it that holds neither a verdict
// nor a template list: no kill leaves one.
func index(data []byte, fingerprint uint64) (t *Table, good, loaded int, err error) {
	n, ok := parse(data)
	var hdr string // the magic after the header's lists
	if ok && Kind(data[offKind]) == KindHeader {
		end, _ := walk(data[:n])
		hdr = string(data[end:min(end+len(magic), n-4)])
	}
	if why, old := oldMagics[hdr]; old {
		return nil, 0, 0, fmt.Errorf("the header at offset 0 reads %s, a checkpoint format this release does not read "+
			"(%s): re-create it with a cold run, `meissa gen -checkpoint` without -resume", hdr, why)
	}
	if hdr != magic {
		return nil, 0, 0, fmt.Errorf("no checkpoint header (empty or torn file)")
	}
	if key := binary.LittleEndian.Uint64(data[offKey:]); key != fingerprint {
		return nil, 0, 0, fmt.Errorf("checkpoint written for a different program or options (fingerprint %#x, want %#x)", key, fingerprint)
	}
	t = &Table{}
	for good = n; ; good += n {
		if n, ok = parse(data[good:]); !ok {
			// An intact kind-3 frame that is no template list is the tag
			// record of an earlier format, not a torn tail.
			if p, _, intact := SplitFrame(data[good:]); intact && Kind(p[0]) == KindTemplates {
				return nil, 0, 0, fmt.Errorf("frame of kind %d at offset %d, which holds neither a verdict nor a template list", KindTemplates, good)
			}
			return t, good, loaded, nil
		}
		fr := data[good : good+n : good+n]
		e := Entry{b: fr, verdict: Verdict(fr[offVerdict])}
		// One map assignment a verdict: put's lookup of the entry it
		// replaces would hash the key twice.
		switch k := Kind(fr[offKind]); k {
		case KindCheck, KindEmit:
			loaded++
			t.kind(k)[e.Key()] = e
		case KindTemplates:
			t.list = e
		default:
			return nil, 0, 0, fmt.Errorf("frame of kind %d at offset %d, which holds no verdict", k, good)
		}
	}
}

// parse bounds-walks the first frame of data as a record without
// decoding it and returns the frame's length. ok=false means data holds
// no intact record (empty, short, failing its checksum, or lists that
// overrun it) — the torn-tail condition.
func parse(data []byte) (n int, ok bool) {
	if _, n, ok = SplitFrame(data); !ok || n < minFrame {
		return 0, false
	}
	_, ok = walk(data[:n])
	return n, ok
}

// walk checks that the payload of frame, one whole frame, holds a record —
// its model and tag lists inside it; for a verdict nothing after them, so
// that a record has one frame; for a template list empty lists and whole
// path keys after them — and returns the offset past the lists: where a
// header's magic or a list's path keys begin.
func walk(frame []byte) (int, bool) {
	end := len(frame) - 4
	off, ok := skipModel(frame, end)
	if !ok || off+2 > end {
		return 0, false
	}
	off += 2 + TagLen*int(binary.LittleEndian.Uint16(frame[off:]))
	switch Kind(frame[offKind]) {
	case KindHeader:
		return off, off <= end
	case KindTemplates:
		return off, off == offModel+4 && off <= end && (end-off)%8 == 0
	}
	return off, off == end
}

// skipModel walks the model list at data[offModel:end] — each binding a
// u16 length, that many bytes of name, then its 8-byte value — and returns
// the offset past it.
func skipModel(data []byte, end int) (int, bool) {
	off := offModel
	if off+2 > end {
		return 0, false
	}
	n := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2
	for i := 0; i < n; i++ {
		if off+2 > end {
			return 0, false
		}
		l := int(binary.LittleEndian.Uint16(data[off:]))
		if off += 2 + l + 8; off > end {
			return 0, false
		}
	}
	return off, true
}

// decodeModel decodes the model list at data[off:], sized once.
func decodeModel(data []byte, off int) []VarVal {
	n := int(binary.LittleEndian.Uint16(data[off:]))
	if n == 0 {
		return nil
	}
	m := make([]VarVal, n)
	off += 2
	for i := range m {
		l := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		m[i] = VarVal{Var: string(data[off : off+l]), Val: binary.LittleEndian.Uint64(data[off+l:])}
		off += l + 8
	}
	return m
}

// decodeTags decodes the tag list at data[off:], sized once.
func decodeTags(data []byte, off int) []Tag {
	n := int(binary.LittleEndian.Uint16(data[off:]))
	if n == 0 {
		return nil
	}
	ts := make([]Tag, n)
	off += 2
	for i := range ts {
		copy(ts[i][:], data[off:])
		off += TagLen
	}
	return ts
}
