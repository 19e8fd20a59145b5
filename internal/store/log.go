package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"

	"repro/internal/journal"
	"repro/internal/rulediff"
)

// The frames of the log (the package comment has the layout) and the
// state they add up to.

const (
	magic = "MEISSAS3"
	// pagedMagic is what the page-based format of earlier releases kept in
	// the same bytes 4-12 of the file, and textMagic what the log of the
	// releases whose record frames spelt their tags out kept there.
	pagedMagic = "MEISSAS1"
	textMagic  = "MEISSAS2"

	frameFamily = 'F'
	frameRules  = 'R'
	frameDead   = 'T' // the tags to retire records by, spelt out
	frameCommit = 'X'

	headerLen = 8 + len(magic)
	idLen     = 8 + 1 + 8 // a family frame, a commit marker
)

// hash64 is FNV-1a over s.
func hash64(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	return f.Sum64()
}

// appendID frames a family scope or a commit marker.
func appendID(out []byte, kind byte, id uint64) []byte {
	return journal.AppendFrame(out, binary.LittleEndian.AppendUint64([]byte{kind}, id))
}

func appendRules(out []byte, text string) []byte {
	return journal.AppendFrame(out, []byte{frameRules}, []byte(text))
}

func rulesLen(text string) int64 { return int64(8 + 1 + len(text)) }

// appendDead frames a tombstone: 'T' {tlen(2) tag}*, the tags as
// Tx.InvalidateTags was given them. A bare table name retires the whole
// table, which no journal.Tag says; and tombstones are few.
func appendDead(out []byte, tags []string) []byte {
	p := []byte{frameDead}
	for _, t := range tags {
		p = append(binary.LittleEndian.AppendUint16(p, uint16(len(t))), t...)
	}
	return journal.AppendFrame(out, p)
}

// deadTags reads a tombstone's payload; ok=false: a tag overruns it.
func deadTags(p []byte) (tags []string, ok bool) {
	for off := 1; off < len(p); {
		if off+2 > len(p) {
			return nil, false
		}
		l := int(binary.LittleEndian.Uint16(p[off:]))
		if off += 2; off+l > len(p) {
			return nil, false
		}
		tags = append(tags, string(p[off:off+l]))
		off += l
	}
	return tags, true
}

// commitID reads a commit marker's transaction ID.
func commitID(p []byte) (uint64, bool) {
	if len(p) != 9 || p[0] != frameCommit {
		return 0, false
	}
	return binary.LittleEndian.Uint64(p[1:]), true
}

// laterCommit reports whether tail holds an intact commit marker of a
// transaction after txid.
func laterCommit(tail []byte, txid uint64) bool {
	marker := []byte{idLen - 8, 0, 0, 0, frameCommit}
	for i := bytes.Index(tail, marker); i >= 0; i = bytes.Index(tail, marker) {
		if p, _, ok := journal.SplitFrame(tail[i:]); ok {
			if id, ok := commitID(p); ok && id > txid {
				return true
			}
		}
		tail = tail[i+1:]
	}
	return false
}

// family is one family's state: its rules and its records, each kept as
// the frame the log holds it in. A committed one never changes, nor does
// its table, which warm starts and regressions share: a transaction works
// on a clone, which its commit puts in place.
type family struct {
	hasRules bool
	rules    string
	recs     journal.Table
	bytes    int64 // what a log of live frames only spends on the family
}

// clone returns a family a transaction may change; of one with no state
// yet, an empty one.
func (f *family) clone() *family {
	if f.bytes == 0 {
		return &family{bytes: idLen}
	}
	c := *f
	c.recs = *f.recs.Clone()
	return &c
}

func (f *family) empty() bool { return !f.hasRules && f.recs.Len() == 0 }

// put and setRules are what the log's frames do to a family, at Open and in
// a transaction alike; a tombstone is kill in a transaction, bury at Open.

// put adds the record framed by frame, tags inline, over any record of its
// key; the family keeps frame. ok=false: frame holds no record.
func (f *family) put(frame []byte) bool {
	old, ok := f.recs.PutFrame(frame)
	if ok {
		f.bytes += int64(len(frame) - len(old.Frame()))
	}
	return ok
}

func (f *family) setRules(text string) {
	if f.hasRules {
		f.bytes -= rulesLen(f.rules)
	}
	f.bytes += rulesLen(text)
	f.hasRules, f.rules = true, text
}

// kill retires every record that depends on one of tags — by the rule a
// regression retires baseline records by: a full tag matches itself, a
// bare table name all of the table's — and returns how many went.
func (f *family) kill(tags []string) int {
	invalid := rulediff.Matcher(tags)
	return f.recs.DeleteFunc(func(e journal.Entry) bool {
		if !e.DependsOn(invalid) {
			return false
		}
		f.bytes -= int64(len(e.Frame()))
		return true
	})
}

// graves are the tombstones a replay read for one family, in log order.
type graves struct {
	tags   [][]string
	passed int                     // how many of them bury's walk has passed
	union  []func(tag []byte) bool // [i]: tags[i:] as one matcher, made on first use
}

// bury applies the tombstones replay read from data, the last of them
// ending at end, once the whole log is read: applying each as it was read
// would test every record of the family once per tombstone. It walks the
// log again, in order, up to end: a record frame that a tombstone of its
// family follows is tested once, against the union of those tombstones,
// and goes when it depends on one and is still its key's entry. That
// retires what applying them in turn would: a record put again after a
// tombstone is not its victim. It returns how many records it tested.
func bury(st *state, data []byte, dead map[*family]*graves, end int) uint64 {
	for _, g := range dead {
		g.union = make([]func([]byte) bool, len(g.tags))
	}
	tests := uint64(0)
	var f *family
	var g *graves // f's, nil for none
	for off := headerLen; off < end; {
		n := 8 + int(binary.LittleEndian.Uint32(data[off:]))
		switch data[off+4] {
		case frameCommit:
			g = nil
		case frameFamily:
			f = st.fams[binary.LittleEndian.Uint64(data[off+5:])]
			g = dead[f]
		case frameDead:
			if g != nil {
				g.passed++
			}
		case byte(journal.KindCheck), byte(journal.KindEmit):
			if g == nil || g.passed == len(g.tags) {
				break
			}
			i := g.passed
			if g.union[i] == nil {
				g.union[i] = rulediff.Matcher(slices.Concat(g.tags[i:]...))
			}
			tests++
			e, _ := journal.EntryOf(data[off : off+n : off+n]) // replay put it
			if e.DependsOn(g.union[i]) && f.recs.Drop(e) {
				f.bytes -= int64(n)
			}
		}
		off += n
	}
	return tests
}

// appendTo frames the family as a log of live frames only holds it.
func (f *family) appendTo(out []byte, fam uint64) []byte {
	out = appendID(out, frameFamily, fam)
	if f.hasRules {
		out = appendRules(out, f.rules)
	}
	for _, e := range f.recs.Sorted() {
		out = append(out, e.Frame()...)
	}
	return out
}

// state is a committed state of the store, which snapshots pin.
type state struct {
	txid uint64
	fams map[uint64]*family
}

// fam returns a family to read; of one the state does not hold, the zero
// family.
func (st *state) fam(fam uint64) *family {
	if f := st.fams[fam]; f != nil {
		return f
	}
	return &family{}
}

// live is the size of the log that holds the state and nothing else.
func (st *state) live() uint64 {
	n := int64(headerLen + idLen)
	for _, f := range st.fams {
		n += f.bytes
	}
	return uint64(n)
}

// replay reads a log: the state its committed transactions add up to,
// every record an entry over its frame in data, the offset just past the
// last one's marker, and how many records it tested against retired tags.
// It reads each frame once, and a log holding tombstones once more to
// apply them (bury), so a log that many rule updates grew opens in time
// linear in its frames. What follows that offset is an uncommitted tail
// for the caller to drop — unless a frame in it is damaged and a later
// transaction committed all the same, which makes the damage part of
// committed history: ErrCorrupt, as is any intact frame that makes no
// sense.
func replay(data []byte) (*state, int, uint64, error) {
	p, off, ok := journal.SplitFrame(data)
	if !ok || string(p) != magic {
		return nil, 0, 0, fmt.Errorf("%w: no verdict-store header", ErrCorrupt)
	}
	st := &state{fams: map[uint64]*family{}}
	good := off
	var f *family // the family in scope
	var dead map[*family]*graves
	deadEnd := 0
	for off < len(data) {
		p, n, ok := journal.SplitFrame(data[off:])
		if !ok {
			if laterCommit(data[off:], st.txid+1) {
				return nil, 0, 0, fmt.Errorf("%w: damaged frame at offset %d inside committed history", ErrCorrupt, off)
			}
			break
		}
		switch id, commit := commitID(p); {
		case commit:
			ok = id > st.txid
			st.txid, good, f = id, off+n, nil // a family frame scopes no further than its transaction
		case p[0] == frameFamily && len(p) == 9:
			fam := binary.LittleEndian.Uint64(p[1:])
			if f = st.fams[fam]; f == nil {
				f = st.fam(fam).clone()
				st.fams[fam] = f
			}
		case f == nil:
			ok = false
		case p[0] == byte(journal.KindCheck), p[0] == byte(journal.KindEmit):
			// Kept as it lies in data: the table indexes frames, decodes nothing.
			ok = f.put(data[off : off+n : off+n])
		case p[0] == frameDead:
			var tags []string
			if tags, ok = deadTags(p); ok {
				if dead == nil {
					dead = map[*family]*graves{}
				}
				if dead[f] == nil {
					dead[f] = &graves{}
				}
				dead[f].tags = append(dead[f].tags, tags)
				deadEnd = off + n
			}
		case p[0] == frameRules:
			f.setRules(string(p[1:]))
		default:
			ok = false
		}
		if !ok {
			return nil, 0, 0, fmt.Errorf("%w: frame %q at offset %d", ErrCorrupt, p[0], off)
		}
		off += n
	}
	if off > good {
		// The intact frames of a transaction that never committed went
		// into st: read the committed part again, alone.
		return replay(data[:good])
	}
	var tests uint64
	if dead != nil {
		tests = bury(st, data, dead, deadEnd)
	}
	maps.DeleteFunc(st.fams, func(_ uint64, f *family) bool { return f.empty() })
	return st, good, tests, nil
}
