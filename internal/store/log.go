package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"

	"repro/internal/journal"
)

// The frames of the log (the package comment has the layout) and the
// state they add up to.

const (
	magic = "MEISSAS4"

	frameFamily = 'F'
	frameRules  = 'R'
	frameRetire = 'K' // the keys of the records a transaction retired
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
// the frame the log holds it in, and in the records' table the template
// list of the last completed run under those rules, if it has one. The
// store's transaction changes it in place; the table a warm start shares
// with its run's journal changes only before the run explores and after.
type family struct {
	hasRules bool
	rules    string
	recs     journal.Table
	bytes    int64 // what a log of live frames only spends on the family
}

func (f *family) empty() bool { return !f.hasRules && f.recs.Len() == 0 }

// put and setRules are what the log's frames do to a family, at Open and in
// a transaction alike; retire is what Open does with the retire frame that
// Tx.Retire writes of the records it deleted.

// put adds the record framed by frame, tags inline, over any record of its
// key, or a template list over the family's; the family keeps frame.
// ok=false: frame holds no record.
func (f *family) put(frame []byte) bool {
	old, ok := f.recs.PutFrame(frame)
	if ok {
		f.bytes += int64(len(frame) - len(old.Frame()))
	}
	return ok
}

// setRules installs text. Rules that are not the family's drop its template
// list: a list is its run's, and that run's rules are the family's. A commit
// that installs new rules and no list leaves the family without one.
func (f *family) setRules(text string) {
	if f.hasRules {
		f.bytes -= rulesLen(f.rules)
	}
	if text != f.rules {
		f.bytes -= int64(len(f.recs.DropTemplates().Frame()))
	}
	f.bytes += rulesLen(text)
	f.hasRules, f.rules = true, text
}

// retire deletes the records a retire frame's payload names,
// {kind(1) key(8)}*, in order; ok=false when it names one the family does
// not hold.
func (f *family) retire(keys []byte) bool {
	if len(keys)%9 != 0 {
		return false
	}
	for ; len(keys) > 0; keys = keys[9:] {
		e, ok := f.recs.Delete(journal.Kind(keys[0]), binary.LittleEndian.Uint64(keys[1:]))
		if !ok {
			return false
		}
		f.bytes -= int64(len(e.Frame()))
	}
	return true
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
	return append(out, f.recs.Templates().Frame()...)
}

// state is what the store holds: the committed transactions' families,
// and an open transaction's changes to them.
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

// edit returns a family to change, made empty when the state holds none.
func (st *state) edit(fam uint64) *family {
	f := st.fams[fam]
	if f == nil {
		f = &family{bytes: idLen}
		st.fams[fam] = f
	}
	return f
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
// every record an entry over its frame in data, and the offset just past
// the last one's marker. It reads each frame once, in one forward pass,
// and tests no tag: a retire frame names the records it deletes. What
// follows that offset is an uncommitted tail for the caller to drop —
// unless a frame in it is damaged and a later transaction committed all
// the same, which makes the damage part of committed history: ErrCorrupt,
// as is any intact frame that makes no sense.
func replay(data []byte) (*state, int, error) {
	p, off, ok := journal.SplitFrame(data)
	if !ok || string(p) != magic {
		return nil, 0, fmt.Errorf("%w: no verdict-store header", ErrCorrupt)
	}
	st := &state{fams: map[uint64]*family{}}
	good := off
	var f *family // the family in scope
	for off < len(data) {
		p, n, ok := journal.SplitFrame(data[off:])
		if !ok {
			if laterCommit(data[off:], st.txid+1) {
				return nil, 0, fmt.Errorf("%w: damaged frame at offset %d inside committed history", ErrCorrupt, off)
			}
			break
		}
		switch id, commit := commitID(p); {
		case commit:
			ok = id > st.txid
			st.txid, good, f = id, off+n, nil // a family frame scopes no further than its transaction
		case p[0] == frameFamily && len(p) == 9:
			f = st.edit(binary.LittleEndian.Uint64(p[1:]))
		case f == nil:
			ok = false
		case p[0] == byte(journal.KindCheck), p[0] == byte(journal.KindEmit), p[0] == byte(journal.KindTemplates):
			// Kept as it lies in data: the table indexes frames, decodes nothing.
			ok = f.put(data[off : off+n : off+n])
		case p[0] == frameRetire:
			ok = f.retire(p[1:])
		case p[0] == frameRules:
			f.setRules(string(p[1:]))
		default:
			ok = false
		}
		if !ok {
			return nil, 0, fmt.Errorf("%w: frame %q at offset %d", ErrCorrupt, p[0], off)
		}
		off += n
	}
	if off > good {
		// The intact frames of a transaction that never committed went
		// into st: read the committed part again, alone.
		return replay(data[:good])
	}
	maps.DeleteFunc(st.fams, func(_ uint64, f *family) bool { return f.empty() })
	return st, good, nil
}
