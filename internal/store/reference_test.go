package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"reflect"
	"testing"

	"repro/internal/journal"
)

// The replay this package had before its families kept frames: every
// record decoded into a journal.Record at Open, each retire frame's keys
// deleted from a map of them as it is read; a template list kept as its
// frame, which a rules frame with other text drops. It is the oracle
// FuzzOpen holds Open to.

type refKey struct {
	kind journal.Kind
	key  uint64
}

// refRec is a decoded record with the length of its frame.
type refRec struct {
	journal.Record
	n int64
}

type refFamily struct {
	hasRules bool
	rules    string
	recs     map[refKey]refRec
	list     []byte // the template list's frame, nil for none
	bytes    int64
}

type refState struct {
	txid uint64
	fams map[uint64]*refFamily
}

func (f *refFamily) put(r journal.Record, n int64) {
	k := refKey{r.Kind, r.Key}
	f.bytes += n - f.recs[k].n
	f.recs[k] = refRec{r, n}
}

func (f *refFamily) setRules(text string) {
	if f.hasRules {
		f.bytes -= rulesLen(f.rules)
	}
	if text != f.rules {
		f.bytes -= int64(len(f.list))
		f.list = nil
	}
	f.bytes += rulesLen(text)
	f.hasRules, f.rules = true, text
}

// retire deletes the records a retire frame's payload, {kind(1) key(8)}*,
// names; ok=false when the payload is no whole list of keys or names a
// record the family does not hold.
func (f *refFamily) retire(p []byte) bool {
	if len(p)%9 != 0 {
		return false
	}
	for ; len(p) > 0; p = p[9:] {
		k := refKey{journal.Kind(p[0]), binary.LittleEndian.Uint64(p[1:])}
		r, ok := f.recs[k]
		if !ok {
			return false
		}
		delete(f.recs, k)
		f.bytes -= r.n
	}
	return true
}

// refReplay reads a log as replay did: the committed state and the offset
// past the last commit marker, or ErrCorrupt.
func refReplay(data []byte) (*refState, int, error) {
	p, off, ok := journal.SplitFrame(data)
	if !ok || string(p) != magic {
		return nil, 0, fmt.Errorf("%w: no verdict-store header", ErrCorrupt)
	}
	st := &refState{fams: map[uint64]*refFamily{}}
	good := off
	var f *refFamily
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
			st.txid, good, f = id, off+n, nil
		case p[0] == frameFamily && len(p) == 9:
			fam := binary.LittleEndian.Uint64(p[1:])
			if f = st.fams[fam]; f == nil {
				f = &refFamily{recs: map[refKey]refRec{}, bytes: idLen}
				st.fams[fam] = f
			}
		case f == nil:
			ok = false
		case p[0] == byte(journal.KindCheck), p[0] == byte(journal.KindEmit):
			var e journal.Entry
			if e, ok = journal.EntryOf(data[off : off+n]); ok {
				f.put(e.Record(), int64(n))
			}
		case p[0] == byte(journal.KindTemplates):
			if _, ok = journal.EntryOf(data[off : off+n]); ok {
				f.bytes += int64(n - len(f.list))
				f.list = data[off : off+n]
			}
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
		return refReplay(data[:good])
	}
	maps.DeleteFunc(st.fams, func(_ uint64, f *refFamily) bool { return !f.hasRules && len(f.recs) == 0 })
	return st, good, nil
}

// sameAsReference checks that st, a state replay read, holds what the
// reference replay read: the transaction ID, and per family the rules,
// the live-byte count and every record, decoded alike.
func sameAsReference(t *testing.T, st *state, want *refState) {
	t.Helper()
	if st.txid != want.txid || len(st.fams) != len(want.fams) {
		t.Fatalf("txid %d with %d families, the reference txid %d with %d", st.txid, len(st.fams), want.txid, len(want.fams))
	}
	for fam, w := range want.fams {
		f := st.fams[fam]
		if f == nil {
			t.Fatalf("family %#x missing", fam)
		}
		if f.hasRules != w.hasRules || f.rules != w.rules || f.bytes != w.bytes || f.recs.Len() != len(w.recs) {
			t.Fatalf("family %#x: rules %v %q, %d live bytes, %d records; the reference %v %q, %d, %d",
				fam, f.hasRules, f.rules, f.bytes, f.recs.Len(), w.hasRules, w.rules, w.bytes, len(w.recs))
		}
		if got := f.recs.Templates().Frame(); !bytes.Equal(got, w.list) || (got == nil) != (w.list == nil) {
			t.Fatalf("family %#x: template list of %d bytes, the reference %d", fam, len(got), len(w.list))
		}
		for k, r := range w.recs {
			e, ok := f.recs.Lookup(k.kind, k.key)
			if !ok || !reflect.DeepEqual(e.Record(), r.Record) || int64(len(e.Frame())) != r.n {
				t.Fatalf("family %#x: (%d, %d) reads %+v (%v), the reference %+v", fam, k.kind, k.key, e.Record(), ok, r.Record)
			}
		}
	}
}
