package store

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"reflect"
	"strings"
	"testing"

	"repro/internal/journal"
)

// The replay this package had before its families kept frames: every
// record decoded into a journal.Record at Open, each tombstone applied over
// the family as it is read, its tags hashed here (hash/fnv) and compared
// with the records' decoded Tags. It is the oracle FuzzOpen holds Open to.

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
	f.bytes += rulesLen(text)
	f.hasRules, f.rules = true, text
}

// refHash is FNV-1a-32 of s.
func refHash(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// kill retires what depends on tags: a full tag matches a record tag whose
// table hash is its table's and whose tag hash is its own, a bare table
// name every record tag whose table hash is its.
func (f *refFamily) kill(tags []string) {
	type pair struct{ table, tag uint32 }
	exact, tables := map[pair]bool{}, map[uint32]bool{}
	for _, t := range tags {
		if table, _, full := strings.Cut(t, "#"); full {
			exact[pair{refHash(table), refHash(t)}] = true
		} else {
			tables[refHash(t)] = true
		}
	}
	for k, r := range f.recs {
		for _, tag := range r.Tags {
			p := pair{binary.LittleEndian.Uint32(tag[:4]), binary.LittleEndian.Uint32(tag[4:])}
			if exact[p] || tables[p.table] {
				delete(f.recs, k)
				f.bytes -= r.n
				break
			}
		}
	}
}

// refDeadTags reads a tombstone's payload, 'T' {tlen(2) tag}*.
func refDeadTags(p []byte) ([]string, bool) {
	var tags []string
	for p = p[1:]; len(p) > 0; {
		if len(p) < 2 || len(p) < 2+int(binary.LittleEndian.Uint16(p)) {
			return nil, false
		}
		n := 2 + int(binary.LittleEndian.Uint16(p))
		tags, p = append(tags, string(p[2:n])), p[n:]
	}
	return tags, true
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
		case p[0] == frameDead:
			var tags []string
			if tags, ok = refDeadTags(p); ok {
				f.kill(tags)
			}
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
		for k, r := range w.recs {
			e, ok := f.recs.Lookup(k.kind, k.key)
			if !ok || !reflect.DeepEqual(e.Record(), r.Record) || int64(len(e.Frame())) != r.n {
				t.Fatalf("family %#x: (%d, %d) reads %+v (%v), the reference %+v", fam, k.kind, k.key, e.Record(), ok, r.Record)
			}
		}
	}
}
