package rules

import (
	"fmt"
	"sort"
	"strings"
)

// This file defines the canonical form of a rule set and the dependency
// tag vocabulary shared by the CFG table encoder and the incremental
// regression layer (internal/rulediff, internal/regress). A dependency
// tag names one table branch — a specific entry (by its match
// signature) or the miss branch — so a rule update can retire exactly
// the journal records and cached verdicts whose path ran through a
// changed branch.

// MatchKey returns the entry's canonical match signature: priority plus
// the matches sorted by field (a match list is a conjunction, so order
// is semantically irrelevant). Two entries share a MatchKey exactly when
// they match the same packets at the same priority; action and arguments
// are deliberately excluded so that an action-data update keeps the
// signature stable.
func (e *Entry) MatchKey() string {
	ms := make([]string, len(e.Matches))
	for i, m := range e.Matches {
		ms[i] = m.String()
	}
	sort.Strings(ms)
	return fmt.Sprintf("priority=%d|%s", e.Priority, strings.Join(ms, "|"))
}

// tagHash is FNV-1a over a string (tags embed it in fixed-width hex).
func tagHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// DepTag returns the dependency tag of a table entry's branch:
// "<table>#<hex of MatchKey hash>". The tag survives action-data updates
// (MatchKey ignores action/args) and identifies the entry across rule
// set versions.
func DepTag(table string, e *Entry) string {
	return fmt.Sprintf("%s#%016x", table, tagHash(e.MatchKey()))
}

// MissTag returns the dependency tag of a table's miss branch. The miss
// condition negates every entry's match, so it changes whenever the set
// of match signatures changes (but not on action-data updates).
func MissTag(table string) string { return table + "#miss" }

// TagTable extracts the table name from a dependency tag (everything
// before the first '#'; P4 identifiers cannot contain '#'). A bare table
// name passes through unchanged.
func TagTable(tag string) string {
	if i := strings.IndexByte(tag, '#'); i >= 0 {
		return tag[:i]
	}
	return tag
}

// Clone returns a deep copy of the entry.
func (e *Entry) Clone() *Entry {
	c := &Entry{Priority: e.Priority, Action: e.Action}
	c.Matches = append([]Match(nil), e.Matches...)
	c.Args = append([]uint64(nil), e.Args...)
	return c
}

// canonicalLess orders entries deterministically: descending priority
// first (matching Entries' semantics), then match signature, then the
// full rendering (action + args break remaining ties).
func canonicalLess(a, b *Entry) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	ak, bk := a.MatchKey(), b.MatchKey()
	if ak != bk {
		return ak < bk
	}
	return a.String() < b.String()
}

// CanonicalEntries returns a table's entries — the set's own, not copies —
// sorted by (descending priority, match signature, rendering).
func (s *Set) CanonicalEntries(table string) []*Entry {
	es := append([]*Entry(nil), s.tables[table]...)
	sort.SliceStable(es, func(i, j int) bool { return canonicalLess(es[i], es[j]) })
	return es
}

// Canonical returns a copy of the set in canonical form: tables sorted
// by name, entries deep-copied in CanonicalEntries order. Canonical output
// is the stable serialization the diff layer keys on: two sets are
// semantically equal for regression purposes iff their canonical forms
// render identically.
func (s *Set) Canonical() *Set {
	out := NewSet()
	names := append([]string(nil), s.order...)
	sort.Strings(names)
	for _, t := range names {
		for _, e := range s.CanonicalEntries(t) {
			out.Add(t, e.Clone())
		}
	}
	return out
}

// Clone returns a deep copy of the set that keeps its table and entry
// order. The order is not semantic, but it is what the CFG encoder builds
// miss predicates and priority negations in, so a copy that is to share
// verdict keys with the original must keep it.
func (s *Set) Clone() *Set {
	out := NewSet()
	for _, t := range s.order {
		for _, e := range s.tables[t] {
			out.Add(t, e.Clone())
		}
	}
	return out
}

// Equal reports whether two sets have identical canonical forms.
func (s *Set) Equal(other *Set) bool {
	return s.Canonical().String() == other.Canonical().String()
}
