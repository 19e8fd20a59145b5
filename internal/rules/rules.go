// Package rules models match-action table rule sets: the "table rule set"
// input of Meissa (Figure 2 of the paper). A rule set is parsed from its
// text format or built in code with the helpers below; internal/programs
// builds every corpus set that way.
package rules

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/p4"
)

// MatchKind is the kind of match an entry writes for a key: the key's
// own p4.MatchKind, or a wildcard. Bind decides which kinds a key takes.
type MatchKind int

// Match kinds.
const (
	Exact MatchKind = iota
	Ternary
	LPM
	Range
	Wildcard // key not constrained by this entry
)

func (k MatchKind) String() string {
	switch k {
	case Exact:
		return "exact"
	case Ternary:
		return "ternary"
	case LPM:
		return "lpm"
	case Range:
		return "range"
	case Wildcard:
		return "wildcard"
	}
	return "?"
}

// Match is one key constraint of a table entry.
type Match struct {
	Field string // source-level field reference, e.g. "ipv4.dstAddr"
	Kind  MatchKind
	Val   uint64 // Exact value, Ternary value, LPM value
	Mask  uint64 // Ternary mask
	Plen  int    // LPM prefix length
	Lo    uint64 // Range low (inclusive)
	Hi    uint64 // Range high (inclusive)
}

// String renders the match in the rule-file syntax.
func (m Match) String() string {
	switch m.Kind {
	case Exact:
		return fmt.Sprintf("%s=%d", m.Field, m.Val)
	case Ternary:
		return fmt.Sprintf("%s=%d&&&0x%x", m.Field, m.Val, m.Mask)
	case LPM:
		return fmt.Sprintf("%s=%d/%d", m.Field, m.Val, m.Plen)
	case Range:
		return fmt.Sprintf("%s=%d..%d", m.Field, m.Lo, m.Hi)
	case Wildcard:
		return fmt.Sprintf("%s=*", m.Field)
	}
	return "?"
}

// Entry is one rule of a table.
type Entry struct {
	Priority int // larger wins; meaningful for ternary/range tables
	Matches  []Match
	Action   string
	Args     []uint64
	Pos      p4.Pos // where it was read from; zero when built in code
}

// Match returns the entry's match for a field, or a Wildcard match.
func (e *Entry) Match(field string) Match {
	for _, m := range e.Matches {
		if m.Field == field {
			return m
		}
	}
	return Match{Field: field, Kind: Wildcard}
}

// String renders the entry in the rule-file syntax.
func (e *Entry) String() string {
	parts := make([]string, 0, len(e.Matches)+1)
	if e.Priority != 0 {
		parts = append(parts, fmt.Sprintf("priority=%d", e.Priority))
	}
	for _, m := range e.Matches {
		parts = append(parts, m.String())
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = fmt.Sprintf("%d", a)
	}
	return fmt.Sprintf("%s -> %s(%s);", strings.Join(parts, " "), e.Action, strings.Join(args, ", "))
}

// Set is a complete rule set: entries per table, in priority order
// (descending priority, then insertion order).
type Set struct {
	tables map[string][]*Entry
	order  []string // table insertion order for deterministic dumps
}

// NewSet returns an empty rule set.
func NewSet() *Set {
	return &Set{tables: make(map[string][]*Entry)}
}

// Add appends an entry to a table.
func (s *Set) Add(table string, e *Entry) {
	if _, ok := s.tables[table]; !ok {
		s.order = append(s.order, table)
	}
	s.tables[table] = append(s.tables[table], e)
}

// Entries returns the entries of a table — the set's own, not copies —
// in a fresh slice sorted by descending priority (stable within equal
// priorities).
func (s *Set) Entries(table string) []*Entry {
	out := slices.Clone(s.tables[table])
	sort.SliceStable(out, func(i, j int) bool { return out[i].Priority > out[j].Priority })
	return out
}

// Tables returns the table names in insertion order.
func (s *Set) Tables() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Len returns the total number of entries.
func (s *Set) Len() int {
	n := 0
	for _, es := range s.tables {
		n += len(es)
	}
	return n
}

// LOC returns the rule set's size in lines of text, the measure §5.1 uses
// ("set-4 is more than 200,000 LOC").
func (s *Set) LOC() int { return s.Len() }

// Merge adds all entries of other into s.
func (s *Set) Merge(other *Set) {
	for _, t := range other.order {
		for _, e := range other.tables[t] {
			s.Add(t, e)
		}
	}
}

// String dumps the rule set in the parseable text format.
func (s *Set) String() string {
	var b strings.Builder
	for _, t := range s.order {
		fmt.Fprintf(&b, "table %s {\n", t)
		for _, e := range s.tables[t] {
			fmt.Fprintf(&b, "  %s\n", e.String())
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// --- Builder helpers used by the corpus generators ---

// E builds an exact match.
func E(field string, val uint64) Match { return Match{Field: field, Kind: Exact, Val: val} }

// T builds a ternary match.
func T(field string, val, mask uint64) Match {
	return Match{Field: field, Kind: Ternary, Val: val, Mask: mask}
}

// L builds an LPM match.
func L(field string, val uint64, plen int) Match {
	return Match{Field: field, Kind: LPM, Val: val, Plen: plen}
}

// R builds a range match.
func R(field string, lo, hi uint64) Match { return Match{Field: field, Kind: Range, Lo: lo, Hi: hi} }

// Rule builds an entry.
func Rule(action string, args []uint64, matches ...Match) *Entry {
	return &Entry{Matches: matches, Action: action, Args: args}
}

// PRule builds an entry with a priority.
func PRule(priority int, action string, args []uint64, matches ...Match) *Entry {
	return &Entry{Priority: priority, Matches: matches, Action: action, Args: args}
}
