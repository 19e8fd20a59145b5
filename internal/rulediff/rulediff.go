// Package rulediff computes canonical deltas between two table rule sets
// and translates them into the dependency-tag vocabulary the incremental
// regression layer invalidates on (internal/regress). The diff is
// deterministic: both sets are brought to canonical form
// (rules.Set.Canonical) first, so the same pair of semantic rule sets
// always yields the same Delta regardless of entry insertion order.
//
// Entries are paired across versions by their match signature
// (rules.Entry.MatchKey — priority plus sorted matches, action data
// excluded). A pair whose full renderings differ is a modification: the
// entry still matches the same packets, only its action or arguments
// changed. Signatures present on one side only are additions or removals.
package rulediff

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/journal"
	"repro/internal/rules"
)

// Change is one modified entry: same match signature, different action
// data.
type Change struct {
	Old, New *rules.Entry
}

// TableDelta is the delta of one table.
type TableDelta struct {
	Name string
	// Added / Removed hold entries whose match signature exists only in
	// the new / old set, in canonical order.
	Added, Removed []*rules.Entry
	// Modified holds signature-stable action-data changes, in canonical
	// order of the old entry.
	Modified []Change
}

// ArgsOnly reports whether the table changed only in action data: no
// entry was added or removed, so every match signature — and therefore
// the table's branch structure in the CFG, including the miss branch —
// is unchanged. Arg-only deltas admit entry-granular invalidation;
// anything else retires the whole table.
func (d *TableDelta) ArgsOnly() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0
}

// Delta is the full diff between two rule sets, tables sorted by name.
// Tables with no changes are omitted.
type Delta struct {
	Tables []*TableDelta
}

// Diff computes the canonical delta from old to new.
func Diff(old, new *rules.Set) *Delta {
	oc, nc := old.Canonical(), new.Canonical()
	names := map[string]bool{}
	for _, t := range oc.Tables() {
		names[t] = true
	}
	for _, t := range nc.Tables() {
		names[t] = true
	}
	sorted := make([]string, 0, len(names))
	for t := range names {
		sorted = append(sorted, t)
	}
	sort.Strings(sorted)

	d := &Delta{}
	for _, t := range sorted {
		if td := diffTable(t, oc.Entries(t), nc.Entries(t)); td != nil {
			d.Tables = append(d.Tables, td)
		}
	}
	return d
}

// diffTable pairs canonical entry lists by match signature. Duplicate
// signatures pair positionally (both lists are canonically sorted, so the
// pairing is deterministic); the unpaired surplus on either side counts
// as removed/added.
func diffTable(name string, old, new []*rules.Entry) *TableDelta {
	byKey := func(es []*rules.Entry) (map[string][]*rules.Entry, []string) {
		m := map[string][]*rules.Entry{}
		var order []string
		for _, e := range es {
			k := e.MatchKey()
			if _, ok := m[k]; !ok {
				order = append(order, k)
			}
			m[k] = append(m[k], e)
		}
		return m, order
	}
	om, oOrder := byKey(old)
	nm, nOrder := byKey(new)

	td := &TableDelta{Name: name}
	for _, k := range oOrder {
		oes, nes := om[k], nm[k]
		n := len(oes)
		if len(nes) < n {
			n = len(nes)
		}
		for i := 0; i < n; i++ {
			if oes[i].String() != nes[i].String() {
				td.Modified = append(td.Modified, Change{Old: oes[i], New: nes[i]})
			}
		}
		td.Removed = append(td.Removed, oes[n:]...)
		td.Added = append(td.Added, nes[n:]...)
	}
	for _, k := range nOrder {
		if _, ok := om[k]; !ok {
			td.Added = append(td.Added, nm[k]...)
		}
	}
	if len(td.Added) == 0 && len(td.Removed) == 0 && len(td.Modified) == 0 {
		return nil
	}
	return td
}

// ChangedTables returns the sorted names of tables with any change.
func (d *Delta) ChangedTables() []string {
	out := make([]string, len(d.Tables))
	for i, td := range d.Tables {
		out[i] = td.Name
	}
	return out
}

// Counts returns the total entries added, removed, and modified.
func (d *Delta) Counts() (added, removed, modified int) {
	for _, td := range d.Tables {
		added += len(td.Added)
		removed += len(td.Removed)
		modified += len(td.Modified)
	}
	return
}

// String renders the delta in a stable unified-style format:
//
//	table eip {
//	  - old entry
//	  + new entry
//	  ~ old entry => new entry
//	}
func (d *Delta) String() string {
	var b strings.Builder
	for _, td := range d.Tables {
		fmt.Fprintf(&b, "table %s {\n", td.Name)
		for _, e := range td.Removed {
			fmt.Fprintf(&b, "  - %s\n", e)
		}
		for _, e := range td.Added {
			fmt.Fprintf(&b, "  + %s\n", e)
		}
		for _, c := range td.Modified {
			fmt.Fprintf(&b, "  ~ %s => %s\n", c.Old, c.New)
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// InvalidTags returns the dependency tags a baseline must retire for this
// delta. For an arg-only table delta the tags are exactly the modified
// entries' branch tags (rules.DepTag) — the miss branch and every other
// entry's branch are content-identical across versions and stay valid.
// Any structural change (entry added or removed) emits the bare table
// name, which invalidation layers treat as a whole-table wipe: the miss
// branch's negated-match conjunction changed, and priority shadowing can
// reshape which entry wins, so no branch of the table can be trusted.
func (d *Delta) InvalidTags() []string {
	var out []string
	for _, td := range d.Tables {
		if !td.ArgsOnly() {
			out = append(out, td.Name)
			continue
		}
		for _, c := range td.Modified {
			out = append(out, rules.DepTag(td.Name, c.New))
		}
	}
	sort.Strings(out)
	return out
}

// Matcher compiles the tag list into a predicate over dependency tags as
// the frames of journals and stores hold them — a journal.Tag's bytes,
// read in place without allocating. A bare table name matches every tag of
// that table (whole-table wipe: the tag's part before its '#'), by the
// table's hash; a full tag matches only itself, by both hashes.
//
// Equal strings hash equal, so a record that depends on an invalid tag
// always matches. Unequal ones may collide, which can only make a record
// match a tag it does not carry: it is retired and re-solved, never kept
// stale — the over-approximation internal/regress requires.
func Matcher(invalid []string) func(tag []byte) bool {
	exact := map[uint64]bool{}
	tables := map[uint32]bool{}
	for _, t := range invalid {
		h := journal.TagOf(t)
		if strings.ContainsRune(t, '#') {
			exact[binary.LittleEndian.Uint64(h[:])] = true
		} else {
			tables[h.Table()] = true
		}
	}
	return func(tag []byte) bool {
		return tables[binary.LittleEndian.Uint32(tag)] || exact[binary.LittleEndian.Uint64(tag)]
	}
}
