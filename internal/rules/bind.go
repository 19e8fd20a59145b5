package rules

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/expr"
	"repro/internal/p4"
)

// Cell is one key's constraint in a bound row: v&Mask == Val, or
// Val <= v <= Mask when Range is set. Exact, ternary, LPM and wildcard
// matches all take the first form; a wildcard's Mask is 0.
type Cell struct {
	Val, Mask uint64
	Range     bool
}

// Covers reports whether key value v satisfies the cell.
func (c Cell) Covers(v uint64) bool {
	if c.Range {
		return v >= c.Val && v <= c.Mask
	}
	return v&c.Mask == c.Val
}

// Row is an entry bound to its table: one cell per key, in the table's key
// order, and the action it runs (nil for NoAction) with a copy of its
// arguments, each of which fits its parameter.
type Row struct {
	Entry  *Entry
	Cells  []Cell
	Action *p4.ActionDecl
	Args   []uint64
}

// Table is a declared table with the rule set's entries for it bound.
type Table struct {
	Decl *p4.TableDecl
	Keys []expr.Ref // the key fields, at their widths
	Rows []Row      // descending priority, stable within one priority
}

// Error rejects an entry that the program cannot mean.
type Error struct {
	Pos   p4.Pos // the entry's; zero for an entry not read from text
	Table string
	Entry int // the entry's position in its table as written, from 0
	Msg   string
}

// Error leads with the entry's position, or with "rules" for an entry
// built in code.
func (e *Error) Error() string {
	at := "rules"
	if e.Pos.Line > 0 {
		at = e.Pos.String()
	}
	return fmt.Sprintf("%s: table %s entry %d: %s", at, e.Table, e.Entry, e.Msg)
}

// Bind is the one reader that gives a rule entry its meaning: the CFG
// encoder and the software target both read a rule set (nil: no entries)
// through it, so the model and the target agree on every entry. It binds
// the set to a program that p4.Check has accepted and returns every
// declared table by name. It rejects an entry in a table the program does
// not declare; a match on a field that is not a key of the table, or on
// one key twice; a match kind the key does not take (a key takes its own
// kind, and a ternary, LPM or range key also takes "*" or no match at
// all); a value, mask or prefix wider than the key; an action the table
// does not list, a wrong argument count, or an argument wider than its
// parameter; and an entry that matches what an earlier one matches — at
// the same priority when the table has a ternary or range key, at any
// priority otherwise, which makes an exact-only table's entries pairwise
// disjoint.
func Bind(prog *p4.Program, s *Set) (map[string]*Table, error) {
	env := p4.NewEnv(prog)
	out := make(map[string]*Table, len(prog.Tables))
	for _, d := range prog.Tables {
		t := &Table{Decl: d}
		for _, k := range d.Keys {
			v, w, err := env.ResolveRef(k.Field)
			if err != nil {
				return nil, err
			}
			t.Keys = append(t.Keys, expr.V(v, w))
		}
		out[d.Name] = t
	}
	if s == nil {
		return out, nil
	}
	for _, name := range s.order {
		es := s.tables[name]
		if out[name] == nil {
			return nil, &Error{Pos: es[0].Pos, Table: name, Msg: "the program declares no such table"}
		}
		if err := out[name].bind(prog, es); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// bind binds a table's entries, given in the order they were written.
func (t *Table) bind(prog *p4.Program, es []*Entry) error {
	d := t.Decl
	keyOf := make(map[string]int, len(d.Keys))
	prioritized := false
	for j, k := range d.Keys {
		keyOf[k.Field.String()] = j
		prioritized = prioritized || k.Match == p4.MatchTernary || k.Match == p4.MatchRange
	}
	actions := make(map[string]*p4.ActionDecl, len(d.Actions))
	for _, a := range d.Actions {
		actions[a] = prog.Action(a) // nil for NoAction
	}
	nk := len(d.Keys)
	cells, matched := make([]Cell, len(es)*nk), make([]bool, nk)
	seen := make(map[string]int, len(es))
	var sig []byte
	t.Rows = make([]Row, len(es))
	for i, e := range es {
		fail := func(format string, a ...any) error {
			return &Error{Pos: e.Pos, Table: d.Name, Entry: i, Msg: fmt.Sprintf(format, a...)}
		}
		row := &t.Rows[i]
		row.Entry, row.Cells = e, cells[i*nk:(i+1)*nk:(i+1)*nk]
		clear(matched)
		for _, m := range e.Matches {
			j, ok := keyOf[m.Field]
			switch {
			case !ok:
				return fail("%s is not a key of the table", m.Field)
			case matched[j]:
				return fail("%s is matched twice", m.Field)
			}
			matched[j] = true
			var bad string
			if row.Cells[j], bad = cell(m, d.Keys[j].Match, t.Keys[j].W); bad != "" {
				return fail("%s: %s", m.Field, bad)
			}
		}
		for j, k := range d.Keys {
			if !matched[j] && k.Match == p4.MatchExact {
				return fail("exact key %s has no match", k.Field)
			}
		}

		a, ok := actions[e.Action]
		var params []*p4.Param
		if a != nil {
			params = a.Params
		}
		switch {
		case !ok:
			return fail("action %s is not one of the table's actions", e.Action)
		case len(e.Args) != len(params):
			return fail("action %s has %d parameters, got %d arguments", e.Action, len(params), len(e.Args))
		}
		for k, p := range params {
			if e.Args[k] > expr.Width(p.Width).Mask() {
				return fail("argument %d of %s is wider than its %d-bit parameter %s", e.Args[k], a.Name, p.Width, p.Name)
			}
		}
		row.Action, row.Args = a, append([]uint64(nil), e.Args...)

		sig = sig[:0]
		if prioritized {
			sig = binary.AppendVarint(sig, int64(e.Priority))
		}
		for _, c := range row.Cells {
			form := byte(0)
			if c.Range {
				form = 1
			}
			sig = binary.AppendUvarint(binary.AppendUvarint(append(sig, form), c.Val), c.Mask)
		}
		if first, dup := seen[string(sig)]; dup {
			return fail("matches what entry %d matches", first)
		}
		seen[string(sig)] = i
	}
	sort.SliceStable(t.Rows, func(i, j int) bool { return t.Rows[i].Entry.Priority > t.Rows[j].Entry.Priority })
	return nil
}

// lpmMask is the mask of a /plen prefix of a widthBits-bit key; a prefix
// past the width is the whole key.
func lpmMask(plen, widthBits int) uint64 {
	full := expr.Width(widthBits).Mask()
	return full &^ (full >> max(plen, 0))
}

// cell reads a match against a key of kind k and width w; the message
// says why the key does not take it, if it does not.
func cell(m Match, k p4.MatchKind, w expr.Width) (Cell, string) {
	wide := func(what string, v uint64) string {
		if v > w.Mask() {
			return fmt.Sprintf("%s %d is wider than the %d-bit key", what, v, w)
		}
		return ""
	}
	switch {
	case m.Kind == Wildcard && k != p4.MatchExact:
		return Cell{}, ""
	case m.Kind == Exact && k == p4.MatchExact:
		return Cell{Val: m.Val, Mask: w.Mask()}, wide("value", m.Val)
	case m.Kind == Ternary && k == p4.MatchTernary:
		return Cell{Val: m.Val & m.Mask, Mask: m.Mask}, cmp.Or(wide("value", m.Val), wide("mask", m.Mask))
	case m.Kind == LPM && k == p4.MatchLPM && m.Plen > int(w):
		return Cell{}, fmt.Sprintf("prefix /%d is longer than the %d-bit key", m.Plen, w)
	case m.Kind == LPM && k == p4.MatchLPM:
		mask := lpmMask(m.Plen, int(w))
		return Cell{Val: m.Val & mask, Mask: mask}, wide("value", m.Val)
	case m.Kind == Range && k == p4.MatchRange:
		return Cell{Val: m.Lo, Mask: m.Hi, Range: true}, wide("bound", m.Hi)
	}
	return Cell{}, fmt.Sprintf("the %s key takes no %s match", k, m.Kind)
}
