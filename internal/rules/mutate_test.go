package rules_test

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/p4"
	"repro/internal/rules"
)

// mutations are the ways one entry of a rule-set text is changed, each
// into something a program may not mean: a match moved to another field,
// a match dropped, the entry twice, a value one bit wider than its key, an
// action the table does not list, an argument more or fewer, the entry in
// a table the program does not declare, a match written in another kind.
var mutations = []string{"retarget", "drop", "duplicate", "widen", "swap", "add-arg", "drop-arg", "undeclared", "rekind"}

// entryLines returns the line numbers (0-based) of src's entries and the
// table each is in.
func entryLines(src string) (lines []int, tables []string) {
	table := ""
	for i, l := range strings.Split(src, "\n") {
		l = strings.TrimSpace(l)
		switch {
		case strings.HasPrefix(l, "table "):
			table = strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(l, "table "), "{"))
		case l == "}" || l == "":
		default:
			lines, tables = append(lines, i), append(tables, table)
		}
	}
	return lines, tables
}

// fieldWidth is a field's width in prog, 0 when it names none.
func fieldWidth(prog *p4.Program, field string) int {
	_, w, err := p4.NewEnv(prog).ResolveRef(&p4.FieldRef{Parts: strings.Split(field, ".")})
	if err != nil {
		return 0
	}
	return int(w)
}

// mutate returns src with the entry on line ln, of table, changed by
// mutation k; n picks among the choices a mutation has (which match,
// which field, which action).
func mutate(prog *p4.Program, src string, ln int, table string, k, n int) string {
	lines := strings.Split(src, "\n")
	e := rules.MustParse("table t {\n" + lines[ln] + "\n}").Entries("t")[0]
	var m *rules.Match
	if len(e.Matches) > 0 {
		m = &e.Matches[n%len(e.Matches)]
	}
	switch mutations[k%len(mutations)] {
	case "retarget":
		var fields []string
		for _, h := range prog.Headers {
			for _, f := range h.Fields {
				fields = append(fields, h.Name+"."+f.Name)
			}
		}
		for _, f := range prog.Metadata {
			fields = append(fields, "meta."+f.Name)
		}
		f := fields[n%len(fields)]
		if m == nil {
			e.Matches = append(e.Matches, rules.E(f, 1))
		} else {
			m.Field = f
		}
	case "drop":
		if m != nil {
			i := n % len(e.Matches)
			e.Matches = append(e.Matches[:i], e.Matches[i+1:]...)
		}
	case "duplicate":
		lines[ln] += "\n" + lines[ln]
		return strings.Join(lines, "\n")
	case "widen":
		if m == nil {
			break
		}
		over := uint64(1) << min(fieldWidth(prog, m.Field), 63)
		switch m.Kind {
		case rules.Exact, rules.Ternary:
			m.Val |= over
		case rules.LPM:
			m.Plen = fieldWidth(prog, m.Field) + 1
		case rules.Range:
			m.Hi |= over
		case rules.Wildcard:
			*m = rules.E(m.Field, over)
		}
	case "swap":
		var others []string
		if d := prog.Table(table); d != nil {
			for _, a := range prog.Actions {
				if !slices.Contains(d.Actions, a.Name) {
					others = append(others, a.Name)
				}
			}
		}
		if len(others) > 0 {
			e.Action = others[n%len(others)]
		}
	case "add-arg":
		e.Args = append(e.Args, uint64(n))
	case "drop-arg":
		if len(e.Args) > 0 {
			e.Args = e.Args[:len(e.Args)-1]
		}
	case "undeclared":
		lines[ln] = fmt.Sprintf("}\ntable %s_undeclared {\n%s\n}\ntable %s {", table, lines[ln], table)
		return strings.Join(lines, "\n")
	case "rekind":
		if m == nil {
			break
		}
		switch m.Kind {
		case rules.Exact:
			*m = rules.R(m.Field, m.Val, m.Val)
		case rules.Ternary:
			*m = rules.E(m.Field, m.Val)
		case rules.LPM:
			w := fieldWidth(prog, m.Field)
			*m = rules.T(m.Field, m.Val, ^uint64(0)>>(64-w)&^(^uint64(0)>>(64-w)>>m.Plen))
		case rules.Range:
			*m = rules.E(m.Field, m.Lo)
		case rules.Wildcard:
			*m = rules.E(m.Field, 0)
		}
	}
	lines[ln] = "  " + e.String()
	return strings.Join(lines, "\n")
}
