package rules_test

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cfg"
	"repro/internal/expr"
	"repro/internal/p4"
	"repro/internal/programs"
	"repro/internal/rules"
	"repro/internal/switchsim"
)

// Every corpus rule set binds to its program unchanged: the eight Table 1
// programs and gw-1..4 at every scale.
func TestCorpusBinds(t *testing.T) {
	ps := programs.All()
	for i := 1; i <= 4; i++ {
		for s := programs.Set1; s <= programs.Set4; s++ {
			ps = append(ps, programs.GW(i, s))
		}
	}
	for _, p := range ps {
		if _, err := rules.Bind(p.Prog, p.Rules); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

// kinds has one table with a key of every kind and one with an exact key
// alone.
const kinds = `
header h { bit<8> e; bit<16> t; bit<32> l; bit<16> r; bit<8> x; }
action set(bit<4> v) { h.x = v; }
action nop() { }
table all {
  key = { h.e : exact; h.t : ternary; h.l : lpm; h.r : range; }
  actions = { set; NoAction; }
}
table ex { key = { h.e : exact; } actions = { set; } }
control c { apply { all.apply(); ex.apply(); nop(); } }
pipeline p { control = c; }
`

// fwd is a one-table forwarding program, and fwdRules its one entry.
const fwd = `
header ipv4 { bit<8> ttl; bit<32> dstAddr; }
metadata { bit<9> port; }
parser prs { state start { extract(ipv4); transition accept; } }
action fwd(bit<9> p) { meta.port = p; ipv4.ttl = ipv4.ttl - 1; }
action deny() { mark_drop(); }
table host {
  key = { ipv4.dstAddr : exact; }
  actions = { fwd; deny; }
  default_action = deny();
}
control ing { apply { host.apply(); } }
pipeline ig { parser = prs; control = ing; }
`

const fwdRules = `
table host {
  ipv4.dstAddr=10.0.0.1 -> fwd(3);
}
`

// Bind rejects what the program cannot mean, naming the rules line, the
// table and the entry, and so do both readers that bind: cfg.Build and
// switchsim.Compile.
func TestBindRejects(t *testing.T) {
	for _, tc := range []struct {
		name, prog, rules string
		add               func(*rules.Set) // an entry built in code
		want              string
	}{
		{"undeclared table", kinds, "table nosuch {\n  h.e=1 -> set(1);\n}", nil,
			"rules:2:3: table nosuch entry 0: the program declares no such table"},
		{"not a key", kinds, "table ex {\n  h.e=1 -> set(1);\n  h.x=1 -> set(1);\n}", nil,
			"rules:3:3: table ex entry 1: h.x is not a key of the table"},
		{"key matched twice", kinds, "table ex {\n  h.e=1 h.e=2 -> set(1);\n}", nil,
			"rules:2:3: table ex entry 0: h.e is matched twice"},
		{"exact key left out", kinds, "table ex {\n  -> set(1);\n}", nil,
			"rules:2:3: table ex entry 0: exact key h.e has no match"},
		{"wildcard on an exact key", kinds, "table ex {\n  h.e=* -> set(1);\n}", nil,
			"h.e: the exact key takes no wildcard match"},
		{"range on an exact key", kinds, "table ex {\n  h.e=3..5 -> set(1);\n}", nil,
			"h.e: the exact key takes no range match"},
		{"lpm on an exact key", kinds, "table ex {\n  h.e=64/4 -> set(1);\n}", nil,
			"h.e: the exact key takes no lpm match"},
		{"ternary on an exact key", kinds, "table ex {\n  h.e=64&&&0xf0 -> set(1);\n}", nil,
			"h.e: the exact key takes no ternary match"},
		{"exact on a ternary key", kinds, "table all {\n  h.e=1 h.t=4 -> set(1);\n}", nil,
			"h.t: the ternary key takes no exact match"},
		{"range on an lpm key", kinds, "table all {\n  h.e=1 h.l=1..2 -> set(1);\n}", nil,
			"h.l: the lpm key takes no range match"},
		{"lpm on a range key", kinds, "table all {\n  h.e=1 h.r=8/4 -> set(1);\n}", nil,
			"h.r: the range key takes no lpm match"},
		{"value wider than the key", kinds, "table ex {\n  h.e=256 -> set(1);\n}", nil,
			"h.e: value 256 is wider than the 8-bit key"},
		{"mask wider than the key", kinds, "table all {\n  h.e=1 h.t=1&&&0x10001 -> set(1);\n}", nil,
			"h.t: mask 65537 is wider than the 16-bit key"},
		{"prefix longer than the key", kinds, "table all {\n  h.e=1 h.l=0/33 -> set(1);\n}", nil,
			"h.l: prefix /33 is longer than the 32-bit key"},
		{"prefix value wider than the key", kinds, "table all {\n  h.e=1 h.l=0x100000000/8 -> set(1);\n}", nil,
			"h.l: value 4294967296 is wider than the 32-bit key"},
		{"range bound wider than the key", kinds, "table all {\n  h.e=1 h.r=1..65536 -> set(1);\n}", nil,
			"h.r: bound 65536 is wider than the 16-bit key"},
		{"action the table does not list", kinds, "table ex {\n  h.e=1 -> nop();\n}", nil,
			"action nop is not one of the table's actions"},
		{"NoAction the table does not list", kinds, "table ex {\n  h.e=1 -> NoAction();\n}", nil,
			"action NoAction is not one of the table's actions"},
		{"NoAction with an argument", kinds, "table all {\n  h.e=1 -> NoAction(1);\n}", nil,
			"action NoAction has 0 parameters, got 1 arguments"},
		{"argument added", kinds, "table ex {\n  h.e=1 -> set(1, 2);\n}", nil,
			"action set has 1 parameters, got 2 arguments"},
		{"argument wider than its parameter", kinds, "table ex {\n  h.e=1 -> set(17);\n}", nil,
			"argument 17 of set is wider than its 4-bit parameter v"},
		{"duplicate in an exact-only table, at another priority", kinds, "table ex {\n  h.e=1 -> set(1);\n  priority=5 h.e=1 -> set(2);\n}", nil,
			"rules:3:3: table ex entry 1: matches what entry 0 matches"},
		{"duplicate at one priority, after masking", kinds, "table all {\n  priority=3 h.e=1 h.t=4&&&0xc -> set(1);\n  priority=3 h.e=1 h.t=5&&&0xc -> set(2);\n}", nil,
			"rules:3:3: table all entry 1: matches what entry 0 matches"},
		{"duplicate prefix, after masking", kinds, "table all {\n  h.e=1 h.l=10.0.0.0/8 -> set(1);\n  h.e=1 h.l=10.1.0.0/8 -> set(2);\n}", nil,
			"rules:3:3: table all entry 1: matches what entry 0 matches"},
		{"rule naming an unknown action", fwd, fwdRules, func(rs *rules.Set) {
			rs.Add("host", rules.Rule("teleport", nil, rules.E("ipv4.dstAddr", 1)))
		}, "rules: table host entry 1: action teleport is not one of the table's actions"},
		{"rule short of arguments", fwd, fwdRules, func(rs *rules.Set) {
			rs.Add("host", rules.Rule("fwd", nil, rules.E("ipv4.dstAddr", 1)))
		}, "rules: table host entry 1: action fwd has 1 parameters, got 0 arguments"},
	} {
		prog := p4.MustParse(tc.prog)
		rs, err := rules.Parse(tc.rules)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.add != nil {
			tc.add(rs)
		}
		_, err = rules.Bind(prog, rs)
		var re *rules.Error
		if !errors.As(err, &re) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Bind: %v, want a *rules.Error containing %q", tc.name, err, tc.want)
			continue
		}
		_, gerr := cfg.Build(prog, rs)
		_, terr := switchsim.Compile(prog, rs, nil)
		if gerr == nil || gerr.Error() != err.Error() || terr == nil || terr.Error() != "switchsim: "+err.Error() {
			t.Errorf("%s: Bind says %v; cfg.Build %v, switchsim.Compile %v", tc.name, err, gerr, terr)
		}
	}
}

// Bind's rows: one cell per key in mask or range form, in priority order,
// with the resolved action and a copy of the arguments.
func TestBindRows(t *testing.T) {
	prog := p4.MustParse(kinds)
	rs := rules.MustParse(`
table all {
  h.e=7 h.t=0x1234&&&0xff00 h.l=10.1.2.3/16 h.r=5..9 -> set(3);
  priority=4 h.e=7 h.t=* -> NoAction();
  priority=4 h.e=8 h.l=0.0.0.0/0 -> set(4);
  h.e=7 h.t=0x1234&&&0xff00 h.l=10.1.2.3/16 h.r=5..10 -> set(3);
}
table ex {
  h.e=1 -> set(1);
  priority=9 h.e=2 -> set(2);
}
`)
	tables, err := rules.Bind(prog, rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || len(tables["ex"].Rows) != 2 || tables["ex"].Rows[0].Entry.Pos.Line != 10 {
		t.Fatalf("tables %v: want all and ex, ex's priority-9 row first", tables)
	}
	all := tables["all"]
	if !slices.Equal(all.Keys, []expr.Ref{expr.V("hdr.h.e", 8), expr.V("hdr.h.t", 16), expr.V("hdr.h.l", 32), expr.V("hdr.h.r", 16)}) {
		t.Errorf("keys %v", all.Keys)
	}
	want := [][]rules.Cell{
		{{Val: 7, Mask: 0xff}, {}, {}, {}},
		{{Val: 8, Mask: 0xff}, {}, {}, {}},
		{{Val: 7, Mask: 0xff}, {Val: 0x1200, Mask: 0xff00}, {Val: 0x0a010000, Mask: 0xffff0000}, {Val: 5, Mask: 9, Range: true}},
		{{Val: 7, Mask: 0xff}, {Val: 0x1200, Mask: 0xff00}, {Val: 0x0a010000, Mask: 0xffff0000}, {Val: 5, Mask: 10, Range: true}},
	}
	for i, r := range all.Rows {
		if !slices.Equal(r.Cells, want[i]) {
			t.Errorf("row %d (line %d): cells %+v, want %+v", i, r.Entry.Pos.Line, r.Cells, want[i])
		}
	}
	if r := all.Rows[0]; r.Action != nil || len(r.Args) != 0 {
		t.Errorf("NoAction row: action %v args %v", r.Action, r.Args)
	}
	r := all.Rows[1]
	if r.Action != prog.Action("set") || !slices.Equal(r.Args, []uint64{4}) {
		t.Errorf("set row: action %v args %v", r.Action, r.Args)
	}
	r.Entry.Args[0] = 5
	if r.Args[0] != 4 {
		t.Error("a row's arguments alias its entry's")
	}
	if !r.Cells[0].Covers(8) || r.Cells[0].Covers(7) || !r.Cells[1].Covers(0xffff) || !all.Rows[2].Cells[3].Covers(9) || all.Rows[2].Cells[3].Covers(10) {
		t.Error("Covers disagrees with the cells' forms")
	}
}

// widths has one table per key kind and width the edge cases below need.
const widths = `
header h { bit<8> t; bit<32> l; bit<64> w; bit<16> r; }
action a() { }
table lp { key = { h.l : lpm; } actions = { a; } }
table lw { key = { h.w : lpm; } actions = { a; } }
table tn { key = { h.t : ternary; } actions = { a; } }
table rg { key = { h.r : range; } actions = { a; } }
table rw { key = { h.w : range; } actions = { a; } }
table ex { key = { h.w : exact; } actions = { a; } }
control c { apply { lp.apply(); lw.apply(); tn.apply(); rg.apply(); rw.apply(); ex.apply(); } }
pipeline p { control = c; }
`

// bindOne binds a one-entry set for table to the widths program and
// returns its row's one cell.
func bindOne(t *testing.T, prog *p4.Program, table string, m rules.Match) (rules.Cell, error) {
	t.Helper()
	rs := rules.NewSet()
	rs.Add(table, rules.Rule("a", nil, m))
	tables, err := rules.Bind(prog, rs)
	if err != nil {
		return rules.Cell{}, err
	}
	return tables[table].Rows[0].Cells[0], nil
}

// coverCase is one value looked up in the one-entry table that a match
// binds to.
type coverCase struct {
	name  string
	table string
	m     rules.Match
	v     uint64
	want  bool
}

// checkCovers binds each case's match and holds its cell's Covers to want.
func checkCovers(t *testing.T, cases []coverCase) {
	t.Helper()
	prog := p4.MustParse(widths)
	for _, c := range cases {
		cell, err := bindOne(t, prog, c.table, c.m)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if got := cell.Covers(c.v); got != c.want {
			t.Errorf("%s: %+v covers %#x = %v, want %v", c.name, cell, c.v, got, c.want)
		}
	}
}

// A bound cell of each match kind covers what its entry matches: the
// cells are what the encoder and the target both read.
func TestMatchCovers(t *testing.T) {
	checkCovers(t, []coverCase{
		{"exact hit", "ex", rules.E("h.w", 5), 5, true},
		{"exact miss", "ex", rules.E("h.w", 5), 6, false},
		{"ternary hit", "tn", rules.T("h.t", 0x10, 0xF0), 0x1F, true},
		{"ternary miss", "tn", rules.T("h.t", 0x10, 0xF0), 0x2F, false},
		{"lpm /8 hit", "lp", rules.L("h.l", 0x0A000000, 8), 0x0AFFFFFF, true},
		{"lpm /8 miss", "lp", rules.L("h.l", 0x0A000000, 8), 0x0B000000, false},
		{"range hit", "rg", rules.R("h.r", 10, 20), 15, true},
		{"range miss", "rg", rules.R("h.r", 10, 20), 21, false},
		{"wildcard", "rg", rules.Match{Field: "h.r", Kind: rules.Wildcard}, 12345, true},
	})
}

// TestCoversEdges pins the boundary semantics of a bound cell: an LPM
// prefix at /0 and at the key's full width, a ternary mask at the key's
// width and at zero, inclusive range bounds and the full 64-bit domain.
func TestCoversEdges(t *testing.T) {
	checkCovers(t, []coverCase{
		{"exact max value", "ex", rules.E("h.w", ^uint64(0)), ^uint64(0), true},
		{"lpm /0 matches anything", "lp", rules.L("h.l", 0, 0), 0xFFFFFFFF, true},
		{"lpm /0 nonzero val still matches", "lp", rules.L("h.l", 0x0A000000, 0), 0x0B000000, true},
		{"lpm /32 is exact hit", "lp", rules.L("h.l", 0x0A000001, 32), 0x0A000001, true},
		{"lpm /32 is exact miss", "lp", rules.L("h.l", 0x0A000001, 32), 0x0A000002, false},
		{"lpm /64 full word", "lw", rules.L("h.w", ^uint64(0), 64), ^uint64(0), true},
		{"lpm /64 miss in the last bit", "lw", rules.L("h.w", ^uint64(0), 64), ^uint64(0) - 1, false},
		{"ternary full mask is exact", "tn", rules.T("h.t", 0xAB, 0xFF), 0xAB, true},
		{"ternary full mask miss", "tn", rules.T("h.t", 0xAB, 0xFF), 0xAC, false},
		{"ternary zero mask matches all", "tn", rules.T("h.t", 0xAB, 0), 0x00, true},
		{"ternary ignores val outside mask", "tn", rules.T("h.t", 0xFF, 0x0F), 0x1F, true},
		{"range lo inclusive", "rg", rules.R("h.r", 10, 20), 10, true},
		{"range hi inclusive", "rg", rules.R("h.r", 10, 20), 20, true},
		{"range below", "rg", rules.R("h.r", 10, 20), 9, false},
		{"range above", "rg", rules.R("h.r", 10, 20), 21, false},
		{"range point", "rg", rules.R("h.r", 7, 7), 7, true},
		{"range full domain", "rw", rules.R("h.w", 0, ^uint64(0)), 12345, true},
	})
	// A prefix past the key's width is not clamped: the key takes none.
	if _, err := bindOne(t, p4.MustParse(widths), "lp", rules.L("h.l", 0xFF, 40)); err == nil || !strings.Contains(err.Error(), "prefix /40 is longer than the 32-bit key") {
		t.Errorf("a /40 prefix on a 32-bit key: %v", err)
	}
}

// TestLPMCoversConsistentWithMask: an LPM entry's bound cell covers the
// value it was written with, at every prefix length the key takes.
func TestLPMCoversConsistentWithMask(t *testing.T) {
	prog := p4.MustParse(widths)
	f := func(v uint32, plen uint8) bool {
		cell, err := bindOne(t, prog, "lp", rules.L("h.l", uint64(v), int(plen%33)))
		return err == nil && cell.Covers(uint64(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
