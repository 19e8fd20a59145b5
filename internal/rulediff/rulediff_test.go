package rulediff

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/rules"
)

const baseRules = `
table acl {
  priority=10 ip.dst=10.0.0.0/8 -> permit();
  priority=5 port=80 -> mark(1);
  -> drop();
}
table nat {
  ip.dst=167772161 -> rewrite(42, 7);
}
`

func TestDiffIdenticalSetsEmpty(t *testing.T) {
	a := rules.MustParse(baseRules)
	b := rules.MustParse(baseRules)
	d := Diff(a, b)
	if !d.Empty() {
		t.Fatalf("diff of identical sets not empty:\n%s", d)
	}
	if tags := d.InvalidTags(); len(tags) != 0 {
		t.Errorf("InvalidTags = %v, want none", tags)
	}
}

func TestDiffInsertionOrderIrrelevant(t *testing.T) {
	a := rules.MustParse(baseRules)
	// Same entries, tables and entries in a different order.
	b := rules.MustParse(`
table nat {
  ip.dst=167772161 -> rewrite(42, 7);
}
table acl {
  -> drop();
  priority=5 port=80 -> mark(1);
  priority=10 ip.dst=10.0.0.0/8 -> permit();
}
`)
	if d := Diff(a, b); !d.Empty() {
		t.Fatalf("reordered set diffed non-empty:\n%s", d)
	}
}

func TestDiffArgOnlyChange(t *testing.T) {
	a := rules.MustParse(baseRules)
	b := rules.MustParse(strings.Replace(baseRules, "mark(1)", "mark(2)", 1))
	d := Diff(a, b)
	if len(d.Tables) != 1 || d.Tables[0].Name != "acl" {
		t.Fatalf("ChangedTables = %v, want [acl]", d.ChangedTables())
	}
	td := d.Tables[0]
	if !td.ArgsOnly() || len(td.Modified) != 1 {
		t.Fatalf("delta = %+v, want one arg-only modification", td)
	}
	added, removed, modified := d.Counts()
	if added != 0 || removed != 0 || modified != 1 {
		t.Errorf("Counts = %d,%d,%d want 0,0,1", added, removed, modified)
	}
	// Entry-granular invalidation: exactly the changed entry's tag.
	want := []string{rules.DepTag("acl", td.Modified[0].New)}
	if got := d.InvalidTags(); !reflect.DeepEqual(got, want) {
		t.Errorf("InvalidTags = %v, want %v", got, want)
	}
	// The tag must be signature-stable across the change.
	if rules.DepTag("acl", td.Modified[0].Old) != want[0] {
		t.Error("DepTag differs between old and new entry of an arg-only change")
	}
}

func TestDiffStructuralChangeWipesTable(t *testing.T) {
	a := rules.MustParse(baseRules)
	b := rules.MustParse(baseRules + "\ntable acl {\n  port=443 -> mark(9);\n}\n")
	d := Diff(a, b)
	if len(d.Tables) != 1 {
		t.Fatalf("ChangedTables = %v, want [acl]", d.ChangedTables())
	}
	td := d.Tables[0]
	if td.ArgsOnly() || len(td.Added) != 1 {
		t.Fatalf("delta = %+v, want one structural addition", td)
	}
	if got := d.InvalidTags(); !reflect.DeepEqual(got, []string{"acl"}) {
		t.Errorf("InvalidTags = %v, want [acl] (whole-table wipe)", got)
	}
}

func TestDiffRemovalAndMixed(t *testing.T) {
	a := rules.MustParse(baseRules)
	// Remove an acl entry AND change a nat arg: acl wipes, nat stays granular.
	b := rules.MustParse(`
table acl {
  priority=10 ip.dst=10.0.0.0/8 -> permit();
  -> drop();
}
table nat {
  ip.dst=167772161 -> rewrite(43, 7);
}
`)
	d := Diff(a, b)
	if got := d.ChangedTables(); !reflect.DeepEqual(got, []string{"acl", "nat"}) {
		t.Fatalf("ChangedTables = %v, want [acl nat]", got)
	}
	tags := d.InvalidTags()
	if len(tags) != 2 {
		t.Fatalf("InvalidTags = %v, want 2 tags", tags)
	}
	match := Matcher(tags)
	m := func(tag string) bool { h := journal.TagOf(tag); return match(h[:]) }
	// Bare "acl" matches any acl tag; nat matches only the changed entry.
	if !m("acl#miss") || !m(rules.DepTag("acl", d.Tables[0].Removed[0])) {
		t.Error("table wipe did not match acl branch tags")
	}
	natMod := d.Tables[1].Modified[0]
	if !m(rules.DepTag("nat", natMod.New)) {
		t.Error("matcher missed the modified nat entry tag")
	}
	if m("nat#miss") {
		t.Error("arg-only nat delta must not invalidate the miss branch")
	}
	if m("other#miss") || m("other") {
		t.Error("matcher hit an unrelated table")
	}
}

// TestMatcherAgreesWithTagTable: the matcher reads a tag's 8 bytes and
// decides every tag as the string rule (referenceMatcher) does: a full tag
// matches itself, a bare table name every tag rules.TagTable gives that
// name. None of these strings collide.
func TestMatcherAgreesWithTagTable(t *testing.T) {
	invalid := []string{"acl", "nat#0000000000000001", "fwd#miss", "a", ""}
	tags := []string{"", "#", "#x", "a", "a#", "a#1", "ab#1", "acl", "acl#1", "acl#miss", "aclx#1", "ac",
		"nat", "nat#miss", "nat#0000000000000001", "nat#00000000000000012", "nat#000000000000000",
		"fwd#miss", "fwd#missx", "fwd#mis", "fwd", "b#acl", "x#a#b"}
	for n := 0; n <= len(invalid); n++ {
		m, want := Matcher(invalid[:n]), referenceMatcher(invalid[:n])
		for _, tag := range tags {
			h := journal.TagOf(tag)
			if got := m(h[:]); got != want(tag) {
				t.Errorf("Matcher(%q)(%q) = %v", invalid[:n], tag, got)
			}
		}
	}
}

func TestDiffStringStable(t *testing.T) {
	a := rules.MustParse(baseRules)
	b := rules.MustParse(strings.Replace(baseRules, "mark(1)", "mark(2)", 1))
	s1 := Diff(a, b).String()
	s2 := Diff(a, b).String()
	if s1 != s2 {
		t.Fatal("Delta.String not deterministic")
	}
	if !strings.Contains(s1, "~ ") || !strings.Contains(s1, "=>") {
		t.Errorf("modification line missing from rendering:\n%s", s1)
	}
}

func TestMutateArgsDeterministicAndArgOnly(t *testing.T) {
	s := rules.MustParse(baseRules)
	m1, n1 := MutateArgs(s, 2)
	m2, n2 := MutateArgs(s, 2)
	if n1 != n2 || m1.String() != m2.String() {
		t.Fatal("MutateArgs not deterministic")
	}
	if n1 != 2 {
		t.Fatalf("mutated %d entries, want 2", n1)
	}
	d := Diff(s, m1)
	added, removed, modified := d.Counts()
	if added != 0 || removed != 0 || modified != 2 {
		t.Errorf("mutation delta Counts = %d,%d,%d want 0,0,2", added, removed, modified)
	}
	for _, td := range d.Tables {
		if !td.ArgsOnly() {
			t.Errorf("table %s delta not arg-only", td.Name)
		}
	}
	// The original set must be untouched.
	if !s.Equal(rules.MustParse(baseRules)) {
		t.Error("MutateArgs mutated its input")
	}
}

// TestMutateArgsKeepsOrder: the mutated copy differs from its input in the
// bumped arguments and nothing else — not in table order, not in entry
// order — while which entries get bumped is decided in canonical order, so
// a set and its re-ordering are mutated alike.
func TestMutateArgsKeepsOrder(t *testing.T) {
	const shuffled = `
table nat {
  ip.dst=167772162 -> rewrite(9, 9);
  ip.dst=167772161 -> rewrite(42, 7);
}
table acl {
  -> drop();
  priority=5 port=80 -> mark(1);
  priority=10 ip.dst=10.0.0.0/8 -> permit();
}
`
	s := rules.MustParse(shuffled)
	m, n := MutateArgs(s, 1)
	if n != 1 {
		t.Fatalf("mutated %d entries, want 1", n)
	}
	// acl sorts before nat, and mark(1) is acl's only entry with an
	// argument: the first candidate in canonical order.
	if want := strings.Replace(s.String(), "mark(1)", "mark(2)", 1); m.String() != want {
		t.Errorf("mutated set:\n%s\nwant the input with mark(1) bumped and every line where it was:\n%s", m, want)
	}
	mc, _ := MutateArgs(s.Canonical(), 1)
	if !mc.Equal(m) {
		t.Errorf("the canonical form of the set was mutated differently:\n%s\nvs\n%s", mc, m)
	}
}

func TestMutateArgsMoreThanAvailable(t *testing.T) {
	s := rules.MustParse(baseRules)
	// permit() and drop() have no args: only mark(1) and rewrite(42, 7)
	// are candidates.
	_, n := MutateArgs(s, 100)
	if n != 2 {
		t.Fatalf("mutated %d, want all 2 arg-bearing entries", n)
	}
	if _, n := MutateArgs(s, 0); n != 0 {
		t.Errorf("MutateArgs(s, 0) mutated %d entries", n)
	}
}

func TestMutateFraction(t *testing.T) {
	s := rules.MustParse(baseRules)
	if _, n := MutateFraction(s, 0.1); n != 1 {
		t.Errorf("10%% of 2 candidates mutated %d, want 1 (rounded up)", n)
	}
	if _, n := MutateFraction(s, 1.0); n != 2 {
		t.Errorf("100%% mutated %d, want 2", n)
	}
	if _, n := MutateFraction(s, 0); n != 0 {
		t.Errorf("0%% mutated %d, want 0", n)
	}
}
