package rules

import (
	"strings"
	"testing"
)

// The incremental regression layer keys journal reuse on canonical rule
// serialization and entry match signatures, so String/Parse round-trip
// fidelity and Covers boundary behavior are load-bearing: a rendering
// that re-parses differently would silently diverge the diff.

// FuzzParseRoundTrip: any rule set that parses must survive
// String() → Parse() with semantic equality, and canonicalization must
// be a fixpoint of that cycle.
func FuzzParseRoundTrip(f *testing.F) {
	seeds := []string{
		"table t {\n  f=5 -> act(1);\n}",
		"table t {\n  priority=10 a.b=10.0.0.0/8 c=6&&&0xff -> permit();\n}",
		"table t {\n  p=1024..2048 -> mark(7, 9);\n  q=* -> drop();\n}",
		"table a {\n  f=0x1f -> m();\n}\ntable b {\n  g=1.2.3.4 -> n(0);\n}",
		"table t {\n  f=18446744073709551615 -> act();\n}",
		"table t {\n  f=0/0 -> act();\n  f=255/64 -> act();\n}",
		"# comment\ntable t {\n  // comment\n  f=1 -> a();\n}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s1, err := Parse(src)
		if err != nil {
			t.Skip() // unparseable input is out of scope
		}
		text := s1.String()
		s2, err := Parse(text)
		if err != nil {
			t.Fatalf("String() output does not re-parse: %v\n%s", err, text)
		}
		if text != s2.String() {
			t.Fatalf("String() is not a parse fixpoint:\n%q\nvs\n%q", text, s2.String())
		}
		if !s1.Equal(s2) {
			t.Fatalf("round-trip changed semantics:\n%s\nvs\n%s",
				s1.Canonical().String(), s2.Canonical().String())
		}
		// Canonicalization must itself round-trip and be idempotent.
		c := s1.Canonical()
		c2, err := Parse(c.String())
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v", err)
		}
		if c.String() != c2.Canonical().String() {
			t.Fatal("canonicalization is not idempotent through the parser")
		}
	})
}

// TestCoversEdges pins the boundary semantics the encoder and the diff
// layer both rely on.
func TestCoversEdges(t *testing.T) {
	cases := []struct {
		name  string
		m     Match
		v     uint64
		width int
		want  bool
	}{
		{"lpm /0 matches anything", L("f", 0, 0), 0xFFFFFFFF, 32, true},
		{"lpm /0 nonzero val still matches", L("f", 0x0A000000, 0), 0x0B000000, 32, true},
		{"lpm /width is exact hit", L("f", 0x0A000001, 32), 0x0A000001, 32, true},
		{"lpm /width is exact miss", L("f", 0x0A000001, 32), 0x0A000002, 32, false},
		{"lpm /64 full word", L("f", ^uint64(0), 64), ^uint64(0), 64, true},
		{"lpm plen past width clamps", L("f", 0xFF, 40), 0xFF, 32, true},
		{"range lo inclusive", R("f", 10, 20), 10, 16, true},
		{"range hi inclusive", R("f", 10, 20), 20, 16, true},
		{"range below", R("f", 10, 20), 9, 16, false},
		{"range above", R("f", 10, 20), 21, 16, false},
		{"range point", R("f", 7, 7), 7, 16, true},
		{"range full domain", R("f", 0, ^uint64(0)), 12345, 64, true},
		{"ternary full mask is exact", T("f", 0xAB, ^uint64(0)), 0xAB, 8, true},
		{"ternary full mask miss", T("f", 0xAB, ^uint64(0)), 0xAC, 8, false},
		{"ternary zero mask matches all", T("f", 0xAB, 0), 0x00, 8, true},
		{"ternary ignores val outside mask", T("f", 0xFF, 0x0F), 0x1F, 8, true},
		{"exact max value", E("f", ^uint64(0)), ^uint64(0), 64, true},
	}
	for _, c := range cases {
		if got := c.m.Covers(c.v, c.width); got != c.want {
			t.Errorf("%s: Covers(%#x, %d) = %v, want %v", c.name, c.v, c.width, got, c.want)
		}
	}
}

// TestMatchKeySignature: the match signature ignores action data and
// match-list order, but distinguishes priority and match content.
func TestMatchKeySignature(t *testing.T) {
	a := Rule("permit", []uint64{1, 2}, E("x", 1), L("y", 0x0A000000, 8))
	b := Rule("drop", nil, L("y", 0x0A000000, 8), E("x", 1))
	if a.MatchKey() != b.MatchKey() {
		t.Errorf("MatchKey depends on action or match order:\n%q\n%q", a.MatchKey(), b.MatchKey())
	}
	c := Rule("permit", []uint64{1, 2}, E("x", 2), L("y", 0x0A000000, 8))
	if a.MatchKey() == c.MatchKey() {
		t.Error("MatchKey ignores match values")
	}
	d := PRule(5, "permit", []uint64{1, 2}, E("x", 1), L("y", 0x0A000000, 8))
	if a.MatchKey() == d.MatchKey() {
		t.Error("MatchKey ignores priority")
	}
}

// TestDepTags: the tag vocabulary — stable across action-data updates,
// distinct across entries and tables, and reversible to its table name.
func TestDepTags(t *testing.T) {
	e1 := Rule("set_port", []uint64{1}, E("dst", 4))
	e2 := Rule("set_port", []uint64{9}, E("dst", 4)) // arg-only update
	if DepTag("acl", e1) != DepTag("acl", e2) {
		t.Error("DepTag changed on an action-data update")
	}
	e3 := Rule("set_port", []uint64{1}, E("dst", 5))
	if DepTag("acl", e1) == DepTag("acl", e3) {
		t.Error("DepTag collided across different matches")
	}
	if DepTag("acl", e1) == DepTag("nat", e1) {
		t.Error("DepTag collided across tables")
	}
	for _, tag := range []string{DepTag("acl", e1), MissTag("acl")} {
		if TagTable(tag) != "acl" {
			t.Errorf("TagTable(%q) = %q, want acl", tag, TagTable(tag))
		}
		if !strings.Contains(tag, "#") {
			t.Errorf("tag %q has no branch separator", tag)
		}
	}
	if TagTable("acl") != "acl" {
		t.Error("bare table name must pass through TagTable")
	}
}

// TestCanonicalEqual: canonical form is insertion-order independent, and
// Equal follows it.
func TestCanonicalEqual(t *testing.T) {
	a := NewSet()
	a.Add("t2", Rule("x", nil, E("f", 1)))
	a.Add("t1", PRule(1, "y", nil, E("g", 2)))
	a.Add("t1", PRule(9, "z", nil, E("g", 3)))

	b := NewSet()
	b.Add("t1", PRule(9, "z", nil, E("g", 3)))
	b.Add("t1", PRule(1, "y", nil, E("g", 2)))
	b.Add("t2", Rule("x", nil, E("f", 1)))

	if !a.Equal(b) {
		t.Fatalf("insertion order broke equality:\n%s\nvs\n%s",
			a.Canonical().String(), b.Canonical().String())
	}
	// Canonical entry order: descending priority.
	es := a.Canonical().Entries("t1")
	if es[0].Priority != 9 || es[1].Priority != 1 {
		t.Fatalf("canonical priority order wrong: %v", es)
	}

	c := NewSet()
	c.Add("t1", PRule(9, "z", nil, E("g", 3)))
	c.Add("t1", PRule(1, "y", []uint64{1}, E("g", 2))) // arg change
	c.Add("t2", Rule("x", nil, E("f", 1)))
	if a.Equal(c) {
		t.Fatal("sets that differ in one action argument are Equal")
	}
}
