package rules

import (
	"strings"
	"testing"
)

// The incremental regression layer keys journal reuse on canonical rule
// serialization and entry match signatures, so String/Parse round-trip
// fidelity is load-bearing: a rendering that re-parses differently would
// silently diverge the diff.

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
		if table, _, ok := strings.Cut(tag, "#"); !ok || table != "acl" {
			t.Errorf("tag %q does not lead with its table and a '#'", tag)
		}
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
