package rules

import (
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	src := `
table host {
  ipv4.dstAddr=1.1.1.1 -> fwd(1);
  priority=10 ipv4.srcAddr=10.0.0.0&&&0xFF000000 ipv4.dstAddr=192.168.0.0/16 -> permit();
  tcp.srcPort=1024..2048 -> mark(7, 9);
  meta.x=* -> nop();
}
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	es := s.Entries("host")
	if len(es) != 4 {
		t.Fatalf("entries = %d", len(es))
	}
	// Priority sorting: the priority-10 entry comes first.
	if es[0].Priority != 10 || es[0].Action != "permit" {
		t.Errorf("priority order wrong: %+v", es[0])
	}
	// Round trip through String.
	s2, err := Parse(s.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, s.String())
	}
	if s2.Len() != s.Len() {
		t.Errorf("round trip lost entries: %d vs %d", s2.Len(), s.Len())
	}
}

func TestParseValues(t *testing.T) {
	s := MustParse(`
table t {
  a.b=0xff -> x(10.0.0.1);
  a.b=256 -> x(0x10);
}
`)
	es := s.Entries("t")
	if es[0].Matches[0].Val != 0xff {
		t.Errorf("hex value = %d", es[0].Matches[0].Val)
	}
	if es[0].Args[0] != 0x0A000001 {
		t.Errorf("IPv4 arg = %#x", es[0].Args[0])
	}
	if es[1].Args[0] != 0x10 {
		t.Errorf("hex arg = %#x", es[1].Args[0])
	}
}

// TestParseDottedField: a field name reads the same whatever layout or
// comments sit between its tokens.
func TestParseDottedField(t *testing.T) {
	s := MustParse(`
table t {
  hdr.ipv4.dstAddr=1 -> x();
  hdr . ipv4 /* c */ .dstAddr=2 -> x();
  hdr.
    ipv4.dstAddr=3 -> x();
  ipv4=4 -> x();
}
`)
	for i, e := range s.Entries("t") {
		want := "hdr.ipv4.dstAddr"
		if i == 3 {
			want = "ipv4"
		}
		if got := e.Matches[0].Field; got != want {
			t.Errorf("entry %d: field %q, want %q", i, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"ipv4.dst=1 -> f();",            // entry outside table
		"table t {\n no arrow here\n}",  // missing ->
		"table t {\n a=1 -> f(;\n}",     // malformed call
		"table t {\n a=5..2 -> f();\n}", // empty range
		"table {\n}",                    // missing name... parses as name "{"? ensure error
	}
	for i, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestLPMMask(t *testing.T) {
	cases := []struct {
		plen, width int
		want        uint64
	}{
		{0, 32, 0},
		{8, 32, 0xFF000000},
		{24, 32, 0xFFFFFF00},
		{32, 32, 0xFFFFFFFF},
		{33, 32, 0xFFFFFFFF},
		{16, 16, 0xFFFF},
		{64, 64, ^uint64(0)},
		{1, 64, 1 << 63},
	}
	for i, c := range cases {
		if got := lpmMask(c.plen, c.width); got != c.want {
			t.Errorf("case %d: lpmMask(%d,%d) = %#x, want %#x", i, c.plen, c.width, got, c.want)
		}
	}
}

func TestEntriesStableWithinPriority(t *testing.T) {
	s := NewSet()
	s.Add("t", Rule("a", nil, E("k", 1)))
	s.Add("t", Rule("b", nil, E("k", 2)))
	s.Add("t", Rule("c", nil, E("k", 3)))
	es := s.Entries("t")
	if es[0].Action != "a" || es[1].Action != "b" || es[2].Action != "c" {
		t.Errorf("insertion order not preserved: %v", []string{es[0].Action, es[1].Action, es[2].Action})
	}
}

func TestMerge(t *testing.T) {
	a := NewSet()
	a.Add("t1", Rule("x", nil, E("k", 1)))
	b := NewSet()
	b.Add("t1", Rule("y", nil, E("k", 2)))
	b.Add("t2", Rule("z", nil, E("k", 3)))
	a.Merge(b)
	if a.Len() != 3 || len(a.Tables()) != 2 {
		t.Errorf("merge: len=%d tables=%v", a.Len(), a.Tables())
	}
}

func TestEntryMatchFallsBackToWildcard(t *testing.T) {
	e := Rule("a", nil, E("k1", 1))
	if m := e.Match("k2"); m.Kind != Wildcard {
		t.Errorf("missing key should be wildcard, got %v", m.Kind)
	}
}

func TestLOC(t *testing.T) {
	s := NewSet()
	for i := 0; i < 5; i++ {
		s.Add("t", Rule("a", nil, E("k", uint64(i))))
	}
	if s.LOC() != 5 {
		t.Errorf("LOC = %d", s.LOC())
	}
}

func TestStringFormat(t *testing.T) {
	s := NewSet()
	s.Add("t", PRule(3, "act", []uint64{1, 2}, T("f", 0x10, 0xF0)))
	out := s.String()
	for _, want := range []string{"table t {", "priority=3", "&&&0xf0", "act(1, 2);"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}
