package spec

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/p4"
	"repro/internal/packet"
)

const specProg = `
header ethernet { bit<48> dstAddr; bit<48> srcAddr; bit<16> etherType; }
header ipv4 { bit<8> ttl; bit<8> protocol; bit<32> srcAddr; bit<32> dstAddr; }
header tcp { bit<16> srcPort; bit<16> dstPort; }
metadata { bit<9> port; }
control c { apply { } }
pipeline p { control = c; }
`

func specTestProg(t *testing.T) *p4.Program {
	t.Helper()
	pr := p4.MustParse(specProg)
	if err := p4.Check(pr); err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestParseSpec(t *testing.T) {
	specs, err := Parse(`
// NAT ingress TCP sub-case (§6)
spec nat_in_tcp {
  assume ethernet.etherType == 0x0800;
  assume ipv4.protocol == 6;
  expect forwarded;
  expect valid(tcp);
  expect ipv4.dstAddr == 192.168.0.1;
  expect tcp.srcPort == in.tcp.srcPort;
}

spec drop_others {
  assume ipv4.protocol == 47;
  expect dropped;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("specs = %d", len(specs))
	}
	s := specs[0]
	if s.Name != "nat_in_tcp" || len(s.Assumes) != 2 || len(s.Expects) != 4 {
		t.Fatalf("spec parse wrong: %+v", s)
	}
	if s.Expects[0].Kind != ExpectForwarded || s.Expects[1].Kind != ExpectValid {
		t.Errorf("expect kinds wrong")
	}
	if specs[1].Expects[0].Kind != ExpectDropped {
		t.Errorf("dropped kind wrong")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"expect forwarded;",              // outside spec
		"spec a {\n spec b {\n }\n}",     // nested
		"spec a {\n nonsense clause;\n}", // unknown clause
		"spec a {\n assume == 3;\n}",     // bad expression
		"spec unterminated {",            // missing close
	}
	for i, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

// TestParseWholeExpression: a clause body is one expression, all of it.
// Text after a complete expression is rejected, not dropped, and an error
// is positioned in the file, at the bad token.
func TestParseWholeExpression(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"assume h.x == 1) { } h.y = 2; if (1;", `spec:2:16: expected ";", found )`},
		{"assume h.x == 1 h.y;", `spec:2:17: expected ";", found h`},
		{"assume h.x $ 1;", `spec:2:12: unexpected character '$'`},
		{"assume h.x ==;", `spec:2:14: expected expression, found ;`},
		{"expect h.x == in.h.x h.y;", `spec:2:22: expected ";", found h`},
	} {
		_, err := Parse("spec a {\n" + tc.src + "\n}")
		var pe *p4.ParseError
		if !errors.As(err, &pe) || err.Error() != tc.want {
			t.Errorf("%s: error %v, want a *p4.ParseError %q", tc.src, err, tc.want)
		}
	}
	s := MustParseOne("spec a {\nassume (h.x == 1) && !h.isValid();\n}")
	if got := p4.ExprString(s.Assumes[0]); got != "(h.x == 1 && !(h.isValid()))" {
		t.Errorf("assume parses as %s", got)
	}
}

func TestAssumeConstraints(t *testing.T) {
	pr := specTestProg(t)
	s := MustParseOne(`
spec x {
  assume ipv4.protocol == 6;
  assume tcp.srcPort > 1000;
  expect forwarded;
}
`)
	bs, err := s.AssumeConstraints(pr)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 {
		t.Fatalf("constraints = %d", len(bs))
	}
	st := expr.State{"hdr.ipv4.protocol": 6, "hdr.tcp.srcPort": 2000}
	for _, b := range bs {
		ok, err := expr.EvalBool(b, st)
		if err != nil || !ok {
			t.Errorf("constraint %s not satisfied by matching state", b)
		}
	}
}

func TestAssumeConstraintsUnknownField(t *testing.T) {
	pr := specTestProg(t)
	s := MustParseOne("spec x {\n assume nosuch.field == 1;\n expect forwarded;\n}")
	if _, err := s.AssumeConstraints(pr); err == nil {
		t.Fatal("expected resolution error")
	}
}

// setField sets a header field of p, adding the header if p has none.
func setField(p *packet.Packet, header, field string, v uint64) {
	for _, h := range p.Headers {
		if h.Name == header {
			h.Fields[field] = v
			return
		}
	}
	p.Headers = append(p.Headers, packet.Header{Name: header, Fields: map[string]uint64{field: v}})
}

func inPkt() *packet.Packet {
	p := &packet.Packet{Payload: packet.WithID(1)}
	setField(p, "ethernet", "etherType", 0x0800)
	setField(p, "ipv4", "protocol", 6)
	setField(p, "ipv4", "dstAddr", 0x0A000001)
	setField(p, "tcp", "srcPort", 1234)
	return p
}

func TestCheckForwardedDropped(t *testing.T) {
	pr := specTestProg(t)
	fwd := MustParseOne("spec f {\n expect forwarded;\n}")
	drp := MustParseOne("spec d {\n expect dropped;\n}")
	out := inPkt()

	if vs := fwd.Check(pr, inPkt(), out); len(vs) != 0 {
		t.Errorf("forwarded with output: %v", vs)
	}
	if vs := fwd.Check(pr, inPkt(), nil); len(vs) != 1 {
		t.Errorf("forwarded with drop: %v", vs)
	}
	if vs := drp.Check(pr, inPkt(), nil); len(vs) != 0 {
		t.Errorf("dropped with drop: %v", vs)
	}
	if vs := drp.Check(pr, inPkt(), out); len(vs) != 1 {
		t.Errorf("dropped with output: %v", vs)
	}
}

func TestCheckValidity(t *testing.T) {
	pr := specTestProg(t)
	s := MustParseOne("spec v {\n expect valid(tcp);\n expect invalid(ethernet);\n}")
	out := &packet.Packet{}
	setField(out, "tcp", "srcPort", 1)
	if vs := s.Check(pr, inPkt(), out); len(vs) != 0 {
		t.Errorf("violations: %v", vs)
	}
	out2 := &packet.Packet{}
	setField(out2, "ethernet", "etherType", 1)
	vs := s.Check(pr, inPkt(), out2)
	if len(vs) != 2 {
		t.Errorf("want 2 violations, got %v", vs)
	}
}

func TestCheckFieldAgainstInput(t *testing.T) {
	pr := specTestProg(t)
	s := MustParseOne("spec f {\n expect tcp.srcPort == in.tcp.srcPort;\n}")
	out := inPkt()
	if vs := s.Check(pr, inPkt(), out); len(vs) != 0 {
		t.Errorf("unchanged field flagged: %v", vs)
	}
	setField(out, "tcp", "srcPort", 9999)
	vs := s.Check(pr, inPkt(), out)
	if len(vs) != 1 {
		t.Fatalf("changed field not flagged: %v", vs)
	}
	if !strings.Contains(vs[0].Detail, "9999") {
		t.Errorf("violation detail should show values: %s", vs[0].Detail)
	}
}

func TestCheckFieldArithmetic(t *testing.T) {
	pr := specTestProg(t)
	s := MustParseOne("spec a {\n expect ipv4.ttl == in.ipv4.ttl - 1;\n}")
	in := inPkt()
	setField(in, "ipv4", "ttl", 64)
	out := inPkt()
	setField(out, "ipv4", "ttl", 63)
	if vs := s.Check(pr, in, out); len(vs) != 0 {
		t.Errorf("ttl-1 flagged: %v", vs)
	}
	setField(out, "ipv4", "ttl", 64)
	if vs := s.Check(pr, in, out); len(vs) != 1 {
		t.Errorf("wrong ttl not flagged: %v", vs)
	}
	// Arithmetic wraps at the fields' 8 bits, as in the model and the
	// target: 0 - 1 is 255, not 2^64 - 1.
	setField(in, "ipv4", "ttl", 0)
	setField(out, "ipv4", "ttl", 255)
	if vs := s.Check(pr, in, out); len(vs) != 0 {
		t.Errorf("ttl 0 - 1 did not wrap to 255: %v", vs)
	}
}

func TestCheckMissingOutputField(t *testing.T) {
	pr := specTestProg(t)
	s := MustParseOne("spec m {\n expect tcp.srcPort == 1;\n}")
	out := &packet.Packet{} // no tcp
	vs := s.Check(pr, inPkt(), out)
	if len(vs) != 1 {
		t.Fatalf("missing field not flagged: %v", vs)
	}
	if want := "output has no hdr.tcp.srcPort"; vs[0].Detail != want {
		t.Errorf("detail = %q, want %q", vs[0].Detail, want)
	}
	s = MustParseOne("spec m {\n expect tcp.srcPort == in.ethernet.srcAddr;\n}")
	setField(out, "tcp", "srcPort", 1)
	vs = s.Check(pr, inPkt(), out)
	if want := "input has no hdr.ethernet.srcAddr"; len(vs) != 1 || vs[0].Detail != want {
		t.Errorf("violations = %v, want one with detail %q", vs, want)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Spec: "s", Expect: "forwarded", Detail: "dropped"}
	if !strings.Contains(v.String(), "spec s") {
		t.Errorf("violation string: %s", v)
	}
}
