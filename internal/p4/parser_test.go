package p4

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// routerSrc is a minimal single-pipeline program exercising most syntax.
const routerSrc = `
program router;

header ethernet {
  bit<48> dstAddr;
  bit<48> srcAddr;
  bit<16> etherType;
}

header ipv4 {
  bit<8>  ttl;
  bit<8>  protocol;
  bit<16> checksum;
  bit<32> srcAddr;
  bit<32> dstAddr;
}

metadata {
  bit<9> egress_port;
}

parser prs {
  state start {
    extract(ethernet);
    transition select(ethernet.etherType) {
      0x0800: parse_ipv4;
      default: accept;
    }
  }
  state parse_ipv4 {
    extract(ipv4);
    transition accept;
  }
}

action set_port(bit<9> port) {
  meta.egress_port = port;
}

action dec_ttl() {
  ipv4.ttl = ipv4.ttl - 1;
}

action drop_pkt() {
  mark_drop();
}

table ipv4_host {
  key = { ipv4.dstAddr : exact; }
  actions = { set_port; drop_pkt; }
  default_action = drop_pkt();
  size = 1024;
}

control ing {
  apply {
    if (ipv4.isValid() && ipv4.ttl > 0) {
      dec_ttl();
      ipv4_host.apply();
      update_checksum(ipv4, checksum);
    } else {
      drop_pkt();
    }
  }
}

pipeline ingress0 {
  parser = prs;
  control = ing;
}
`

func TestParseRouter(t *testing.T) {
	prog, err := Parse(routerSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if prog.Name != "router" {
		t.Errorf("program name = %q", prog.Name)
	}
	if len(prog.Headers) != 2 || len(prog.Actions) != 3 || len(prog.Tables) != 1 {
		t.Fatalf("decl counts wrong: %d headers, %d actions, %d tables",
			len(prog.Headers), len(prog.Actions), len(prog.Tables))
	}
	eth := prog.Header("ethernet")
	if eth == nil || eth.Bits() != 112 {
		t.Fatalf("ethernet header wrong: %+v", eth)
	}
	if f := eth.Field("etherType"); f == nil || f.Width != 16 {
		t.Errorf("etherType field wrong")
	}
	tbl := prog.Table("ipv4_host")
	if tbl == nil || len(tbl.Keys) != 1 || tbl.Keys[0].Match != MatchExact {
		t.Fatalf("table wrong: %+v", tbl)
	}
	if tbl.DefaultAction == nil || tbl.DefaultAction.Name != "drop_pkt" {
		t.Errorf("default action wrong")
	}
	if tbl.Size != 1024 {
		t.Errorf("size = %d", tbl.Size)
	}
	if err := Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
}

func TestParseIPv4Literal(t *testing.T) {
	prog := MustParse(`
header h { bit<32> a; }
action set(bit<32> x) { h.a = x; }
table t {
  key = { h.a : exact; }
  actions = { set; }
  default_action = set(10.1.1.1);
}
control c { apply { t.apply(); } }
pipeline p { control = c; }
`)
	num, ok := prog.Tables[0].DefaultAction.Args[0].(*NumberExpr)
	if !ok || num.Val != 0x0A010101 {
		t.Fatalf("IPv4 literal = %#x, want 0x0A010101", num.Val)
	}
}

func TestParseHexLiteral(t *testing.T) {
	toks := lexAll("0x0800 0xdead 42")
	if toks[0].val != 0x0800 || toks[1].val != 0xdead || toks[2].val != 42 {
		t.Errorf("lexed values: %v %v %v", toks[0].val, toks[1].val, toks[2].val)
	}
}

func TestLexComments(t *testing.T) {
	toks := lexAll("a // line comment\n b /* block\ncomment */ c")
	if len(toks) != 4 { // a b c EOF
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
}

// TestLexUnterminatedComment: a lexical error is a *ParseError, at the
// position where the comment opens.
func TestLexUnterminatedComment(t *testing.T) {
	_, err := Parse("a /* never closed")
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Pos != (Pos{Line: 1, Col: 3}) {
		t.Fatalf("Parse = %v, want a *ParseError at 1:3", err)
	}
}

func TestParseMultiPipelineTopology(t *testing.T) {
	prog := MustParse(`
header h { bit<8> x; }
metadata { bit<9> port; }
parser prs { state start { extract(h); transition accept; } }
action fwd(bit<9> p) { meta.port = p; }
table t { key = { h.x : exact; } actions = { fwd; } default_action = fwd(0); }
control cin  { apply { t.apply(); } }
control cout { apply { } }
pipeline ig { parser = prs; control = cin; kind = ingress; switch = sw0; }
pipeline eg { control = cout; kind = egress; switch = sw0; }
topology {
  entry ig;
  ig -> eg when meta.port < 32;
  ig -> exit when meta.port >= 32;
  eg -> exit;
}
`)
	if err := Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	if len(prog.Pipelines) != 2 {
		t.Fatalf("pipelines = %d", len(prog.Pipelines))
	}
	if prog.Pipelines[1].Kind != Egress {
		t.Errorf("eg kind = %v", prog.Pipelines[1].Kind)
	}
	if got := prog.Switches(); len(got) != 1 || got[0] != "sw0" {
		t.Errorf("switches = %v", got)
	}
	topo := prog.Topology
	if len(topo.Edges) != 3 || topo.Edges[0].Guard == nil || topo.Edges[2].Guard != nil {
		t.Fatalf("topology edges wrong: %+v", topo.Edges)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{"header h { bit<0> x; }", "out of range"},
		{"header h { bit<65> x; }", "out of range"},
		{"table t {", "expected"},
		{"frobnicate x;", "unknown declaration"},
		{"header h { bit<8> x; } header h { bit<8> y; } control c { apply {} } pipeline p { control = c; }", "duplicate"},
	}
	for i, c := range cases {
		prog, err := Parse(c.src)
		if err == nil {
			err = Check(prog)
		}
		if err == nil {
			t.Errorf("case %d: expected error containing %q", i, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("case %d: error %q does not contain %q", i, err, c.wantSub)
		}
	}
}

// TestListsNeedSeparators: the elements of a parenthesized list —
// parameters, call arguments, select fields and select values — are
// separated by commas, and a comma is followed by an element.
func TestListsNeedSeparators(t *testing.T) {
	const sel = "parser prs { state start { transition select(%s) { %s: accept; } } }"
	for _, tc := range []struct{ src, want string }{
		{"action a(bit<8> v bit<8> w) { }", `1:19: expected "," or ")", found bit`},
		{"action a(bit<8> v,) { }", `1:19: expected "bit", found )`},
		{"control c { apply { a(1 2); } }", `1:25: expected "," or ")", found number(2)`},
		{"control c { apply { a(1,); } }", `1:25: expected expression, found )`},
		{"table t { actions = { a; } default_action = a(1 2); }", `1:49: expected "," or ")", found number(2)`},
		{fmt.Sprintf(sel, "h.a h.b", "(1, 2)"), `1:50: expected "," or ")", found h`},
		{fmt.Sprintf(sel, "h.a, h.b", "(1 2)"), `1:61: expected "," or ")", found number(2)`},
		{fmt.Sprintf(sel, "h.a, h.b", "(1, 2,)"), `1:64: expected number, found )`},
	} {
		if _, err := Parse(tc.src); err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %s", tc.src, err, tc.want)
		}
	}
	for _, src := range []string{
		"action a() { } action b(bit<8> v, bit<8> w) { } control c { apply { a(); b(1, 2); } }",
		fmt.Sprintf(sel, "h.a, h.b", "(1, 2)"),
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{ // unknown field
			`header h { bit<8> x; } control c { apply { h.y = 1; } } pipeline p { control = c; }`,
			"no field",
		},
		{ // unknown table
			`header h { bit<8> x; } control c { apply { nosuch.apply(); } } pipeline p { control = c; }`,
			"unknown table",
		},
		{ // arity mismatch
			`header h { bit<8> x; } action a(bit<8> v) { h.x = v; }
			 control c { apply { a(); } } pipeline p { control = c; }`,
			"expects 1 arguments",
		},
		{ // parser cycle
			`header h { bit<8> x; }
			 parser prs { state start { transition s2; } state s2 { transition start; } }
			 control c { apply { } }
			 pipeline p { parser = prs; control = c; }`,
			"cycle",
		},
		{ // register index out of bounds
			`header h { bit<8> x; } register bit<8> r[4];
			 control c { apply { reg_write(r, 9, 1); } } pipeline p { control = c; }`,
			"out of bounds",
		},
		{ // multi-pipeline without topology
			`header h { bit<8> x; } control c { apply { } } control d { apply { } }
			 pipeline p1 { control = c; } pipeline p2 { control = d; }`,
			"requires a topology",
		},
		{ // topology cycle
			`header h { bit<8> x; } control c { apply { } } control d { apply { } }
			 pipeline p1 { control = c; } pipeline p2 { control = d; }
			 topology { entry p1; p1 -> p2; p2 -> p1; }`,
			"cycle",
		},
		{ // action recursion, through another action and a branch
			`header h { bit<8> x; } action a() { if (h.x == 1) { b(); } } action b() { a(); }
			 control c { apply { a(); } } pipeline p { control = c; }`,
			"calls itself",
		},
	}
	for i, c := range cases {
		prog, err := Parse(c.src)
		if err == nil {
			err = Check(prog)
		}
		if err == nil {
			t.Errorf("case %d: expected error containing %q", i, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("case %d: error %q does not contain %q", i, err, c.wantSub)
		}
	}
}

// TestMissingTopologyPositioned: a multi-pipeline program without a
// topology block is rejected at its second pipeline declaration.
func TestMissingTopologyPositioned(t *testing.T) {
	prog := MustParse("control c { apply { } }\npipeline p1 { control = c; }\npipeline p2 { control = c; }")
	var ce *CheckError
	if err := Check(prog); !errors.As(err, &ce) || ce.Pos != (Pos{Line: 3, Col: 1}) {
		t.Fatalf("Check = %v, want a *CheckError at 3:1", err)
	}
}

func TestParseSelectMultiField(t *testing.T) {
	prog := MustParse(`
header h { bit<8> a; bit<8> b; }
parser prs {
  state start {
    extract(h);
    transition select(h.a, h.b) {
      (1, 2): s1;
      default: accept;
    }
  }
  state s1 { transition accept; }
}
control c { apply { } }
pipeline p { parser = prs; control = c; }
`)
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
	tr := prog.Parsers[0].State("start").Transition
	if len(tr.Select) != 2 || len(tr.Cases) != 1 || len(tr.Cases[0].Values) != 2 {
		t.Fatalf("select parse wrong: %+v", tr)
	}
}

func TestParseRegisterAndHash(t *testing.T) {
	prog := MustParse(`
header tcp { bit<16> srcPort; bit<16> dstPort; }
metadata { bit<16> h; }
register bit<16> counts[16];
control c {
  apply {
    hash(meta.h, tcp.srcPort, tcp.dstPort);
    meta.h = reg_read(counts, 3);
    reg_write(counts, 3, meta.h + 1);
  }
}
pipeline p { control = c; }
`)
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
	if len(prog.Registers) != 1 || prog.Registers[0].Size != 16 {
		t.Fatalf("register parse wrong")
	}
}

func TestParseElseIfChain(t *testing.T) {
	prog := MustParse(`
header h { bit<8> x; }
control c {
  apply {
    if (h.x == 1) { h.x = 10; }
    else if (h.x == 2) { h.x = 20; }
    else { h.x = 30; }
  }
}
pipeline p { control = c; }
`)
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
	ifs, ok := prog.Controls[0].Apply[0].(*IfStmt)
	if !ok || len(ifs.Else) != 1 {
		t.Fatalf("else-if chain wrong: %+v", prog.Controls[0].Apply[0])
	}
	if _, ok := ifs.Else[0].(*IfStmt); !ok {
		t.Fatalf("nested else-if missing")
	}
}

func TestNames(t *testing.T) {
	if HeaderFieldVar("ipv4", "dstAddr") != "hdr.ipv4.dstAddr" {
		t.Error("HeaderFieldVar wrong")
	}
	if h, f, ok := IsHeaderFieldVar("hdr.ipv4.dstAddr"); !ok || h != "ipv4" || f != "dstAddr" {
		t.Error("IsHeaderFieldVar wrong")
	}
	if _, _, ok := IsHeaderFieldVar("meta.x"); ok {
		t.Error("meta var must not parse as header field")
	}
	if h, ok := IsValidVar(ValidVar("tcp")); !ok || h != "tcp" {
		t.Error("ValidVar round trip failed")
	}
	if RegisterVar("reg", 0) != "REG:reg-POS:0" {
		t.Errorf("RegisterVar = %s, want paper's REG:reg-POS:0 convention", RegisterVar("reg", 0))
	}
	if r, i, ok := IsRegisterVar("REG:cnt-POS:12"); !ok || r != "cnt" || i != 12 {
		t.Error("IsRegisterVar round trip failed")
	}
	if f, ok := IsMetaVar("meta.egress_port"); !ok || f != "egress_port" {
		t.Error("IsMetaVar wrong")
	}
}

// TestExprPrecedence pins the expression grammar: each source text parses
// to the fully parenthesized form shown. The rows cover every precedence
// boundary, left associativity (comparisons chain too) and the unary
// operators, which bind tighter than any infix one; the printer renders
// both ! and ~ as !(...).
func TestExprPrecedence(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"a || b && c", "(a || (b && c))"},
		{"a && b || c", "((a && b) || c)"},
		{"a == b | c", "a == (b | c)"},
		{"a | b == c", "(a | b) == c"},
		{"a | b ^ c & d", "(a | (b ^ (c & d)))"},
		{"a & b << 1", "(a & (b << 1))"},
		{"a << 1 + b", "(a << (1 + b))"},
		{"a + b * c", "(a + (b * c))"},
		{"a * b + c", "((a * b) + c)"},
		{"a - b - c", "((a - b) - c)"},
		{"a << 1 >> 2", "((a << 1) >> 2)"},
		{"a < b < c", "a < b < c"},
		{"a < b == c", "a < b == c"},
		{"!a * b", "(!(a) * b)"},
		{"~a * b", "(!(a) * b)"},
		{"a * ~b", "(a * !(b))"},
		{"!x.isValid() || a >= (b + c) * 2", "(!(x.isValid()) || a >= ((b + c) * 2))"},
	} {
		prog, err := Parse("control c { apply { if (" + tc.src + ") { } } }")
		if err != nil {
			t.Errorf("%s: %v", tc.src, err)
			continue
		}
		if got := ExprString(prog.Controls[0].Apply[0].(*IfStmt).Cond); got != tc.want {
			t.Errorf("%s parses as %s, want %s", tc.src, got, tc.want)
		}
	}
	// A chained comparison is left-nested, like every other operator.
	prog := MustParse("control c { apply { if (a < b < c) { } } }")
	outer := prog.Controls[0].Apply[0].(*IfStmt).Cond.(*CmpExpr)
	if _, ok := outer.L.(*CmpExpr); !ok {
		t.Errorf("a < b < c: left operand is %T, want *CmpExpr", outer.L)
	}
}

// TestCatchConvertsOnlyRejections: an entry point's recover turns the
// package's own *ParseError and *CheckError into the returned error, and
// lets any other panic go on.
func TestCatchConvertsOnlyRejections(t *testing.T) {
	run := func(v any) (escaped any, err error) {
		defer func() { escaped = recover() }()
		func() {
			defer catch(&err)
			panic(v)
		}()
		return nil, err
	}
	for _, v := range []error{&ParseError{Msg: "p", Pos: Pos{1, 2}}, &CheckError{Msg: "c", Pos: Pos{3, 4}}} {
		if escaped, err := run(v); err != v || escaped != nil {
			t.Errorf("catch(%v) = %v, escaped %v; want it returned", v, err, escaped)
		}
	}
	if escaped, err := run("boom"); err != nil || escaped != "boom" {
		t.Errorf(`catch("boom") = %v, escaped %v; want it to escape`, err, escaped)
	}
	// End to end: a statement the parser never builds crashes the checker,
	// and that crash is not reported as a rejection.
	prog := MustParse("control c { apply { } } pipeline p { control = c; }")
	prog.Controls[0].Apply = []Stmt{nil}
	var escaped any
	func() {
		defer func() { escaped = recover() }()
		_ = Check(prog)
	}()
	if _, ok := escaped.(runtime.Error); !ok {
		t.Errorf("Check with a nil statement: escaped %v, want a runtime error", escaped)
	}
}
