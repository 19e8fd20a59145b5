package driver

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cfg"
	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/spec"
	"repro/internal/switchsim"
	"repro/internal/sym"
)

const driverProg = `
header ethernet { bit<48> dstAddr; bit<48> srcAddr; bit<16> etherType; }
header ipv4 { bit<8> ttl; bit<8> protocol; bit<16> checksum; bit<32> srcAddr; bit<32> dstAddr; }
metadata { bit<9> port; }
parser prs {
  state start {
    extract(ethernet);
    transition select(ethernet.etherType) {
      0x0800: parse_ipv4;
      default: accept;
    }
  }
  state parse_ipv4 { extract(ipv4); transition accept; }
}
action fwd(bit<9> p) { meta.port = p; ipv4.ttl = ipv4.ttl - 1; update_checksum(ipv4, checksum); }
action deny() { mark_drop(); }
table host {
  key = { ipv4.dstAddr : exact; }
  actions = { fwd; deny; }
  default_action = deny();
}
control ing { apply { if (ipv4.isValid() && ipv4.ttl > 1) { host.apply(); } else { mark_drop(); } } }
pipeline ig { parser = prs; control = ing; }
`

func setup(t *testing.T, faults switchsim.Faults) (*p4.Program, *cfg.Graph, []*sym.Template, *Driver) {
	t.Helper()
	prog := p4.MustParse(driverProg)
	rs := rules.MustParse("table host {\n ipv4.dstAddr=10.0.0.1 -> fwd(3);\n}")
	g, err := cfg.Build(prog, rs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sym.Explore(sym.Config{Graph: g, Options: sym.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	target, err := switchsim.Compile(prog, rs, faults)
	if err != nil {
		t.Fatal(err)
	}
	d := New(prog, g, NewLoopback(target), nil)
	return prog, g, res.Templates, d
}

func TestRunTemplatesCleanPass(t *testing.T) {
	_, _, templates, d := setup(t, nil)
	rep, err := d.RunTemplates(templates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		f := rep.Failures()[0]
		t.Fatalf("false positives: %v %v", f.Mismatches, f.ChecksumErrors)
	}
	if rep.Passed == 0 {
		t.Fatal("no cases ran")
	}
}

func TestConcretizeSetsSaneDefaults(t *testing.T) {
	_, _, templates, d := setup(t, nil)
	for i, tm := range templates {
		c, err := d.Concretize(tm, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if c.SkipReason != "" {
			continue
		}
		// Inputs must carry the unique ID.
		if id, ok := c.Input.ID(); !ok || id != uint64(i+1) {
			t.Errorf("case %d input ID = %d %v", i, id, ok)
		}
		// TTL defaults to 64 when unconstrained; otherwise it satisfies
		// the constraint — never an implausible 0 on forwarded paths.
		if ttl, ok := c.Input.Field("ipv4", "ttl"); ok && c.Expected != nil && ttl == 0 {
			t.Errorf("case %d forwards with input TTL 0", i)
		}
	}
}

func TestConcretizeFixesInputChecksums(t *testing.T) {
	prog, _, templates, d := setup(t, nil)
	decl := prog.Header("ipv4")
	for i, tm := range templates {
		c, err := d.Concretize(tm, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if c.SkipReason != "" || !c.Input.Has("ipv4") {
			continue
		}
		// The sender must emit valid IPv4 checksums (the program
		// maintains ipv4.checksum via update_checksum).
		cs, _ := c.Input.Field("ipv4", "checksum")
		if cs == 0 && len(decl.Fields) > 1 {
			t.Errorf("case %d input checksum left zero", i)
		}
	}
}

func TestDetectsFault(t *testing.T) {
	_, _, templates, d := setup(t, switchsim.Faults{switchsim.ChecksumSkip{Header: "ipv4"}})
	rep, err := d.RunTemplates(templates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 {
		t.Fatal("checksum-skip fault undetected")
	}
	found := false
	for _, o := range rep.Failures() {
		if len(o.ChecksumErrors) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("expected a checksum error in some failing outcome")
	}
}

func TestChecksDisabled(t *testing.T) {
	_, _, templates, d := setup(t, switchsim.Faults{switchsim.ChecksumSkip{Header: "ipv4"}})
	d.Checks = Checks{} // everything off
	rep, err := d.RunTemplates(templates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatal("disabled checks must not fail")
	}
}

func TestSpecViolationDetected(t *testing.T) {
	prog, g, templates, _ := setup(t, nil)
	sp := spec.MustParseOne(`
spec all_forwarded {
  assume ethernet.etherType == 0x0800;
  expect forwarded;
}
`)
	rs := rules.MustParse("table host {\n ipv4.dstAddr=10.0.0.1 -> fwd(3);\n}")
	target, _ := switchsim.Compile(prog, rs, nil)
	d := New(prog, g, NewLoopback(target), []*spec.Spec{sp})
	rep, err := d.RunTemplates(templates)
	if err != nil {
		t.Fatal(err)
	}
	// Some IPv4 packets are dropped (table miss), violating the spec.
	if rep.Failed == 0 {
		t.Fatal("expected spec violations for dropped IPv4 packets")
	}
}

// TestSpecsChangedBetweenRuns: which specs apply is decided once per
// template and cached with its concretization; a driver whose Specs
// change between runs must decide again, not reuse the first run's.
func TestSpecsChangedBetweenRuns(t *testing.T) {
	_, _, templates, d := setup(t, nil)
	if rep, err := d.RunTemplates(templates); err != nil || rep.Failed != 0 {
		t.Fatalf("without specs: %v, %v", rep, err)
	}
	d.Specs = []*spec.Spec{spec.MustParseOne(`
spec all_forwarded {
  assume ethernet.etherType == 0x0800;
  expect forwarded;
}
`)}
	rep, err := d.RunTemplates(templates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 {
		t.Fatal("the spec added for the second run was never checked")
	}
}

// TestUntranslatableAssumeIsAnError: a spec whose assume names a field
// the program lacks applies to no input. RunTemplates refuses it rather
// than check nothing against it; SpecApplies, which has no error to
// return, says it does not apply.
func TestUntranslatableAssumeIsAnError(t *testing.T) {
	_, _, templates, d := setup(t, nil)
	sp := spec.MustParseOne(`
spec typo {
  assume ipv4.protocl == 6;
  expect forwarded;
}
`)
	d.Specs = []*spec.Spec{sp}
	if _, err := d.RunTemplates(templates); err == nil || !strings.Contains(err.Error(), "spec typo") {
		t.Fatalf("RunTemplates err = %v, want one naming spec typo", err)
	}
	in := &packet.Packet{Headers: []packet.Header{{Name: "ipv4", Fields: map[string]uint64{"protocol": 6}}}}
	if d.SpecApplies(sp, in) {
		t.Error("an untranslatable spec applies")
	}
	d.Checks.Specs = false
	if _, err := d.RunTemplates(templates); err != nil {
		t.Errorf("with spec checks off: %v", err)
	}
}

func TestSpecAppliesFilters(t *testing.T) {
	prog, g, _, _ := setup(t, nil)
	sp := spec.MustParseOne(`
spec only_tcp {
  assume ipv4.protocol == 6;
  expect forwarded;
}
`)
	d := New(prog, g, nil, []*spec.Spec{sp})
	tcpIn := &packet.Packet{Headers: []packet.Header{{Name: "ipv4", Fields: map[string]uint64{"protocol": 6}}}}
	udpIn := &packet.Packet{Headers: []packet.Header{{Name: "ipv4", Fields: map[string]uint64{"protocol": 17}}}}
	if !d.SpecApplies(sp, tcpIn) {
		t.Error("spec should apply to TCP input")
	}
	if d.SpecApplies(sp, udpIn) {
		t.Error("spec should not apply to UDP input")
	}
}

func TestUDPLinkRoundTrip(t *testing.T) {
	prog := p4.MustParse(driverProg)
	rs := rules.MustParse("table host {\n ipv4.dstAddr=10.0.0.1 -> fwd(3);\n}")
	target, _ := switchsim.Compile(prog, rs, nil)
	sw, err := ServeUDP(target, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	link, err := DialUDP(sw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	in := &packet.Packet{
		Headers: []packet.Header{
			{Name: "ethernet", Fields: map[string]uint64{"etherType": 0x0800}},
			{Name: "ipv4", Fields: map[string]uint64{"ttl": 64, "protocol": 6, "dstAddr": 0x0A000001}},
		},
		Payload: packet.WithID(77),
	}
	wire, err := in.Marshal(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := link.Send(0, wire); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	n, ok, err := link.Recv(buf, 2*time.Second)
	if err != nil || !ok {
		t.Fatalf("recv: ok=%v err=%v", ok, err)
	}
	pkt, err := packet.Parse(prog, "prs", buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := pkt.ID(); !ok || id != 77 {
		t.Errorf("ID = %d %v", id, ok)
	}
	if ttl, _ := pkt.Field("ipv4", "ttl"); ttl != 63 {
		t.Errorf("ttl = %d, want 63", ttl)
	}
}

func TestUDPLinkDropTimesOut(t *testing.T) {
	prog := p4.MustParse(driverProg)
	target, _ := switchsim.Compile(prog, rules.NewSet(), nil) // no rules: all dropped
	sw, err := ServeUDP(target, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	link, err := DialUDP(sw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	in := &packet.Packet{
		Headers: []packet.Header{
			{Name: "ethernet", Fields: map[string]uint64{"etherType": 0x0800}},
			{Name: "ipv4", Fields: map[string]uint64{"ttl": 64, "dstAddr": 1}},
		},
		Payload: packet.WithID(1),
	}
	wire, _ := in.Marshal(prog)
	if err := link.Send(0, wire); err != nil {
		t.Fatal(err)
	}
	_, ok, err := link.Recv(make([]byte, 2048), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("dropped packet must not be captured")
	}
}

func TestLoopbackTraceAvailable(t *testing.T) {
	prog := p4.MustParse(driverProg)
	rs := rules.MustParse("table host {\n ipv4.dstAddr=10.0.0.1 -> fwd(3);\n}")
	target, _ := switchsim.Compile(prog, rs, nil)
	lb := NewLoopback(target)
	in := &packet.Packet{
		Headers: []packet.Header{
			{Name: "ethernet", Fields: map[string]uint64{"etherType": 0x0800}},
			{Name: "ipv4", Fields: map[string]uint64{"ttl": 64, "dstAddr": 0x0A000001}},
		},
		Payload: packet.WithID(5),
	}
	wire, _ := in.Marshal(prog)
	tr := lb.Replay(0, wire)
	if tr == nil || len(tr.Trace) == 0 {
		t.Fatal("loopback must replay a case with its execution trace")
	}
	if _, ok, _ := lb.Recv(make([]byte, 2048), 0); ok {
		t.Error("a replayed case's capture was enqueued for Recv")
	}
}

func TestCollectChecksums(t *testing.T) {
	prog := p4.MustParse(driverProg)
	got := collectChecksums(prog)
	if len(got) != 1 || got[0] != [2]string{"ipv4", "checksum"} {
		t.Errorf("checksummed = %v", got)
	}
}

func TestReportSummary(t *testing.T) {
	r := &Report{Program: "x", Passed: 2, Failed: 1, Skipped: 3}
	s := r.Summary()
	for _, want := range []string{"2 passed", "1 failed", "3 skipped"} {
		if !containsStr(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
