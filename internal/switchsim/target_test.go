package switchsim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/rules"
)

const fwdProg = `
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
action fwd(bit<9> p) { meta.port = p; ipv4.ttl = ipv4.ttl - 1; }
action deny() { mark_drop(); }
table host {
  key = { ipv4.dstAddr : exact; }
  actions = { fwd; deny; }
  default_action = deny();
}
control ing { apply { if (ipv4.isValid() && ipv4.ttl > 1) { host.apply(); } else { mark_drop(); } } }
pipeline ig { parser = prs; control = ing; }
`

func fwdRules() *rules.Set {
	return rules.MustParse(`
table host {
  ipv4.dstAddr=10.0.0.1 -> fwd(3);
}
`)
}

func mkWire(t *testing.T, prog *p4.Program, dst uint64, ttl uint64, id uint64) []byte {
	t.Helper()
	pkt := &packet.Packet{
		Headers: []packet.Header{
			{Name: "ethernet", Fields: map[string]uint64{"etherType": 0x0800}},
			{Name: "ipv4", Fields: map[string]uint64{"ttl": ttl, "protocol": 6, "dstAddr": dst}},
		},
		Payload: packet.WithID(id),
	}
	wire, err := pkt.Marshal(prog)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestForwardAndDrop(t *testing.T) {
	prog := p4.MustParse(fwdProg)
	target, err := Compile(prog, fwdRules(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Hit: forwarded with TTL decremented.
	res, err := target.Inject(0, mkWire(t, prog, 0x0A000001, 64, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped || res.Output == nil {
		t.Fatalf("expected forward, got dropped=%v", res.Dropped)
	}
	if ttl, _ := res.Output.Field("ipv4", "ttl"); ttl != 63 {
		t.Errorf("ttl = %d, want 63", ttl)
	}
	if id, ok := res.Output.ID(); !ok || id != 1 {
		t.Errorf("ID = %d %v", id, ok)
	}

	// Miss: default deny drops.
	res, err = target.Inject(0, mkWire(t, prog, 0x0A0000FF, 64, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dropped {
		t.Error("miss should drop")
	}

	// TTL expired: dropped before the table.
	res, err = target.Inject(0, mkWire(t, prog, 0x0A000001, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dropped {
		t.Error("ttl 1 should drop")
	}
}

func TestTraceRecordsTableHits(t *testing.T) {
	prog := p4.MustParse(fwdProg)
	target, _ := Compile(prog, fwdRules(), nil)
	res, _ := target.Inject(0, mkWire(t, prog, 0x0A000001, 64, 1))
	trace := strings.Join(res.Trace, "\n")
	for _, want := range []string{"extract ipv4", "table host hit entry 0", "meta.port = 3"} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %q:\n%s", want, trace)
		}
	}
}

func TestFaultSetValidNoOp(t *testing.T) {
	prog := p4.MustParse(`
header h { bit<8> x; }
header opt { bit<8> v; }
parser prs { state start { extract(h); transition accept; } }
control c {
  apply {
    setValid(opt);
    opt.v = 9;
  }
}
pipeline p { parser = prs; control = c; }
`)
	clean, _ := Compile(prog, nil, nil)
	faulty, _ := Compile(prog, nil, Faults{SetValidNoOp{Header: "opt"}})
	wire := []byte{5}
	wire = append(wire, packet.WithID(1)...)

	r1, _ := clean.Inject(0, wire)
	if !r1.Output.Has("opt") {
		t.Fatal("clean target must emit opt")
	}
	r2, _ := faulty.Inject(0, wire)
	if r2.Output.Has("opt") {
		t.Fatal("faulty target must not emit opt")
	}
}

func TestFaultFieldOverlap(t *testing.T) {
	prog := p4.MustParse(`
header h { bit<16> a; bit<16> b; }
parser prs { state start { extract(h); transition accept; } }
control c { apply { h.a = 100; } }
pipeline p { parser = prs; control = c; }
`)
	faulty, _ := Compile(prog, nil, Faults{FieldOverlap{A: "hdr.h.a", B: "hdr.h.b"}})
	wire := []byte{0, 1, 0, 2}
	wire = append(wire, packet.WithID(1)...)
	res, _ := faulty.Inject(0, wire)
	if b, _ := res.Output.Field("h", "b"); b != 100 {
		t.Errorf("overlap write: h.b = %d, want 100", b)
	}
}

func TestFaultWrongCompare(t *testing.T) {
	prog := p4.MustParse(`
header h { bit<16> x; bit<8> out; }
parser prs { state start { extract(h); transition accept; } }
control c { apply { if (h.x > 10) { h.out = 1; } else { h.out = 2; } } }
pipeline p { parser = prs; control = c; }
`)
	clean, _ := Compile(prog, nil, nil)
	faulty, _ := Compile(prog, nil, Faults{WrongCompare{}})
	// Boundary x == 10: clean takes else, faulty (>=) takes then.
	wire := []byte{0, 10, 0}
	wire = append(wire, packet.WithID(1)...)
	r1, _ := clean.Inject(0, wire)
	r2, _ := faulty.Inject(0, wire)
	v1, _ := r1.Output.Field("h", "out")
	v2, _ := r2.Output.Field("h", "out")
	if v1 != 2 || v2 != 1 {
		t.Errorf("clean=%d faulty=%d, want 2/1", v1, v2)
	}
}

func TestFaultChecksumSkip(t *testing.T) {
	prog := p4.MustParse(`
header h { bit<16> checksum; bit<16> data; }
parser prs { state start { extract(h); transition accept; } }
control c { apply { h.data = 7; update_checksum(h, checksum); } }
pipeline p { parser = prs; control = c; }
`)
	clean, _ := Compile(prog, nil, nil)
	faulty, _ := Compile(prog, nil, Faults{ChecksumSkip{Header: "h"}})
	wire := []byte{0, 0, 0, 0}
	wire = append(wire, packet.WithID(1)...)
	r1, _ := clean.Inject(0, wire)
	r2, _ := faulty.Inject(0, wire)
	c1, _ := r1.Output.Field("h", "checksum")
	c2, _ := r2.Output.Field("h", "checksum")
	if c1 == 0 {
		t.Error("clean target must update the checksum")
	}
	if c2 != 0 {
		t.Errorf("faulty target must skip the update, got %#x", c2)
	}
}

func TestRegistersPersistAcrossPackets(t *testing.T) {
	prog := p4.MustParse(`
header h { bit<16> x; }
register bit<16> cnt[4];
metadata { bit<16> c; }
parser prs { state start { extract(h); transition accept; } }
control c {
  apply {
    meta.c = reg_read(cnt, 0);
    reg_write(cnt, 0, meta.c + 1);
    h.x = meta.c;
  }
}
pipeline p { parser = prs; control = c; }
`)
	target, _ := Compile(prog, nil, nil)
	for i := 0; i < 3; i++ {
		wire := []byte{0, 0}
		wire = append(wire, packet.WithID(uint64(i))...)
		res, err := target.Inject(0, wire)
		if err != nil {
			t.Fatal(err)
		}
		if x, _ := res.Output.Field("h", "x"); x != uint64(i) {
			t.Errorf("packet %d saw counter %d", i, x)
		}
	}
	target.ResetRegisters()
	wire := []byte{0, 0}
	wire = append(wire, packet.WithID(9)...)
	res, _ := target.Inject(0, wire)
	if x, _ := res.Output.Field("h", "x"); x != 0 {
		t.Errorf("after reset counter = %d", x)
	}
}

func TestMultiPipelineRouting(t *testing.T) {
	prog := p4.MustParse(`
header h { bit<8> x; }
metadata { bit<9> port; }
parser prs { state start { extract(h); transition accept; } }
control cin { apply { if (h.x == 1) { meta.port = 1; } else { meta.port = 40; } } }
control cout { apply { h.x = h.x + 100; } }
pipeline ig { parser = prs; control = cin; }
pipeline eg { control = cout; kind = egress; }
topology {
  entry ig;
  ig -> eg when meta.port < 32;
  ig -> exit when meta.port >= 32;
  eg -> exit;
}
`)
	target, _ := Compile(prog, nil, nil)
	wire := append([]byte{1}, packet.WithID(1)...)
	res, _ := target.Inject(0, wire)
	if len(res.Pipelines) != 2 {
		t.Fatalf("pipelines = %v", res.Pipelines)
	}
	if x, _ := res.Output.Field("h", "x"); x != 101 {
		t.Errorf("x = %d, want 101 (egress ran)", x)
	}

	wire2 := append([]byte{2}, packet.WithID(2)...)
	res2, _ := target.Inject(0, wire2)
	if len(res2.Pipelines) != 1 {
		t.Fatalf("pipelines = %v", res2.Pipelines)
	}
	if x, _ := res2.Output.Field("h", "x"); x != 2 {
		t.Errorf("x = %d, want 2 (egress skipped)", x)
	}
}

func TestInjectBadEntry(t *testing.T) {
	prog := p4.MustParse(fwdProg)
	target, _ := Compile(prog, fwdRules(), nil)
	if _, err := target.Inject(5, nil); err == nil {
		t.Fatal("expected entry range error")
	}
}

func TestParserRejectDrops(t *testing.T) {
	prog := p4.MustParse(`
header h { bit<8> x; }
parser prs {
  state start {
    extract(h);
    transition select(h.x) {
      1: accept;
    }
  }
}
control c { apply { } }
pipeline p { parser = prs; control = c; }
`)
	target, _ := Compile(prog, nil, nil)
	res, err := target.Inject(0, append([]byte{2}, packet.WithID(1)...))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dropped {
		t.Error("unmatched select without default must reject")
	}
}

func TestFaultDescriptions(t *testing.T) {
	fs := Faults{
		SetValidNoOp{Header: "h"},
		FieldOverlap{A: "a", B: "b"},
		ChecksumSkip{Header: "h"},
		WrongCompare{},
		WrongAssign{Field: "f", Bits: 8},
		ExtractNoValidity{Header: "h"},
		TableMissDefault{Table: "t"},
	}
	descs := fs.Describe()
	if len(descs) != 7 {
		t.Fatalf("descriptions = %d", len(descs))
	}
	for i, d := range descs {
		if d == "" {
			t.Errorf("fault %d has empty description", i)
		}
	}
}

func TestTableMissDefaultFault(t *testing.T) {
	prog := p4.MustParse(fwdProg)
	target, _ := Compile(prog, fwdRules(), Faults{TableMissDefault{Table: "host"}})
	// The rule exists but the driver bug means it is not installed.
	res, _ := target.Inject(0, mkWire(t, prog, 0x0A000001, 64, 1))
	if !res.Dropped {
		t.Error("uninstalled rules must fall through to the default action")
	}
}

func TestInjectRecoversCrashWhen(t *testing.T) {
	prog := p4.MustParse(fwdProg)
	target, err := Compile(prog, fwdRules(), Faults{CrashWhen{Header: "ipv4", Field: "dstAddr", Value: 0x0A000001}})
	if err != nil {
		t.Fatal(err)
	}
	// The matching packet crashes the pipeline — recovered, not a panic.
	_, err = target.Inject(0, mkWire(t, prog, 0x0A000001, 64, 1))
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CrashError, got %v", err)
	}
	// The target keeps working for other traffic afterwards.
	res, err := target.Inject(0, mkWire(t, prog, 0x0A000002, 64, 2))
	if err != nil {
		t.Fatalf("target dead after recovered crash: %v", err)
	}
	if !res.Dropped {
		t.Error("miss traffic should still hit the default deny")
	}
}

func TestCrashOnPacketIsOneShot(t *testing.T) {
	prog := p4.MustParse(fwdProg)
	target, err := Compile(prog, fwdRules(), Faults{CrashOnPacket{N: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := target.Inject(0, mkWire(t, prog, 0x0A000001, 64, 1)); err != nil {
		t.Fatalf("packet 1: %v", err)
	}
	_, err = target.Inject(0, mkWire(t, prog, 0x0A000001, 64, 2))
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("packet 2: want *CrashError, got %v", err)
	}
	if _, err := target.Inject(0, mkWire(t, prog, 0x0A000001, 64, 3)); err != nil {
		t.Fatalf("packet 3: %v", err)
	}
}

func TestCrashFaultDescriptions(t *testing.T) {
	fs := Faults{CrashOnPacket{N: 3}, CrashWhen{Header: "ipv4", Field: "ttl", Value: 7}}
	for i, d := range fs.Describe() {
		if d == "" {
			t.Errorf("fault %d has empty description", i)
		}
	}
}
