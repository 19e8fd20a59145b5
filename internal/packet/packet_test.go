package packet

import (
	"testing"
	"testing/quick"

	"repro/internal/expr"
	"repro/internal/p4"
)

const testProg = `
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
header tcp {
  bit<16> srcPort;
  bit<16> dstPort;
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
    transition select(ipv4.protocol) {
      6: parse_tcp;
      default: accept;
    }
  }
  state parse_tcp { extract(tcp); transition accept; }
}
control c { apply { } }
pipeline p { parser = prs; control = c; }
`

func prog(t *testing.T) *p4.Program {
	t.Helper()
	pr := p4.MustParse(testProg)
	if err := p4.Check(pr); err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestMarshalParseRoundTrip(t *testing.T) {
	pr := prog(t)
	in := &Packet{
		Headers: []Header{
			{Name: "ethernet", Fields: map[string]uint64{"dstAddr": 0x0A0B0C0D0E0F, "srcAddr": 0x111213141516, "etherType": 0x0800}},
			{Name: "ipv4", Fields: map[string]uint64{"ttl": 64, "protocol": 6, "checksum": 0xBEEF, "srcAddr": 0xC0A80001, "dstAddr": 0x0A000001}},
			{Name: "tcp", Fields: map[string]uint64{"srcPort": 12345, "dstPort": 80}},
		},
		Payload: WithID(42),
	}
	wire, err := in.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	// Ethernet 14 + IPv4 12 + TCP 4 + payload 12 bytes.
	if len(wire) != 14+12+4+12 {
		t.Fatalf("wire length = %d", len(wire))
	}
	out, err := Parse(pr, "prs", wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Headers) != 3 {
		t.Fatalf("parsed %d headers, want 3", len(out.Headers))
	}
	for _, h := range in.Headers {
		for f, v := range h.Fields {
			got, ok := out.Field(h.Name, f)
			if !ok || got != v {
				t.Errorf("%s.%s = %d, want %d", h.Name, f, got, v)
			}
		}
	}
	id, ok := out.ID()
	if !ok || id != 42 {
		t.Errorf("ID = %d, %v", id, ok)
	}
}

func TestParseStopsAtNonMatchingSelect(t *testing.T) {
	pr := prog(t)
	in := &Packet{
		Headers: []Header{
			{Name: "ethernet", Fields: map[string]uint64{"etherType": 0x86dd}},
		},
		Payload: WithID(7),
	}
	wire, err := in.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Parse(pr, "prs", wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Headers) != 1 {
		t.Fatalf("parsed %d headers, want 1", len(out.Headers))
	}
	if id, ok := out.ID(); !ok || id != 7 {
		t.Errorf("payload ID lost: %d %v", id, ok)
	}
}

func TestParseTruncated(t *testing.T) {
	pr := prog(t)
	in := &Packet{
		Headers: []Header{{Name: "ethernet", Fields: map[string]uint64{"etherType": 0x0800}}},
	}
	wire, _ := in.Marshal(pr)
	// Ethernet claims IPv4 follows but the wire ends.
	if _, err := Parse(pr, "prs", wire); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestSynthesizeFollowsModel(t *testing.T) {
	pr := prog(t)
	model := expr.State{
		"hdr.ethernet.etherType": 0x0800,
		"hdr.ipv4.protocol":      6,
		"hdr.ipv4.dstAddr":       0x0A000001,
		"hdr.tcp.dstPort":        443,
	}
	pkt, err := Synthesize(pr, "prs", model, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !pkt.Has("ethernet") || !pkt.Has("ipv4") || !pkt.Has("tcp") {
		t.Fatalf("synthesized headers: %s", pkt)
	}
	if v, _ := pkt.Field("tcp", "dstPort"); v != 443 {
		t.Errorf("tcp.dstPort = %d", v)
	}
	if id, ok := pkt.ID(); !ok || id != 9 {
		t.Errorf("ID = %d %v", id, ok)
	}
}

func TestSynthesizeNonIPv4(t *testing.T) {
	pr := prog(t)
	pkt, err := Synthesize(pr, "prs", expr.State{"hdr.ethernet.etherType": 0x1234}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Has("ipv4") || pkt.Has("tcp") {
		t.Errorf("non-IPv4 packet got IP headers: %s", pkt)
	}
}

func TestBitPackingRoundTrip(t *testing.T) {
	f := func(a uint16, b uint8, c uint32) bool {
		w := &bitWriter{}
		w.write(uint64(a)&0x1ff, 9) // 9-bit
		w.write(uint64(b)&0x7, 3)   // 3-bit
		w.write(uint64(c)&0xfffff, 20)
		// Pad to byte boundary.
		w.write(0, 8-(9+3+20)%8)
		r := &bitReader{buf: w.buf}
		ra, _ := r.read(9)
		rb, _ := r.read(3)
		rc, _ := r.read(20)
		return ra == uint64(a)&0x1ff && rb == uint64(b)&0x7 && rc == uint64(c)&0xfffff
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// PutBits and ReadBits agree with a bit-at-a-time model at every offset
// and width, the whole-byte fast path included; PutBits leaves the bits
// around the field alone.
func TestBitsMatchBitAtATime(t *testing.T) {
	f := func(v uint64, fill byte) bool {
		for off := 0; off < 24; off++ {
			for width := 1; width <= 64; width++ {
				want := make([]byte, 12)
				for i := 0; i < width; i++ {
					if v>>(width-1-i)&1 == 1 {
						want[(off+i)>>3] |= 0x80 >> ((off + i) & 7)
					}
				}
				got := make([]byte, 12)
				PutBits(got, off, v, width)
				if string(got) != string(want) {
					return false
				}
				// Reading back, over neighbouring bits that are set.
				for i := range want {
					want[i] |= fill
				}
				for i := 0; i < width; i++ {
					want[(off+i)>>3] &^= 0x80 >> ((off + i) & 7)
				}
				PutBits(want, off, v, width)
				if ReadBits(want, off, width) != v&(^uint64(0)>>(64-width)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromStateEmitsValidHeadersInOrder(t *testing.T) {
	pr := prog(t)
	st := expr.State{
		"valid$ethernet":         1,
		"valid$tcp":              1,
		"hdr.ethernet.etherType": 0x0800,
		"hdr.tcp.srcPort":        99,
	}
	pkt := FromState(pr, st, WithID(3))
	if len(pkt.Headers) != 2 {
		t.Fatalf("headers = %d, want 2", len(pkt.Headers))
	}
	if pkt.Headers[0].Name != "ethernet" || pkt.Headers[1].Name != "tcp" {
		t.Errorf("order: %s", pkt)
	}
}

func TestToState(t *testing.T) {
	pkt := &Packet{Headers: []Header{{Name: "tcp", Fields: map[string]uint64{"srcPort": 7}}}}
	st := expr.State{}
	pkt.ToState(st)
	if st["valid$tcp"] != 1 || st["hdr.tcp.srcPort"] != 7 {
		t.Errorf("state = %v", st)
	}
}

func TestIDHelpers(t *testing.T) {
	p := &Packet{Payload: WithID(123456)}
	id, ok := p.ID()
	if !ok || id != 123456 {
		t.Fatalf("ID = %d %v", id, ok)
	}
	if _, ok := (&Packet{Payload: []byte{1, 2}}).ID(); ok {
		t.Error("short payload must not yield an ID")
	}
	if _, ok := (&Packet{Payload: make([]byte, 16)}).ID(); ok {
		t.Error("payload without magic must not yield an ID")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := &Packet{Headers: []Header{{Name: "x", Fields: map[string]uint64{"f": 1}}}, Payload: []byte{1}}
	c := p.Clone()
	c.Headers[0].Fields["f"] = 2
	c.Payload[0] = 9
	if p.Headers[0].Fields["f"] != 1 || p.Payload[0] != 1 {
		t.Error("Clone must not alias")
	}
}
