package switchsim_test

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	meissa "repro"
	"repro/internal/bugs"
	"repro/internal/driver"
	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/programs"
	"repro/internal/rules"
	"repro/internal/switchsim"
)

// wirePacket is one packet of a differential stream.
type wirePacket struct {
	entry int
	wire  []byte
}

// suite generates the program's templates and concretizes each into the
// packet the driver would send.
func suite(t testing.TB, p *programs.Program) []wirePacket {
	t.Helper()
	opts := meissa.DefaultOptions()
	opts.Parallelism = 1
	sys, err := meissa.New(p.Prog, p.Rules, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := sys.Generate()
	if err != nil {
		t.Fatal(err)
	}
	d := driver.New(p.Prog, gen.Graph, nil, nil)
	var out []wirePacket
	for i, tpl := range gen.Templates {
		c, err := d.Concretize(tpl, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if c.SkipReason == "" {
			out = append(out, wirePacket{c.Entry, c.Wire})
		}
	}
	return out
}

// engines is the lowered program twice — one target traced, one quiet,
// since a packet may run only once on a register file — and the
// reference they must both agree with. The quiet target appends to buf
// behind a prefix, over stale bytes from the packets before.
type engines struct {
	traced, quiet *switchsim.Target
	ref           *switchsim.Reference
	buf           []byte
}

var quietPrefix = []byte("prefix")

func compileAll(t testing.TB, p *programs.Program, faults switchsim.Faults) *engines {
	t.Helper()
	e := &engines{ref: switchsim.NewReference(p.Prog, p.Rules, faults)}
	var err error
	if e.traced, err = switchsim.Compile(p.Prog, p.Rules, faults); err != nil {
		t.Fatal(err)
	}
	if e.quiet, err = switchsim.Compile(p.Prog, p.Rules, faults); err != nil {
		t.Fatal(err)
	}
	return e
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// step runs one packet through all three engines and returns the first
// difference found, or "".
func (e *engines) step(prog *p4.Program, pkt wirePacket) string {
	want, wantErr := e.ref.Inject(pkt.entry, pkt.wire)
	got, gotErr := e.traced.Inject(pkt.entry, pkt.wire)
	e.buf = e.buf[:cap(e.buf)]
	for i := range e.buf {
		e.buf[i] = 0xa5
	}
	e.buf = append(e.buf[:0], quietPrefix...)
	quiet, quietDropped, quietErr := e.quiet.InjectQuietAppend(e.buf, pkt.entry, pkt.wire)
	e.buf = quiet
	if errText(gotErr) != errText(wantErr) {
		return fmt.Sprintf("Inject error %q, reference %q", errText(gotErr), errText(wantErr))
	}
	var wantWire []byte
	if wantErr == nil && !want.Dropped {
		var merr error
		if wantWire, merr = want.Output.Marshal(prog); merr != nil {
			wantErr = merr // the quiet path reports what marshaling would
		}
	}
	if errText(quietErr) != errText(wantErr) {
		return fmt.Sprintf("InjectQuietAppend error %q, reference %q", errText(quietErr), errText(wantErr))
	}
	if want == nil {
		if got != nil {
			return "a result beside an error"
		}
		return ""
	}
	if got.Dropped != want.Dropped {
		return fmt.Sprintf("Inject dropped=%v, reference %v", got.Dropped, want.Dropped)
	}
	if !slices.Equal(got.Trace, want.Trace) {
		return fmt.Sprintf("trace:\n%s\nreference:\n%s", strings.Join(got.Trace, "\n"), strings.Join(want.Trace, "\n"))
	}
	if !slices.Equal(got.Pipelines, want.Pipelines) {
		return fmt.Sprintf("pipelines %v, reference %v", got.Pipelines, want.Pipelines)
	}
	if !maps.Equal(got.Final, want.Final) {
		return fmt.Sprintf("final state %v, reference %v", got.Final, want.Final)
	}
	if !want.Dropped {
		gotWire, err := got.Output.Marshal(prog)
		if err != nil || !bytes.Equal(gotWire, wantWire) {
			return fmt.Sprintf("Inject output %x (%v), reference %x", gotWire, err, wantWire)
		}
	}
	if !bytes.HasPrefix(quiet, quietPrefix) {
		return fmt.Sprintf("InjectQuietAppend overwrote what it appends to: %x", quiet)
	}
	if quietWire := quiet[len(quietPrefix):]; quietErr == nil && (quietDropped != want.Dropped || !bytes.Equal(quietWire, wantWire)) {
		return fmt.Sprintf("InjectQuietAppend dropped=%v wire %x, reference dropped=%v wire %x", quietDropped, quietWire, want.Dropped, wantWire)
	} else if (quietErr != nil || quietDropped) && len(quietWire) != 0 {
		return fmt.Sprintf("InjectQuietAppend appended %x to a dropped or failed packet", quietWire)
	}
	if regs := e.ref.Registers(); !maps.Equal(e.traced.Registers(), nonzero(regs)) || !maps.Equal(e.quiet.Registers(), nonzero(regs)) {
		return fmt.Sprintf("registers traced %v quiet %v, reference %v", e.traced.Registers(), e.quiet.Registers(), regs)
	}
	return ""
}

func nonzero[K comparable](m map[K]uint64) map[K]uint64 {
	out := map[K]uint64{}
	for k, v := range m {
		if v != 0 {
			out[k] = v
		}
	}
	return out
}

// stream runs the packets in order through one set of engines (register
// state persists, so order matters) and fails on the first difference.
func stream(t *testing.T, p *programs.Program, faults switchsim.Faults, pkts []wirePacket) *engines {
	t.Helper()
	e := compileAll(t, p, faults)
	for i, pkt := range pkts {
		if diff := e.step(p.Prog, pkt); diff != "" {
			t.Fatalf("%s, faults %v, packet %d (entry %d, wire %x): %s", p.Name, faults.Describe(), i, pkt.entry, pkt.wire, diff)
		}
	}
	applies, probes := e.ref.Counts()
	for _, tgt := range []*switchsim.Target{e.traced, e.quiet} {
		st := tgt.Stats()
		var a, pr, hits, defaults uint64
		for _, ts := range st.Tables {
			a, pr, hits, defaults = a+ts.Applies, pr+ts.Probes, hits+ts.Hits, defaults+ts.Defaults
		}
		if a != applies || pr != probes || hits+defaults != a {
			t.Fatalf("%s, faults %v: %d applies (%d hits + %d defaults), %d probes; reference %d applies, %d probes",
				p.Name, faults.Describe(), a, hits, defaults, pr, applies, probes)
		}
		if st.Packets != uint64(len(pkts)) || st.Instructions == 0 {
			t.Fatalf("%s: stats %+v after %d packets", p.Name, st, len(pkts))
		}
	}
	return e
}

// faultSets is every fault class aimed at the program — the Table 2
// scenarios' fault sets as they are, and the classes no scenario uses
// pointed at the program's own first table, checksum and header — plus
// none at all.
func faultSets(prog *p4.Program) []switchsim.Faults {
	sets := []switchsim.Faults{nil}
	seen := map[string]bool{}
	for _, s := range bugs.Scenarios() {
		if key := fmt.Sprint(s.Faults.Describe()); len(s.Faults) > 0 && !seen[key] {
			seen[key] = true
			sets = append(sets, s.Faults)
		}
	}
	sets = append(sets, switchsim.Faults{switchsim.CrashOnPacket{N: 2}})
	if len(prog.Tables) > 0 {
		sets = append(sets, switchsim.Faults{switchsim.TableMissDefault{Table: prog.Tables[0].Name}})
	}
	for _, h := range prog.Headers {
		if h.Field("checksum") != nil {
			sets = append(sets, switchsim.Faults{switchsim.ChecksumSkip{Header: h.Name}})
			break
		}
	}
	h := prog.Headers[0]
	sets = append(sets,
		switchsim.Faults{switchsim.CrashWhen{Header: h.Name, Field: h.Fields[len(h.Fields)-1].Name, Value: 0x0800}},
		switchsim.Faults{switchsim.SetValidNoOp{Header: h.Name}, switchsim.ExtractNoValidity{Header: h.Name},
			switchsim.FieldOverlap{A: "hdr." + h.Name + "." + h.Fields[0].Name, B: "hdr." + h.Name + "." + h.Fields[1].Name},
			switchsim.WrongAssign{Field: "hdr." + h.Name + "." + h.Fields[0].Name, Bits: 3}})
	return sets
}

// TestCompiledMatchesReference is the gate for the lowered engine: on
// every corpus program's suite under every fault class, and on every
// Table 2 scenario, the lowered program and the tree-walking reference
// agree packet by packet on the output bytes, the drop, the error, the
// trace, the pipelines, the final state and the register file — and the
// table work they count is the same.
func TestCompiledMatchesReference(t *testing.T) {
	for _, p := range programs.All() {
		if p.Name == "gw-4" {
			continue // TestGW4CountsPinned streams it
		}
		pkts := suite(t, p)
		if len(pkts) == 0 {
			t.Fatalf("%s: empty suite", p.Name)
		}
		for _, faults := range faultSets(p.Prog) {
			stream(t, p, faults, pkts)
		}
	}
	for _, s := range bugs.Scenarios() {
		p := &programs.Program{Name: s.Name, Prog: s.Prog, Rules: s.Rules}
		stream(t, p, s.Faults, suite(t, p))
	}
}

// TestGW4CountsPinned streams the gw-4/set-4 suite through both engines
// and pins its table work. The counts are properties of the program, the
// rules and the suite, not of the engine that does the work: they are the
// figures the driver's attribution rests on.
func TestGW4CountsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("gw-4 generation")
	}
	p := programs.GW(4, programs.Set4)
	pkts := suite(t, p)
	e := stream(t, p, nil, pkts)
	applies, probes := e.ref.Counts()
	if len(pkts) != 4668 || applies != 55394 || probes != 1110936 {
		t.Fatalf("gw-4/set-4: %d packets, %d applies, %d probes; want 4668, 55394, 1110936", len(pkts), applies, probes)
	}
	st := e.quiet.Stats()
	t.Logf("gw-4/set-4 suite: %d packets, %d instructions (%.1f/packet), %d drops",
		st.Packets, st.Instructions, float64(st.Instructions)/float64(st.Packets), st.Drops)
}

// FuzzCompiledMatchesReference mutates wire bytes and the entry index of
// the Router and gw-1 suites, so parser rejects, truncated extracts and
// out-of-range entries are compared too.
func FuzzCompiledMatchesReference(f *testing.F) {
	// Neither program keeps registers and no fault counts packets, so one
	// set of engines per program serves every input: a packet's outcome
	// does not depend on the ones before it.
	progs := []*programs.Program{programs.Router(), programs.GW(1, programs.Set1)}
	engs := make([]*engines, len(progs))
	for which, p := range progs {
		engs[which] = compileAll(f, p, nil)
		for _, pkt := range suite(f, p) {
			f.Add(which, pkt.entry, pkt.wire)
		}
	}
	f.Fuzz(func(t *testing.T, which, entry int, wire []byte) {
		which = int(uint(which) % uint(len(progs)))
		p, e := progs[which], engs[which]
		if diff := e.step(p.Prog, wirePacket{entry, wire}); diff != "" {
			t.Fatalf("%s entry %d wire %x: %s", p.Name, entry, wire, diff)
		}
	})
}

// TestInjectSteadyStateAllocs gates the quiet path's allocations without
// reading a clock: on a warmed gw-1 target, appending into a buffer that
// has room, a packet allocates nothing — not per instruction, probe,
// parameter or output byte. InjectQuietWire, the wrapper that gives each
// packet a Result and a wire of its own, allocates those two at most.
func TestInjectSteadyStateAllocs(t *testing.T) {
	p := programs.GW(1, programs.Set1)
	pkts := suite(t, p)
	target, err := switchsim.Compile(p.Prog, p.Rules, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	appendAll := func() {
		buf = buf[:0]
		for _, pkt := range pkts {
			var err error
			if buf, _, err = target.InjectQuietAppend(buf, pkt.entry, pkt.wire); err != nil {
				t.Fatal(err)
			}
		}
	}
	wrapped := func() {
		for _, pkt := range pkts {
			if _, err := target.InjectQuietWire(pkt.entry, pkt.wire); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendAll() // scratch buffers and buf reach their working size
	wrapped()
	perPacket := testing.AllocsPerRun(20, appendAll) / float64(len(pkts))
	t.Logf("gw-1 quiet inject: %.2f allocs/packet appending over %d packets", perPacket, len(pkts))
	if perPacket != 0 {
		t.Fatalf("InjectQuietAppend allocates %.2f objects a packet in steady state, want 0", perPacket)
	}
	if perPacket = testing.AllocsPerRun(20, wrapped) / float64(len(pkts)); perPacket > 2 {
		t.Fatalf("InjectQuietWire allocates %.2f objects a packet in steady state, want <= 2 (Result and wire)", perPacket)
	}
}

// BenchmarkInjectGW4 reports what one gw-4/set-4 packet costs the lowered
// engine, appending into one reused buffer as the loopback does:
// ns/packet, and the instruction and probe counts behind it.
func BenchmarkInjectGW4(b *testing.B) {
	p := programs.GW(4, programs.Set4)
	pkts := suite(b, p)
	target, err := switchsim.Compile(p.Prog, p.Rules, nil)
	if err != nil {
		b.Fatal(err)
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pkt := range pkts {
			if buf, _, err = target.InjectQuietAppend(buf[:0], pkt.entry, pkt.wire); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	st := target.Stats()
	var probes uint64
	for _, ts := range st.Tables {
		probes += ts.Probes
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.Packets), "ns/packet")
	b.ReportMetric(float64(st.Instructions)/float64(st.Packets), "instr/packet")
	b.ReportMetric(float64(probes)/float64(st.Packets), "probes/packet")
}

// everyConstruct uses what the corpus suites leave cold: || and ! in
// conditions and guards, every arithmetic operator at mixed widths,
// actions calling actions with parameters, a default action with
// arguments, hash, checksum, registers, setInvalid, a select without a
// default, parser assignments, and exact, ternary, LPM and range rows
// under priorities.
const everyConstruct = `
header eth { bit<48> dst; bit<48> src; bit<16> type; }
header ip { bit<4> ver; bit<4> ihl; bit<8> ttl; bit<16> checksum; bit<32> src; bit<32> dst; }
header opt { bit<3> a; bit<5> b; bit<8> c; }
metadata { bit<9> port; bit<16> h16; bit<4> nib; bit<64> wide; bit<16> cnt; bit<8> small; }
register bit<16> counters[4];
register bit<4> nibbles[2];
parser prs {
  state start {
    extract(eth);
    meta.nib = 3;
    transition select(eth.type) { 0x0800: parse_ip; 0x0801: parse_opt; default: accept; }
  }
  state parse_ip {
    extract(ip);
    transition select(ip.ver, ip.ihl) { (4, 6): parse_opt; (4, 5): accept; }
  }
  state parse_opt { extract(opt); meta.h16 = opt.c + 1; meta.small = 300; transition accept; }
}
action set_port(bit<9> p) { meta.port = p; }
action bump(bit<4> n) { meta.nib = meta.nib + n + 12; ip.ttl = ip.ttl - 1; }
action widen(bit<4> n) { meta.wide = n; meta.cnt = ~opt.a; }
action nested(bit<16> v, bit<4> n) {
  meta.h16 = v + 1;
  set_port(v + n);
  widen(v);
  if (n > 2 || v == 7) { bump(n); } else { bump(n + 1); }
}
action deny() { mark_drop(); meta.port = 1; }
action mix(bit<32> k) {
  meta.wide = (ip.src * k) ^ (ip.dst << 3) | (k >> 1);
  meta.wide = meta.wide - 1;
  opt.b = ~opt.a & 7;
  meta.small = meta.wide >> 70;
  meta.cnt = (meta.h16 << 64) + (opt.c << 4);
  hash(meta.h16, ip.src, ip.dst, k, opt.c + 1);
}
action count(bit<16> step) {
  meta.cnt = reg_read(counters, 2);
  reg_write(counters, 2, meta.cnt + step);
  meta.nib = reg_read(nibbles, 1);
  reg_write(nibbles, 1, meta.nib + 7);
}
table route {
  key = { ip.dst : lpm; ip.ttl : range; }
  actions = { nested; deny; set_port; }
  default_action = nested(meta.h16 + 2, 1);
}
table acl {
  key = { ip.src : ternary; eth.type : exact; opt.c : range; }
  actions = { mix; deny; count; NoAction; }
}
table bare { key = { meta.port : exact; } actions = { count; } default_action = count(3); }
control ing {
  apply {
    if (ip.isValid() && (ip.ttl > 1 || !(eth.dst == 0))) {
      route.apply();
      if (!opt.isValid() && meta.port < 256) { setValid(opt); opt.c = meta.port; } else if (meta.nib >= 9) { setInvalid(opt); }
      acl.apply();
      update_checksum(ip, checksum);
    } else {
      if (eth.type != 0x0801) { mark_drop(); }
      meta.port = 5;
    }
    bare.apply();
  }
}
control eg { apply { if (meta.port == 5 || meta.cnt > 100) { eth.src = eth.dst; } count(1); } }
control last { apply { ip.ttl = ip.ttl + meta.nib; } }
pipeline ig { parser = prs; control = ing; }
pipeline mid { control = eg; kind = egress; }
pipeline out { control = last; kind = egress; }
topology {
  entry ig;
  ig -> mid when meta.port < 64 || meta.nib == 0;
  ig -> out when !(meta.port > 300);
  mid -> out when meta.cnt < 5 && ip.isValid();
  mid -> exit when eth.type == 0x0800;
  out -> exit;
}
`

const everyConstructRules = `
table route {
  priority=5 ip.dst=10.0.0.0/8 ip.ttl=2..200 -> nested(7, 3);
  priority=9 ip.dst=10.1.0.0/16 -> nested(600, 15);
  ip.dst=0.0.0.0/0 ip.ttl=0..1 -> deny();
  priority=1 ip.dst=192.168.0.0/32 -> set_port(511);
}
table acl {
  priority=2 ip.src=0x0a000000&&&0xff000000 eth.type=0x0800 -> mix(0x9e3779b9);
  priority=2 eth.type=0x0800 opt.c=10..20 -> count(65535);
  priority=7 ip.src=1&&&1 eth.type=0x0800 opt.c=0..255 -> NoAction();
  eth.type=0x0800 -> deny();
}
`

// randomPackets draws wires that reach every parser state, some cut
// short, with addresses biased towards what the rules match.
func randomPackets(n int, seed int64) []wirePacket {
	rng := rand.New(rand.NewSource(seed))
	pick := func(vs ...uint64) uint64 { return vs[rng.Intn(len(vs))] }
	var out []wirePacket
	for i := 0; i < n; i++ {
		eth := &packet.Header{Name: "eth", Fields: map[string]uint64{
			"dst": pick(0, rng.Uint64()), "src": rng.Uint64(), "type": pick(0x0800, 0x0800, 0x0801, 0x86dd)}}
		ip := &packet.Header{Name: "ip", Fields: map[string]uint64{
			"ver": pick(4, 4, 4, 6), "ihl": pick(5, 6, 7), "ttl": pick(0, 1, 2, 64, 255), "checksum": rng.Uint64(),
			"src": pick(0x0a000001, 0x0a0000fe, rng.Uint64()), "dst": pick(0x0a000001, 0x0a010203, 0xc0a80001, rng.Uint64())}}
		opt := &packet.Header{Name: "opt", Fields: map[string]uint64{"a": rng.Uint64(), "b": rng.Uint64(), "c": pick(0, 15, rng.Uint64())}}
		pkt := &packet.Packet{Headers: []packet.Header{*eth, *ip, *opt}, Payload: packet.WithID(uint64(i + 1))}
		wire, err := pkt.Marshal(p4.MustParse(everyConstruct))
		if err != nil {
			panic(err)
		}
		if eth.Fields["type"] == 0x0801 { // opt follows eth directly
			wire = append(wire[:14], wire[26:]...)
		}
		if rng.Intn(8) == 0 {
			wire = wire[:rng.Intn(len(wire))]
		}
		out = append(out, wirePacket{0, wire})
	}
	return out
}

// TestCompiledMatchesReferenceOnEveryConstruct streams random packets
// through a program written to use every construct, under no fault and
// under all of them at once.
func TestCompiledMatchesReferenceOnEveryConstruct(t *testing.T) {
	p := &programs.Program{Name: "every-construct", Prog: p4.MustParse(everyConstruct), Rules: rules.MustParse(everyConstructRules)}
	pkts := randomPackets(4000, 1)
	all := switchsim.Faults{
		switchsim.WrongCompare{}, switchsim.SetValidNoOp{Header: "opt"}, switchsim.ChecksumSkip{Header: "ip"},
		switchsim.WrongAssign{Field: "meta.h16", Bits: 5}, switchsim.WrongAssign{Field: "hdr.ip.ttl", Bits: 0},
		switchsim.WrongAssign{Field: "meta.nib", Bits: 12},
		switchsim.FieldOverlap{A: "meta.wide", B: "hdr.opt.a"}, switchsim.FieldOverlap{A: "hdr.ip.checksum", B: "meta.small"},
		switchsim.FieldOverlap{A: "meta.cnt", B: "hdr.eth.src"}, switchsim.FieldOverlap{A: "meta.nib", B: "hdr.nope.x"},
		switchsim.ExtractNoValidity{Header: "opt"}, switchsim.TableMissDefault{Table: "bare"},
		switchsim.CrashOnPacket{N: 17}, switchsim.CrashOnPacket{N: 18}, switchsim.CrashWhen{Header: "ip", Field: "ttl", Value: 255},
		switchsim.CrashWhen{Header: "nope", Field: "x", Value: 0},
	}
	for _, faults := range []switchsim.Faults{nil, all, all[:1], all[3:10]} {
		e := stream(t, p, faults, pkts)
		st := e.quiet.Stats()
		if st.Drops == 0 || st.Drops == st.Packets || len(e.ref.Registers()) == 0 {
			t.Fatalf("faults %v: %d drops of %d packets, registers %v: the stream is not exercising the program", faults.Describe(), st.Drops, st.Packets, e.ref.Registers())
		}
	}
}
