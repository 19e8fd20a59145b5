package packet

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/p4"
	"repro/internal/programs"
)

// twiceProg extracts header a in two states. The select after the second
// extract reads a.x, which is the first instance's value (what
// Packet.Field returns), so [1, 7, 9] walks start → again → more.
const twiceProg = `
header a { bit<8> x; }
header b { bit<8> y; }
parser prs {
  state start {
    extract(a);
    transition select(a.x) { 1: again; default: accept; }
  }
  state again {
    extract(b);
    extract(a);
    transition select(a.x) { 1: more; default: reject; }
  }
  state more { extract(b); transition accept; }
}
control c { apply { } }
pipeline p { parser = prs; control = c; }
`

// oddProg reaches each of Parse's other errors by its first byte: 1 loops
// forever, 2 names an undeclared state, 3 and 4 select on fields no
// extract sets, 5 falls off a select with no default.
const oddProg = `
header a { bit<8> x; }
header b { bit<8> y; }
parser prs {
  state start {
    extract(a);
    transition select(a.x) { 1: loop; 2: nowhere; 3: early; 4: meta_sel; 5: nodefault; default: accept; }
  }
  state loop { transition loop; }
  state early { transition select(b.y) { default: accept; } }
  state meta_sel { transition select(meta.z) { default: accept; } }
  state nodefault { extract(b); transition select(b.y) { 0: accept; } }
}
control c { apply { } }
pipeline p { parser = prs; control = c; }
`

type decodeTarget struct {
	prog   *p4.Program
	parser string
}

// decodeTargets is every parser of the corpus programs the decoder must
// agree with the reference on, plus twiceProg's and oddProg's.
func decodeTargets(t testing.TB) []decodeTarget {
	t.Helper()
	progs := []*p4.Program{p4.MustParse(twiceProg), p4.MustParse(oddProg)}
	for _, p := range []*programs.Program{programs.Router(), programs.MTag(), programs.ACL(), programs.SwitchP4()} {
		progs = append(progs, p.Prog)
	}
	for n := 1; n <= 4; n++ {
		progs = append(progs, programs.GW(n, programs.Set1).Prog)
	}
	var out []decodeTarget
	for _, pr := range progs {
		for _, pd := range pr.Parsers {
			out = append(out, decodeTarget{pr, pd.Name})
		}
	}
	return out
}

// walkWire synthesizes a wire that follows a random path through the
// parser: each select picks a random case (or, one time in four, the
// default) by pinning its fields in the model.
func walkWire(tg decodeTarget, rng *rand.Rand) []byte {
	pd := tg.prog.Parser(tg.parser)
	vt := p4.Vars(tg.prog)
	model := expr.State{}
	state := "start"
	for steps := 0; steps < 64; steps++ {
		st := pd.State(state)
		if st == nil {
			break
		}
		tr := st.Transition
		state = tr.Default
		if len(tr.Cases) > 0 && rng.Intn(4) != 0 {
			c := tr.Cases[rng.Intn(len(tr.Cases))]
			for i, ref := range tr.Select {
				if len(ref.Parts) == 2 {
					model[vt.Field(ref.Parts[0], ref.Parts[1])] = c.Values[i]
				}
			}
			state = c.Next
		}
	}
	pkt, err := Synthesize(tg.prog, tg.parser, model, rng.Uint64())
	if err != nil {
		return nil
	}
	wire, err := pkt.Marshal(tg.prog)
	if err != nil {
		return nil
	}
	return wire
}

// checkDecode holds Parse, and Decode on a reused dirty slot vector, to
// the reference walk: the same Packet and the same error text.
func checkDecode(t *testing.T, tg decodeTarget, wire []byte) {
	t.Helper()
	want, wantErr := parseReference(tg.prog, tg.parser, wire)
	got, gotErr := Parse(tg.prog, tg.parser, wire)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s/%s %x: error %v, reference %v", tg.prog.Name, tg.parser, wire, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s/%s %x: packet\n%+v\nreference\n%+v", tg.prog.Name, tg.parser, wire, got, want)
	}

	dc, err := NewDecoder(tg.prog, tg.parser)
	if err != nil {
		t.Fatal(err)
	}
	slots := make([]uint64, dc.nslots)
	for i := range slots {
		slots[i] = 0xdead // a previous capture's leftovers
	}
	prefix := []int{-1}
	order, payload, err := dc.Decode(wire, slots, prefix)
	if !slices.Equal(order[:1], prefix) || (err != nil && len(order) != 1) {
		t.Fatalf("%s/%s %x: order %v does not extend %v", tg.prog.Name, tg.parser, wire, order, prefix)
	}
	if err != nil {
		return
	}
	if pkt := dc.Packet(wire, slots, order[1:], payload); !reflect.DeepEqual(pkt, want) {
		t.Fatalf("%s/%s %x: packet from dirty slots\n%+v\nreference\n%+v", tg.prog.Name, tg.parser, wire, pkt, want)
	}
}

// FuzzDecodeMatchesParse runs fuzzer-mutated wires through every corpus
// parser. Seeds are wires that walk random parser paths, and truncations
// of them.
func FuzzDecodeMatchesParse(f *testing.F) {
	targets := decodeTargets(f)
	rng := rand.New(rand.NewSource(1))
	for i, tg := range targets {
		for k := 0; k < 4; k++ {
			wire := walkWire(tg, rng)
			f.Add(uint16(i), wire)
			if len(wire) > 0 {
				f.Add(uint16(i), wire[:rng.Intn(len(wire))])
			}
		}
	}
	f.Fuzz(func(t *testing.T, which uint16, wire []byte) {
		checkDecode(t, targets[int(which)%len(targets)], wire)
	})
}

// TestDecodeRepeatedHeader pins twiceProg: the slots and the select read
// a's first instance, order and the Packet list both instances, and the
// second instance keeps its own value in the Packet.
func TestDecodeRepeatedHeader(t *testing.T) {
	pr := p4.MustParse(twiceProg)
	dc, err := NewDecoder(pr, "prs")
	if err != nil {
		t.Fatal(err)
	}
	vt := p4.Vars(pr)
	ax, _ := vt.FieldSlot("a", "x")
	by, _ := vt.FieldSlot("b", "y")
	wire := append([]byte{1, 7, 9, 5}, WithID(3)...)
	slots := make([]uint64, dc.nslots)
	order, payload, err := dc.Decode(wire, slots, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []int{0, 1, 0, 1}) || slots[ax] != 1 || slots[by] != 7 {
		t.Fatalf("order %v, a.x=%d b.y=%d; want [0 1 0 1], 1, 7", order, slots[ax], slots[by])
	}
	if id, ok := PayloadID(payload); !ok || id != 3 {
		t.Fatalf("payload %x", payload)
	}
	pkt, err := Parse(pr, "prs", wire)
	if err != nil {
		t.Fatal(err)
	}
	want := []Header{
		{Name: "a", Fields: map[string]uint64{"x": 1}},
		{Name: "b", Fields: map[string]uint64{"y": 7}},
		{Name: "a", Fields: map[string]uint64{"x": 9}},
		{Name: "b", Fields: map[string]uint64{"y": 5}},
	}
	if !reflect.DeepEqual(pkt.Headers, want) {
		t.Fatalf("headers %+v, want %+v", pkt.Headers, want)
	}
	if v, _ := pkt.Field("a", "x"); v != 1 {
		t.Fatalf("Field(a, x) = %d, want the first instance's 1", v)
	}
	// The select reads the first a.x, not the second: [1, 7, 9] goes to
	// more, not reject, and the wire then ends inside b.
	if _, err := Parse(pr, "prs", []byte{1, 7, 9}); err == nil || err.Error() != "packet: extracting b.y: packet: truncated at bit 24" {
		t.Fatalf("err = %v", err)
	}
	// A first a.x other than 1 accepts at once.
	if pkt, err := Parse(pr, "prs", []byte{2, 7}); err != nil || len(pkt.Headers) != 1 {
		t.Fatalf("pkt %v err %v", pkt, err)
	}
}

// TestDecodeErrorsMatchReference holds each of Parse's error texts to
// the reference.
func TestDecodeErrorsMatchReference(t *testing.T) {
	twice := decodeTarget{p4.MustParse(twiceProg), "prs"}
	odd := decodeTarget{p4.MustParse(oddProg), "prs"}
	plain := decodeTarget{prog(t), "prs"}
	for _, c := range []struct {
		tg   decodeTarget
		wire []byte
	}{
		{odd, []byte{1}},           // did not terminate
		{odd, []byte{2}},           // state missing
		{odd, []byte{3}},           // select on a header not extracted
		{odd, []byte{4}},           // select on metadata
		{odd, []byte{5, 1}},        // no case, no default: state "" missing
		{odd, []byte{5, 0, 9}},     // accept with a payload
		{twice, nil},               // truncated in the first header
		{twice, []byte{1, 2, 3}},   // select falls to default: reject
		{twice, []byte{1, 2, 1}},   // truncated in the second b
		{plain, []byte{0, 0, 0}},   // truncated mid-field
		{plain, make([]byte, 200)}, // accept with a payload
	} {
		checkDecode(t, c.tg, c.wire)
	}
	if _, err := Parse(plain.prog, "nope", nil); err == nil || err.Error() != `packet: unknown parser "nope"` {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeErrorTexts(t *testing.T) {
	pr := p4.MustParse(oddProg)
	for first, want := range map[byte]string{
		1: "packet: parser did not terminate",
		2: `packet: parser state "nowhere" missing`,
		3: "packet: select on unextracted field b.y",
		4: "packet: select on unextracted field meta.z",
	} {
		if _, err := Parse(pr, "prs", []byte{first}); err == nil || err.Error() != want {
			t.Errorf("first byte %d: err = %v, want %q", first, err, want)
		}
	}
}
