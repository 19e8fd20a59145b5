package packet

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/p4"
)

// Decoder is a parser state machine lowered once for decoding captures
// into p4.VarTable slots: each state is a list of headers to extract, the
// slots its select reads and its cases, with every next state resolved to
// an index. Decode then runs with no name lookups and no maps.
type Decoder struct {
	headers []decHeader // indexed like Program.Headers
	states  []decState
	start   int // next-state code of "start"
	nslots  int // p4.VarTable.HeaderSlots
}

// A next-state code is an index into states, or one of these.
const (
	stAccept = -1
	stReject = -2
)

type decHeader struct {
	name   string
	valid  int // validity slot
	bits   int // total width
	fields []decField
}

type decField struct {
	name  string
	slot  int
	width int
}

type decState struct {
	name     string
	missing  bool  // referenced but not declared: reaching it is an error
	extracts []int // header indexes, in body order
	sel      []decSel
	cases    []decCase
	def      int
}

// decSel is one select operand: the field's slot and its header's validity
// slot, or valid < 0 for a reference no extract can satisfy (metadata,
// undeclared names).
type decSel struct {
	ref         *p4.FieldRef
	valid, slot int
}

type decCase struct {
	values []uint64
	next   int
}

var (
	errRejected     = errors.New("packet: parser rejected")
	errNotTerminate = errors.New("packet: parser did not terminate")
)

// NewDecoder lowers the named parser of prog.
func NewDecoder(prog *p4.Program, parserName string) (*Decoder, error) {
	pd := prog.Parser(parserName)
	if pd == nil {
		return nil, fmt.Errorf("packet: unknown parser %q", parserName)
	}
	vt := p4.Vars(prog)
	dc := &Decoder{headers: make([]decHeader, len(prog.Headers)), nslots: vt.HeaderSlots()}
	index := make(map[string]int, len(prog.Headers))
	for i, hd := range prog.Headers {
		if _, dup := index[hd.Name]; !dup {
			index[hd.Name] = i
		}
		h := decHeader{name: hd.Name}
		h.valid, _ = vt.ValidSlot(hd.Name)
		for _, f := range hd.Fields {
			s, _ := vt.FieldSlot(hd.Name, f.Name)
			h.fields = append(h.fields, decField{name: f.Name, slot: s, width: f.Width})
			h.bits += f.Width
		}
		dc.headers[i] = h
	}

	codes := map[string]int{}
	var err error
	var resolve func(name string) int
	resolve = func(name string) int {
		switch name {
		case "accept":
			return stAccept
		case "reject":
			return stReject
		}
		if c, ok := codes[name]; ok {
			return c
		}
		c := len(dc.states)
		codes[name] = c
		dc.states = append(dc.states, decState{name: name})
		ps := pd.State(name)
		if ps == nil {
			dc.states[c].missing = true
			return c
		}
		st := decState{name: name}
		for _, s := range ps.Body {
			if ex, ok := s.(*p4.ExtractStmt); ok {
				hi, ok := index[ex.Header]
				if !ok {
					err = fmt.Errorf("packet: parser %q extracts undeclared header %q", parserName, ex.Header)
					continue
				}
				st.extracts = append(st.extracts, hi)
			}
		}
		tr := ps.Transition
		for _, ref := range tr.Select {
			sel := decSel{ref: ref, valid: -1}
			if hi, ok := index[refHeader(ref)]; ok {
				if s, ok := vt.FieldSlot(ref.Parts[0], ref.Parts[1]); ok {
					sel.valid, sel.slot = dc.headers[hi].valid, s
				}
			}
			st.sel = append(st.sel, sel)
		}
		st.def = resolve(tr.Default)
		for _, tc := range tr.Cases {
			st.cases = append(st.cases, decCase{values: tc.Values, next: resolve(tc.Next)})
		}
		dc.states[c] = st
		return c
	}
	dc.start = resolve("start")
	if err != nil {
		return nil, err
	}
	return dc, nil
}

// refHeader is the header a two-part reference names, "" otherwise.
func refHeader(ref *p4.FieldRef) string {
	if len(ref.Parts) != 2 {
		return ""
	}
	return ref.Parts[0]
}

// Decode runs the parser over a wire packet. It clears every header's
// validity slot, then for each extract sets the header's validity bit and
// its field slots, and appends the header's index (into Program.Headers)
// to order. A header extracted twice keeps its first instance in the
// slots — what Packet.Field and a select read — and appears in order once
// per instance. Field slots of headers not extracted keep stale values.
// It returns order and the payload, a subslice of wire (nil when empty).
// On error order comes back as it came in; the errors are Parse's.
func (dc *Decoder) Decode(wire []byte, slots []uint64, order []int) ([]int, []byte, error) {
	for i := range dc.headers {
		slots[dc.headers[i].valid] = 0
	}
	n0 := len(order)
	total := len(wire) * 8
	off := 0
	cur := dc.start
	for steps := 0; steps < 1000; steps++ {
		switch cur {
		case stAccept:
			if start := (off + 7) / 8; start < len(wire) {
				return order, wire[start:], nil
			}
			return order, nil, nil
		case stReject:
			return order[:n0], nil, errRejected
		}
		st := &dc.states[cur]
		if st.missing {
			return order[:n0], nil, fmt.Errorf("packet: parser state %q missing", st.name)
		}
		for _, hi := range st.extracts {
			h := &dc.headers[hi]
			if off+h.bits > total {
				return order[:n0], nil, h.truncated(off, total)
			}
			if slots[h.valid] == 0 {
				slots[h.valid] = 1
				for _, f := range h.fields {
					slots[f.slot] = ReadBits(wire, off, f.width)
					off += f.width
				}
			} else {
				off += h.bits
			}
			order = append(order, hi)
		}
		if len(st.sel) == 0 {
			cur = st.def
			continue
		}
		for _, s := range st.sel {
			if s.valid < 0 || slots[s.valid] == 0 {
				return order[:n0], nil, fmt.Errorf("packet: select on unextracted field %s", s.ref)
			}
		}
		next := st.def
		for _, c := range st.cases {
			match := true
			for i, s := range st.sel {
				if slots[s.slot] != c.values[i] {
					match = false
					break
				}
			}
			if match {
				next = c.next
				break
			}
		}
		cur = next
	}
	return order[:n0], nil, errNotTerminate
}

// truncated is the error for a header that does not fit the wire: it
// names the first field that does not.
func (h *decHeader) truncated(off, total int) error {
	for _, f := range h.fields {
		if off+f.width > total {
			return fmt.Errorf("packet: extracting %s.%s: packet: truncated at bit %d", h.name, f.name, total)
		}
		off += f.width
	}
	panic("packet: truncated header fits")
}

// Packet builds the Packet of a wire Decode accepted, from what Decode
// returned: headers in wire order with fields from the slots, and a copy
// of the payload. An instance after a header's first, which the slots do
// not hold, is re-read from the wire.
func (dc *Decoder) Packet(wire []byte, slots []uint64, order []int, payload []byte) *Packet {
	pkt := &Packet{Payload: append([]byte(nil), payload...)}
	if len(order) > 0 {
		pkt.Headers = make([]Header, 0, len(order))
	}
	off := 0
	for i, hi := range order {
		h := &dc.headers[hi]
		first := !slices.Contains(order[:i], hi)
		fields := make(map[string]uint64, len(h.fields))
		for _, f := range h.fields {
			if first {
				fields[f.name] = slots[f.slot]
			} else {
				fields[f.name] = ReadBits(wire, off, f.width)
			}
			off += f.width
		}
		pkt.Headers = append(pkt.Headers, Header{Name: h.name, Fields: fields})
	}
	return pkt
}

// decoders caches one Decoder per (program, parser), like p4.Vars.
var decoders sync.Map // decoderKey -> *Decoder

type decoderKey struct {
	prog   *p4.Program
	parser string
}

// Parse decodes a wire packet by running a parser state machine
// concretely: extract reads header fields off the wire, select dispatches
// on the decoded values. It returns the decoded packet, or an error if
// the parser rejects. It is Decode plus Packet, on a decoder cached per
// program and parser.
func Parse(prog *p4.Program, parserName string, wire []byte) (*Packet, error) {
	k := decoderKey{prog, parserName}
	v, ok := decoders.Load(k)
	if !ok {
		dc, err := NewDecoder(prog, parserName)
		if err != nil {
			return nil, err
		}
		v, _ = decoders.LoadOrStore(k, dc)
	}
	dc := v.(*Decoder)
	slots := make([]uint64, dc.nslots)
	order, payload, err := dc.Decode(wire, slots, nil)
	if err != nil {
		return nil, err
	}
	return dc.Packet(wire, slots, order, payload), nil
}
