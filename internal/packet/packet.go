// Package packet models concrete test packets: bit-exact serialization of
// program-declared headers, parser-FSM-driven synthesis from solver models
// and decoding of captured output, plus the unique-ID payload the test
// driver uses to relate sent and received packets (§4 of the paper).
package packet

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/p4"
)

// Magic marks Meissa test packets' payloads.
const Magic uint32 = 0x4D455353 // "MESS"

// Header is one concrete header instance in wire order.
type Header struct {
	Name   string
	Fields map[string]uint64
}

// Packet is a concrete packet: headers in wire order plus payload.
type Packet struct {
	Headers []Header
	Payload []byte
}

// Clone deep-copies the packet.
func (p *Packet) Clone() *Packet {
	out := &Packet{Payload: append([]byte(nil), p.Payload...)}
	for _, h := range p.Headers {
		nh := Header{Name: h.Name, Fields: make(map[string]uint64, len(h.Fields))}
		for k, v := range h.Fields {
			nh.Fields[k] = v
		}
		out.Headers = append(out.Headers, nh)
	}
	return out
}

// Has reports whether a header is present.
func (p *Packet) Has(name string) bool {
	for _, h := range p.Headers {
		if h.Name == name {
			return true
		}
	}
	return false
}

// Field returns a header field value.
func (p *Packet) Field(header, field string) (uint64, bool) {
	for _, h := range p.Headers {
		if h.Name == header {
			v, ok := h.Fields[field]
			return v, ok
		}
	}
	return 0, false
}

// SetField sets a header field value, adding the header if absent.
func (p *Packet) SetField(header, field string, v uint64) {
	for i := range p.Headers {
		if p.Headers[i].Name == header {
			p.Headers[i].Fields[field] = v
			return
		}
	}
	p.Headers = append(p.Headers, Header{Name: header, Fields: map[string]uint64{field: v}})
}

// ID extracts the unique test-packet ID from the payload, if present.
func (p *Packet) ID() (uint64, bool) { return PayloadID(p.Payload) }

// PayloadID extracts the unique test-packet ID from a payload, if present.
func PayloadID(payload []byte) (uint64, bool) {
	if len(payload) < 12 {
		return 0, false
	}
	if binary.BigEndian.Uint32(payload[:4]) != Magic {
		return 0, false
	}
	return binary.BigEndian.Uint64(payload[4:12]), true
}

// WithID returns a 12-byte payload carrying the magic and the ID.
func WithID(id uint64) []byte { return AppendID(make([]byte, 0, 12), id) }

// AppendID appends the 12-byte payload carrying the magic and the ID.
func AppendID(b []byte, id uint64) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(b, Magic), id)
}

// String renders the packet compactly.
func (p *Packet) String() string {
	var b strings.Builder
	for i, h := range p.Headers {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(h.Name)
	}
	if id, ok := p.ID(); ok {
		fmt.Fprintf(&b, "#%d", id)
	}
	return b.String()
}

// --- Bit-level wire format ---

// PutBits writes the low width bits of v MSB-first at bit offset off.
// The destination bits must be zero and inside buf.
func PutBits(buf []byte, off int, v uint64, width int) {
	if off&7 == 0 && width&7 == 0 { // whole bytes: no shifting within one
		b := buf[off>>3 : (off+width)>>3]
		for i := len(b) - 1; i >= 0; i-- {
			b[i] = byte(v)
			v >>= 8
		}
		return
	}
	for width > 0 {
		free := 8 - off&7 // bits left in the current byte
		n := min(free, width)
		chunk := byte(v>>uint(width-n)) & (1<<uint(n) - 1)
		buf[off>>3] |= chunk << uint(free-n)
		off += n
		width -= n
	}
}

// ReadBits reads width bits MSB-first from bit offset off. The bits must
// be inside buf.
func ReadBits(buf []byte, off, width int) uint64 {
	var v uint64
	if off&7 == 0 && width&7 == 0 { // whole bytes
		for _, c := range buf[off>>3 : (off+width)>>3] {
			v = v<<8 | uint64(c)
		}
		return v
	}
	for width > 0 {
		avail := 8 - off&7 // unread bits of the current byte
		n := min(avail, width)
		chunk := buf[off>>3] >> uint(avail-n) & (1<<uint(n) - 1)
		v = v<<uint(n) | uint64(chunk)
		off += n
		width -= n
	}
	return v
}

// bitWriter packs values MSB-first.
type bitWriter struct {
	buf  []byte
	nbit int
}

func (w *bitWriter) write(v uint64, bits int) {
	need := (w.nbit + bits + 7) / 8
	for len(w.buf) < need {
		w.buf = append(w.buf, 0)
	}
	PutBits(w.buf, w.nbit, v, bits)
	w.nbit += bits
}

// Marshal serializes the packet: headers in their recorded order, each
// field MSB-first in declaration order, then the payload.
func (p *Packet) Marshal(prog *p4.Program) ([]byte, error) {
	w := &bitWriter{}
	for _, h := range p.Headers {
		decl := prog.Header(h.Name)
		if decl == nil {
			return nil, fmt.Errorf("packet: unknown header %q", h.Name)
		}
		for _, f := range decl.Fields {
			w.write(expr.Width(f.Width).Trunc(h.Fields[f.Name]), f.Width)
		}
	}
	if w.nbit%8 != 0 {
		return nil, fmt.Errorf("packet: headers not byte-aligned (%d bits)", w.nbit)
	}
	return append(w.buf, p.Payload...), nil
}

func refValue(pkt *Packet, ref *p4.FieldRef) (uint64, bool) {
	if len(ref.Parts) != 2 {
		return 0, false
	}
	return pkt.Field(ref.Parts[0], ref.Parts[1])
}

// Synthesize builds a concrete input packet from a solver model: it walks
// the parser FSM using model values to decide transitions, including
// exactly the headers the path's parse requires, and fills every field
// from the model (absent fields default to zero).
func Synthesize(prog *p4.Program, parserName string, model expr.State, id uint64) (*Packet, error) {
	pd := prog.Parser(parserName)
	if pd == nil {
		return nil, fmt.Errorf("packet: unknown parser %q", parserName)
	}
	pkt := &Packet{Payload: WithID(id)}
	state := "start"
	for steps := 0; steps < 1000; steps++ {
		if state == "accept" {
			return pkt, nil
		}
		if state == "reject" {
			// A path that rejects still needs an input packet; the wire
			// form is whatever was synthesized so far.
			return pkt, nil
		}
		st := pd.State(state)
		if st == nil {
			return nil, fmt.Errorf("packet: parser state %q missing", state)
		}
		for _, s := range st.Body {
			ex, ok := s.(*p4.ExtractStmt)
			if !ok {
				continue
			}
			decl := prog.Header(ex.Header)
			vt := p4.Vars(prog)
			h := Header{Name: ex.Header, Fields: make(map[string]uint64, len(decl.Fields))}
			for _, f := range decl.Fields {
				h.Fields[f.Name] = model[vt.Field(ex.Header, f.Name)]
			}
			pkt.Headers = append(pkt.Headers, h)
		}
		tr := st.Transition
		if len(tr.Select) == 0 {
			state = tr.Default
			continue
		}
		next := tr.Default
		for _, c := range tr.Cases {
			match := true
			for i, ref := range tr.Select {
				v, ok := refValue(pkt, ref)
				if !ok || v != c.Values[i] {
					match = false
					break
				}
			}
			if match {
				next = c.Next
				break
			}
		}
		state = next
	}
	return nil, fmt.Errorf("packet: parser did not terminate")
}

// FromState builds an output packet from an execution state: every header
// whose validity bit is set, in program declaration order (the implicit
// deparser), fields taken from the state.
func FromState(prog *p4.Program, st expr.State, payload []byte) *Packet {
	vt := p4.Vars(prog)
	pkt := &Packet{Payload: append([]byte(nil), payload...)}
	for _, hd := range prog.Headers {
		if st[vt.Valid(hd.Name)] != 1 {
			continue
		}
		h := Header{Name: hd.Name, Fields: make(map[string]uint64, len(hd.Fields))}
		for _, f := range hd.Fields {
			h.Fields[f.Name] = expr.Width(f.Width).Trunc(st[vt.Field(hd.Name, f.Name)])
		}
		pkt.Headers = append(pkt.Headers, h)
	}
	return pkt
}

// ToState loads a packet into an execution state: field values and
// validity bits for present headers.
func (p *Packet) ToState(st expr.State) {
	for _, h := range p.Headers {
		st[p4.ValidVar(h.Name)] = 1
		for f, v := range h.Fields {
			st[p4.HeaderFieldVar(h.Name, f)] = v
		}
	}
}
