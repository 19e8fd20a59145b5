package packet

import (
	"fmt"

	"repro/internal/p4"
)

// The reference: the map-building parser walk Parse ran before the
// compiled Decoder. It looks every state, header and select field up by
// name and builds each header's field map as it reads, which is slow and
// obviously right. FuzzDecodeMatchesParse holds Parse to it.
func parseReference(prog *p4.Program, parserName string, wire []byte) (*Packet, error) {
	pd := prog.Parser(parserName)
	if pd == nil {
		return nil, fmt.Errorf("packet: unknown parser %q", parserName)
	}
	r := &bitReader{buf: wire}
	pkt := &Packet{}
	state := "start"
	var valsBuf [4]uint64 // select values; wider selects spill to the heap
	for steps := 0; steps < 1000; steps++ {
		switch state {
		case "accept":
			pkt.Payload = append([]byte(nil), r.rest()...)
			return pkt, nil
		case "reject":
			return nil, fmt.Errorf("packet: parser rejected")
		}
		st := pd.State(state)
		if st == nil {
			return nil, fmt.Errorf("packet: parser state %q missing", state)
		}
		for _, s := range st.Body {
			ex, ok := s.(*p4.ExtractStmt)
			if !ok {
				continue // parser assignments touch metadata, not the wire
			}
			decl := prog.Header(ex.Header)
			h := Header{Name: ex.Header, Fields: make(map[string]uint64, len(decl.Fields))}
			for _, f := range decl.Fields {
				v, err := r.read(f.Width)
				if err != nil {
					return nil, fmt.Errorf("packet: extracting %s.%s: %w", ex.Header, f.Name, err)
				}
				h.Fields[f.Name] = v
			}
			pkt.Headers = append(pkt.Headers, h)
		}
		tr := st.Transition
		if len(tr.Select) == 0 {
			state = tr.Default
			continue
		}
		vals := valsBuf[:0]
		for _, ref := range tr.Select {
			v, ok := refValue(pkt, ref)
			if !ok {
				return nil, fmt.Errorf("packet: select on unextracted field %s", ref)
			}
			vals = append(vals, v)
		}
		next := tr.Default
		for _, c := range tr.Cases {
			match := true
			for i := range vals {
				if vals[i] != c.Values[i] {
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

// bitReader unpacks values MSB-first.
type bitReader struct {
	buf  []byte
	nbit int
}

func (r *bitReader) read(bits int) (uint64, error) {
	if total := len(r.buf) * 8; r.nbit+bits > total {
		return 0, fmt.Errorf("packet: truncated at bit %d", total)
	}
	v := ReadBits(r.buf, r.nbit, bits)
	r.nbit += bits
	return v, nil
}

func (r *bitReader) rest() []byte {
	// Round up to the next byte boundary; headers are byte-aligned in all
	// corpus programs, so this loses nothing in practice.
	start := (r.nbit + 7) / 8
	if start >= len(r.buf) {
		return nil
	}
	return r.buf[start:]
}
