package switchsim

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/expr"
	"repro/internal/hashfn"
	"repro/internal/p4"
	"repro/internal/packet"
)

// machine is the per-target execution state: one []uint64 over the
// variable table's slots plus the compiler's temporaries, and scratch
// buffers that reach their working size on the first packets. Inject is
// not reentrant (register state persists), so a target owns exactly one.
type machine struct {
	t     *Target
	slots []uint64
	// params is the stack the frames of explicit action calls live on; a
	// table hit runs on the entry's pre-bound arguments instead.
	params []uint64
	keys   []uint64 // key values of the table being applied
	vals   []uint64 // hash and checksum inputs
	hdrs   []int32  // headers extracted by the running parse, in order
	states []int32  // parser states it visited, in order
	// tracing is set by Inject; every trace line is formatted behind it.
	tracing bool
	trace   []string
	pipe    string // pipeline (or "parser") the trace lines are tagged with
	instrs  uint64 // instructions executed since Compile
}

func (m *machine) tracef(format string, args ...any) {
	m.trace = append(m.trace, fmt.Sprintf(format, args...))
}

func (m *machine) load(o opnd, frame []uint64) uint64 {
	switch o.kind {
	case kSlot:
		return m.slots[o.n]
	case kParam:
		return frame[o.n]
	}
	return o.n
}

// store writes a storing instruction's result: truncated into dst, and
// into every slot a FieldOverlap fault made share its container.
func (m *machine) store(in *instr, val uint64) {
	m.slots[in.dst] = val & in.mask
	for _, c := range in.clob {
		m.slots[c.slot] = val & c.mask
		if m.tracing {
			vt := m.t.vars
			m.tracef("[%s] %s clobbered via pragma overlap with %s", m.pipe, vt.Name(int(c.slot)), vt.Name(int(in.dst)))
		}
	}
}

// gather evaluates a hash or checksum instruction's inputs into the
// reused buffer.
func (m *machine) gather(in *instr, frame []uint64) []uint64 {
	m.vals = m.vals[:0]
	for _, a := range in.args {
		m.vals = append(m.vals, m.load(a, frame))
	}
	return m.vals
}

// exec runs a block to its opRet and returns what that returns, or
// retDrop as soon as the packet is dropped. frame holds the running
// action's arguments.
func (m *machine) exec(code []instr, frame []uint64) int32 {
	s := m.slots
	for pc := 0; ; {
		in := &code[pc]
		pc++
		m.instrs++
		switch in.op {
		case opMove:
			val := m.load(in.a, frame) & in.mask
			if m.tracing {
				note := ""
				if in.want {
					note = " (TRUNCATED by backend bug)"
				}
				m.tracef("[%s] %s = %d%s", m.pipe, m.t.vars.Name(int(in.dst)), val, note)
			}
			m.store(in, val)
		case opBin:
			s[in.dst] = expr.AOp(in.sub).Apply(m.load(in.a, frame), m.load(in.b, frame), in.w)
		case opNot:
			s[in.dst] = in.w.Trunc(^m.load(in.a, frame))
		case opJump:
			pc = int(in.to)
		case opCmp:
			if !expr.CmpOp(in.sub).Apply(m.load(in.a, frame), m.load(in.b, frame)) {
				pc = int(in.to)
			}
		case opValid:
			if (s[in.a.n] == 1) == in.want {
				pc = int(in.to)
			}
		case opBranch:
			if m.tracing {
				arm := "else"
				if in.want {
					arm = "then"
				}
				m.tracef("[%s] if (%s) -> %s", m.pipe, p4.ExprString(in.src.(*p4.IfStmt).Cond), arm)
			}
		case opApply:
			if m.apply(in.tbl) == retDrop {
				return retDrop
			}
		case opCall:
			base := len(m.params)
			for i, a := range in.args {
				m.params = append(m.params, in.widths[i].Trunc(m.load(a, frame)))
			}
			r := m.exec(in.callee.code, m.params[base:])
			m.params = m.params[:base]
			if r == retDrop {
				return retDrop
			}
		case opSetValid:
			v := uint64(0)
			if in.want {
				v = 1
			}
			s[in.dst] = v
			if m.tracing {
				m.tracef("[%s] setValid(%s)=%d", m.pipe, in.src.(*p4.SetValidStmt).Header, v)
			}
		case opNop:
			if m.tracing {
				switch t := in.src.(type) {
				case *p4.SetValidStmt:
					m.tracef("[%s] setValid(%s) — compiled to no-op (backend bug)", m.pipe, t.Header)
				case *p4.ChecksumStmt:
					m.tracef("[%s] update_checksum(%s) — compiled to no-op (backend bug)", m.pipe, t.Header)
				}
			}
		case opDrop:
			s[m.t.drop] = 1
			if m.tracing {
				m.tracef("[%s] mark_drop()", m.pipe)
			}
			return retDrop
		case opHash:
			h := hashfn.Hash(m.gather(in, frame), in.widths, in.w)
			m.store(in, h)
			if m.tracing {
				m.tracef("[%s] hash -> %s = %d", m.pipe, m.t.vars.Name(int(in.dst)), h)
			}
		case opChecksum:
			cs := hashfn.Checksum(m.gather(in, frame), in.widths)
			m.store(in, cs)
			if m.tracing {
				m.tracef("[%s] update_checksum(%s) = %#x", m.pipe, in.src.(*p4.ChecksumStmt).Header, cs)
			}
		case opRegRead:
			val := s[in.a.n]
			m.store(in, val)
			if m.tracing {
				t := in.src.(*p4.RegReadStmt)
				m.tracef("[%s] %s = reg_read(%s, %d) = %d", m.pipe, m.t.vars.Name(int(in.dst)), t.Reg, t.Index, val)
			}
		case opRegWrite:
			v := m.load(in.a, frame) & in.mask
			s[in.dst] = v
			if m.tracing {
				t := in.src.(*p4.RegWriteStmt)
				m.tracef("[%s] reg_write(%s, %d, %d)", m.pipe, t.Reg, t.Index, v)
			}
		case opRet:
			if m.tracing && in.src != nil { // a traffic manager edge
				e := in.src.(*p4.TopoEdge)
				m.tracef("traffic manager: %s -> %s", e.From, e.To)
			}
			return in.dst
		}
	}
}

// apply is the match-action lookup: the first row in priority order that
// covers every key wins, otherwise the default action runs. The key
// values are loaded once and the row index finds the hit. Probes are
// charged as priority depth — i+1 for a hit on row i, every row for a
// miss — a property of the program and the rules, not of the lookup.
func (m *machine) apply(t *tblPlan) int32 {
	kv := m.keys[:len(t.keys)]
	for j, s := range t.keys {
		kv[j] = m.slots[s]
	}
	t.stats.Applies++
	if i := t.lookup(kv); int(i) < len(t.ents) {
		e := &t.ents[i]
		t.stats.Probes += uint64(i + 1)
		t.stats.Hits++
		if m.tracing {
			m.tracef("[%s] table %s hit entry %d -> %s", m.pipe, t.name, i, e.action)
		}
		if e.code == nil {
			return retOK
		}
		return m.exec(e.code, e.args)
	}
	t.stats.Probes += uint64(len(t.ents))
	t.stats.Defaults++
	if m.tracing {
		m.tracef("[%s] table %s miss -> %s", m.pipe, t.name, t.missName)
	}
	if t.miss == nil {
		return retOK
	}
	return m.exec(t.miss, nil)
}

// parse runs the entry parser over the wire: extracted fields go straight
// to their slots, selects read slots. Validity bits and the states'
// assignments follow only once the whole wire parse has accepted, in
// extraction and visit order. It returns the payload (aliasing wire);
// ok=false when the parser rejected, the reason going to the trace.
func (m *machine) parse(p *parserLow, wire []byte) (payload []byte, ok bool) {
	m.hdrs, m.states = m.hdrs[:0], m.states[:0]
	total := len(wire) * 8
	off := 0
	for state := int32(0); state != stateAccept; {
		if state == stateReject {
			if m.tracing {
				m.tracef("parser rejected: packet: parser rejected")
			}
			return nil, false
		}
		st := &p.states[state]
		m.states = append(m.states, state)
		for _, hi := range st.extracts {
			h := &m.t.hdrs[hi]
			for i, f := range h.decl.Fields {
				if off+f.Width > total {
					if m.tracing {
						m.tracef("parser rejected: packet: extracting %s.%s: packet: truncated at bit %d", h.decl.Name, f.Name, total)
					}
					return nil, false
				}
				m.slots[int(h.valid)+1+i] = packet.ReadBits(wire, off, f.Width)
				off += f.Width
			}
			m.hdrs = append(m.hdrs, hi)
		}
		for i, h := range st.selHdr {
			if !slices.Contains(m.hdrs, h) {
				if m.tracing {
					name := strings.TrimPrefix(string(m.t.vars.Name(int(st.sel[i]))), "hdr.")
					m.tracef("parser rejected: packet: select on unextracted field %s", name)
				}
				return nil, false
			}
		}
		state = st.def
	cases:
		for _, c := range st.cases {
			for i, slot := range st.sel {
				if m.slots[slot] != c.values[i] {
					continue cases
				}
			}
			state = c.next
			break
		}
	}
	for _, hi := range m.hdrs {
		h := &m.t.hdrs[hi]
		if h.extractSetsValid {
			m.slots[h.valid] = 1
		} else if m.tracing {
			m.tracef("extract %s (validity NOT set: %s)", h.decl.Name, "missing compilation flag")
		}
		if m.tracing {
			m.tracef("extract %s", h.decl.Name)
		}
	}
	m.pipe = "parser"
	for _, state := range m.states {
		if code := p.states[state].assigns; code != nil {
			m.exec(code, nil)
		}
	}
	if start := (off + 7) / 8; start < len(wire) {
		return wire[start:], true
	}
	return nil, true
}

// deparse appends the exit state to dst: every header whose validity slot
// is set, in declaration order, then the payload. On error dst comes back
// as it was.
func (m *machine) deparse(dst, payload []byte) ([]byte, error) {
	bits := 0
	for i := range m.t.hdrs {
		if h := &m.t.hdrs[i]; m.slots[h.valid] == 1 {
			bits += h.bits
		}
	}
	if bits%8 != 0 {
		return dst, fmt.Errorf("packet: headers not byte-aligned (%d bits)", bits)
	}
	n := len(dst)
	dst = slices.Grow(dst, bits/8+len(payload))[:n+bits/8]
	hdr := dst[n:]
	clear(hdr) // PutBits ORs into place
	off := 0
	for i := range m.t.hdrs {
		h := &m.t.hdrs[i]
		if m.slots[h.valid] != 1 {
			continue
		}
		for i, f := range h.decl.Fields {
			packet.PutBits(hdr, off, m.slots[int(h.valid)+1+i], f.Width)
			off += f.Width
		}
	}
	return append(dst, payload...), nil
}
