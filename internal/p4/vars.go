package p4

import (
	"sync"

	"repro/internal/expr"
)

// VarTable numbers a program's variables. Every header field, validity
// bit and metadata field, the drop flag, and every constant-index register
// cell the program reads or writes gets one dense slot with a static
// width, so per-packet hot paths — the switchsim machine, the packet
// codec, the driver's concretizer — index a []uint64 instead of rebuilding
// names by string concatenation. One table is built per Program on first
// use and cached for the program's lifetime.
//
// Slots [0, PerPacket()) are the per-packet state, laid out header by
// header in declaration order (validity bit, then fields), then metadata,
// then the drop flag; register cells follow, so a machine resets the
// per-packet prefix and leaves the register file alone.
type VarTable struct {
	names     []expr.Var   // slot -> variable
	widths    []expr.Width // slot -> static width
	slots     map[expr.Var]int
	field     map[hfKey]int
	valid     map[string]int
	headers   int
	perPacket int
}

type hfKey struct{ header, field string }

// varTables caches one VarTable per *Program. Entries live as long as
// the process; programs are parsed once and reused, so the cache stays
// bounded by the number of distinct programs loaded.
var varTables sync.Map // *Program -> *VarTable

// Vars returns the program's variable table, building it on first use.
func Vars(p *Program) *VarTable {
	if t, ok := varTables.Load(p); ok {
		return t.(*VarTable)
	}
	t := buildVarTable(p)
	actual, _ := varTables.LoadOrStore(p, t)
	return actual.(*VarTable)
}

func buildVarTable(p *Program) *VarTable {
	t := &VarTable{
		slots: map[expr.Var]int{},
		field: map[hfKey]int{},
		valid: map[string]int{},
	}
	for _, h := range p.Headers {
		t.valid[h.Name] = t.add(ValidVar(h.Name), 1)
		for _, f := range h.Fields {
			t.field[hfKey{h.Name, f.Name}] = t.add(HeaderFieldVar(h.Name, f.Name), f.Width)
		}
	}
	t.headers = len(t.names)
	for _, f := range p.Metadata {
		t.add(MetaVar(f.Name), f.Width)
	}
	t.add(DropVar, 1)
	t.perPacket = len(t.names)
	for _, a := range p.Actions {
		t.addRegisterCells(p, a.Body)
	}
	for _, c := range p.Controls {
		t.addRegisterCells(p, c.Apply)
	}
	return t
}

// add gives v the next slot; a name declared twice keeps its first slot
// (Check rejects such programs, the table just must not corrupt itself).
func (t *VarTable) add(v expr.Var, width int) int {
	if s, ok := t.slots[v]; ok {
		return s
	}
	s := len(t.names)
	t.slots[v] = s
	t.names = append(t.names, v)
	t.widths = append(t.widths, expr.Width(width))
	return s
}

// addRegisterCells gives a slot to every register cell the statements
// touch. Indexes are constants (§4 of the paper), so the set is static.
func (t *VarTable) addRegisterCells(p *Program, stmts []Stmt) {
	cell := func(reg string, index int) {
		if r := p.Register(reg); r != nil {
			t.add(RegisterVar(reg, index), r.Width)
		}
	}
	for _, s := range stmts {
		switch s := s.(type) {
		case *IfStmt:
			t.addRegisterCells(p, s.Then)
			t.addRegisterCells(p, s.Else)
		case *RegReadStmt:
			cell(s.Reg, s.Index)
		case *RegWriteStmt:
			cell(s.Reg, s.Index)
		}
	}
}

// Len is the number of slots; PerPacket the length of the per-packet
// prefix (everything but register cells); HeaderSlots the length of its
// header prefix (validity bits and header fields).
func (t *VarTable) Len() int         { return len(t.names) }
func (t *VarTable) PerPacket() int   { return t.perPacket }
func (t *VarTable) HeaderSlots() int { return t.headers }

// Name and Width describe a slot.
func (t *VarTable) Name(slot int) expr.Var    { return t.names[slot] }
func (t *VarTable) Width(slot int) expr.Width { return t.widths[slot] }

// Slot resolves a variable by name; ok=false when the program has none.
func (t *VarTable) Slot(v expr.Var) (int, bool) {
	s, ok := t.slots[v]
	return s, ok
}

// FieldSlot and ValidSlot resolve a declared header field and a header's
// validity bit without building the variable name.
func (t *VarTable) FieldSlot(header, field string) (int, bool) {
	s, ok := t.field[hfKey{header, field}]
	return s, ok
}

func (t *VarTable) ValidSlot(header string) (int, bool) {
	s, ok := t.valid[header]
	return s, ok
}

// DropSlot is the drop flag's slot: the last of the per-packet prefix.
func (t *VarTable) DropSlot() int { return t.perPacket - 1 }

// RefSlot resolves a two-part field reference (hdr.f or meta.f). ok=false
// for anything else: unknown names, or one-part references, which only an
// action's parameter scope can resolve.
func (t *VarTable) RefSlot(ref *FieldRef) (int, bool) {
	if len(ref.Parts) != 2 {
		return 0, false
	}
	if ref.Parts[0] == "meta" {
		return t.Slot(MetaVar(ref.Parts[1]))
	}
	return t.FieldSlot(ref.Parts[0], ref.Parts[1])
}

// Field returns HeaderFieldVar(header, field), interned when the pair is
// declared by the program.
func (t *VarTable) Field(header, field string) expr.Var {
	if s, ok := t.field[hfKey{header, field}]; ok {
		return t.names[s]
	}
	return HeaderFieldVar(header, field)
}

// Valid returns ValidVar(header), interned when declared.
func (t *VarTable) Valid(header string) expr.Var {
	if s, ok := t.valid[header]; ok {
		return t.names[s]
	}
	return ValidVar(header)
}
