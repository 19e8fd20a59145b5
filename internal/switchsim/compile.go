package switchsim

import (
	"fmt"
	"slices"

	"repro/internal/expr"
	"repro/internal/p4"
	"repro/internal/rules"
)

// The lowered program. Compile turns the source tree into flat
// instruction blocks over the slots of p4.VarTable; per packet the machine
// (machine.go) indexes one []uint64 and never looks at a name, a map or a
// p4.Expr. Temporaries of an expression live in extra slots after the
// variable table's; they are dead at every statement boundary, so one
// small set serves every block.

type opcode uint8

const (
	opMove     opcode = iota // dst = a                          (assignment)
	opBin                    // dst = a <sub> b at width w       (temporary)
	opNot                    // dst = ^a at width w              (temporary)
	opJump                   // pc = to
	opCmp                    // unless a <sub> b: pc = to
	opValid                  // when (slot a == 1) == want: pc = to
	opBranch                 // nothing: marks which way an if went, for the trace
	opApply                  // look tbl up, run the hit entry or the default
	opCall                   // run callee with args as its frame
	opSetValid               // dst = want
	opNop                    // a statement a fault compiled away; src says which
	opDrop                   // set the drop flag and stop the pipeline
	opHash                   // dst = hash(args)
	opChecksum               // dst = checksum(args)
	opRegRead                // dst = a                          (a is a register slot)
	opRegWrite               // dst = a                          (dst is a register slot)
	opRet                    // return dst to the caller of the block
)

// Block results. A pipeline's block — its control, then its traffic
// manager edges — returns the index of the pipeline the packet goes to
// next, or one of the negative results; every other block returns retOK.
const (
	retOK     int32 = 0
	retExit   int32 = -1 // the packet leaves the data plane
	retDrop   int32 = -2
	retNoEdge int32 = -3 // no traffic manager edge took it: lost
)

type opndKind uint8

const (
	kConst opndKind = iota // n is the value
	kSlot                  // n indexes the machine's slots
	kParam                 // n indexes the running action's frame
)

// opnd is an instruction operand.
type opnd struct {
	kind opndKind
	n    uint64
}

// clobber is a store a FieldOverlap fault appended to an instruction: the
// value written to the instruction's dst also lands in slot, at its width.
type clobber struct {
	slot int32
	mask uint64
}

type instr struct {
	op   opcode
	sub  uint8 // opBin: expr.AOp; opCmp: expr.CmpOp
	want bool  // opValid, opSetValid, opBranch (taken); opMove: WrongAssign narrowed the store
	w    expr.Width
	dst  int32
	to   int32
	a, b opnd
	// mask truncates what a storing instruction writes to dst: the
	// destination's width, narrowed further by a WrongAssign fault.
	mask uint64
	// args are a call's arguments or a hash's or checksum's inputs, widths
	// the width each is taken at: the callee's parameter's, the input's own.
	args   []opnd
	widths []expr.Width
	clob   []clobber
	tbl    *tblPlan
	callee *action
	// src is the source construct — a statement, or the *p4.TopoEdge an
	// opRet takes — read only when a trace is recorded.
	src any
}

// action is a lowered action body; frames are its arguments, truncated to
// the parameter widths by whoever calls.
type action struct {
	decl *p4.ActionDecl
	code []instr
}

// entryPlan is an installed rule with its action pre-bound: the lowered
// body (nil for NoAction) and the bound row's arguments, which fit the
// parameters and serve as the call's frame without copying.
type entryPlan struct {
	action string
	code   []instr
	args   []uint64
}

// tblPlan is a table as the machine applies it: key slots, and the
// installed entries in priority order. cells holds the bound rows' cells
// entry-major, len(keys) cells a row, aligned to the key order; groups
// and ranged are the row index (index.go) that finds the hit among them.
type tblPlan struct {
	name   string
	keys   []int32
	cells  []rules.Cell
	ents   []entryPlan
	groups []maskGroup // ascending by lowest row
	ranged []int32     // rows with a range cell, ascending
	// miss is the default action's call sequence (its arguments are
	// expressions); missName names it in traces.
	miss     []instr
	missName string
	stats    TableStats
}

// hdrPlan is a header's wire layout over slots, what extract loads and
// the deparser emits when the validity slot is set: p4.VarTable puts the
// fields, in declaration order, right after the validity bit.
type hdrPlan struct {
	decl  *p4.HeaderDecl
	valid int32
	bits  int
	// extractSetsValid is false when an ExtractNoValidity fault dropped
	// the validity store from the header's extract plan.
	extractSetsValid bool
}

const (
	stateAccept int32 = -1
	stateReject int32 = -2
)

// stateLow is one parser state: the headers it extracts, its select over
// slots, and its assignments, which run after the whole wire parse in
// visit order (nil when it has none). A header extracted twice simply
// loads its slots twice: the last instance wins, for selects too.
type stateLow struct {
	extracts []int32 // indexes into Target.hdrs
	assigns  []instr
	sel      []int32 // select slots
	selHdr   []int32 // header each select field belongs to; -1: none, the select rejects
	cases    []caseLow
	def      int32
}

type caseLow struct {
	values []uint64
	next   int32
}

type parserLow struct{ states []stateLow } // states[0] is start

// pipeLow is a pipeline: the parser it gives packets entering through it
// (nil: the wire is all payload), and one block — the control's apply,
// then each outgoing traffic manager edge's guard, the first that holds
// returning where the edge leads.
type pipeLow struct {
	decl   *p4.PipelineDecl
	parser *parserLow
	code   []instr
}

// crashGuard is a CrashWhen fault: checked once after the parse.
type crashGuard struct {
	valid, field int32
	f            CrashWhen
}

// compiler lowers one program that p4.Check has accepted, with its rules
// bound by rules.Bind: every name a statement or a row mentions resolves,
// so lookups below are not re-validated.
// What Check cannot see — a reference no variable stands behind, a value
// where a condition belongs — is recorded in err, the first one wins and
// lowering carries on with zero values for Compile to discard.
type compiler struct {
	prog   *p4.Program
	vars   *p4.VarTable
	faults Faults
	acts   map[string]*action
	tbls   map[string]*tblPlan
	err    error
	// code is the block being emitted; scope maps the enclosing action's
	// parameter names to frame indexes.
	code  []instr
	scope map[string]int
	// temp is the next free temporary of the statement being lowered,
	// maxTemp the most any statement used.
	temp, maxTemp int
}

// fail records an error found at a source position; only the first is
// kept.
func (c *compiler) fail(at p4.Pos, format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("switchsim: %v: %s", at, fmt.Sprintf(format, args...))
	}
}

func (c *compiler) emit(in instr) int {
	c.code = append(c.code, in)
	return len(c.code) - 1
}

// block runs lower on a fresh block and returns it, ended by an opRet
// returning ret.
func (c *compiler) block(scope map[string]int, ret int32, lower func()) []instr {
	saved, savedScope := c.code, c.scope
	c.code, c.scope = nil, scope
	lower()
	c.emit(instr{op: opRet, dst: ret})
	out := c.code
	c.code, c.scope = saved, savedScope
	return out
}

func (c *compiler) stmts(list []p4.Stmt) {
	for _, s := range list {
		c.temp = 0
		c.stmt(s)
	}
}

// slotOf resolves a field reference that must name a program variable.
func (c *compiler) slotOf(ref *p4.FieldRef) (int32, expr.Width) {
	s, ok := c.vars.RefSlot(ref)
	if !ok {
		c.fail(ref.Pos, "reference %s does not resolve to a header or metadata field", ref)
	}
	return int32(s), c.vars.Width(s)
}

// store fills in a storing instruction's destination: the slot, the
// width mask, and the clobber stores of every FieldOverlap naming it.
func (c *compiler) store(in instr, dst int32, w expr.Width) instr {
	in.dst, in.w, in.mask = dst, w, w.Mask()
	for _, other := range c.faults.overlapsOf(string(c.vars.Name(int(dst)))) {
		if s, ok := c.vars.Slot(expr.Var(other)); ok {
			in.clob = append(in.clob, clobber{slot: int32(s), mask: c.vars.Width(s).Mask()})
		}
	}
	return in
}

func (c *compiler) stmt(s p4.Stmt) {
	switch t := s.(type) {
	case *p4.AssignStmt:
		// A WrongAssign fault naming the destination narrows the store.
		dst, dw := c.slotOf(t.LHS)
		v, _ := c.arith(t.RHS)
		in := c.store(instr{op: opMove, a: v, src: t}, dst, dw)
		if bits, ok := c.faults.wrongAssign(string(c.vars.Name(int(dst)))); ok {
			in.mask &= expr.Width(bits).Mask()
			in.want = true
		}
		c.emit(in)
	case *p4.IfStmt:
		// Jumps, with an opBranch heading each arm so a trace can say
		// which one ran.
		var toElse []int
		c.cond(t.Cond, false, &toElse)
		c.emit(instr{op: opBranch, want: true, src: t})
		c.stmts(t.Then)
		end := c.emit(instr{op: opJump})
		c.land(toElse)
		c.emit(instr{op: opBranch, want: false, src: t})
		c.stmts(t.Else)
		c.land([]int{end})
	case *p4.ApplyStmt:
		c.emit(instr{op: opApply, tbl: c.tbls[t.Table], src: t})
	case *p4.CallStmt:
		c.call(t.Call, t)
	case *p4.SetValidStmt:
		if t.Valid && c.faults.has(SetValidNoOp{t.Header}) {
			c.emit(instr{op: opNop, src: t})
			return
		}
		slot, _ := c.vars.ValidSlot(t.Header)
		c.emit(instr{op: opSetValid, dst: int32(slot), want: t.Valid, src: t})
	case *p4.DropStmt:
		c.emit(instr{op: opDrop, src: t})
	case *p4.HashStmt:
		dst, dw := c.slotOf(t.Dest)
		in := instr{op: opHash, src: t}
		for _, x := range t.Inputs {
			o, w := c.arith(x)
			in.args, in.widths = append(in.args, o), append(in.widths, w)
		}
		c.emit(c.store(in, dst, dw))
	case *p4.ChecksumStmt:
		if c.faults.has(ChecksumSkip{t.Header}) {
			c.emit(instr{op: opNop, src: t})
			return
		}
		in := instr{op: opChecksum, src: t}
		for _, f := range c.prog.Header(t.Header).Fields {
			if f.Name != t.Field {
				s, _ := c.vars.FieldSlot(t.Header, f.Name)
				in.args, in.widths = append(in.args, opnd{kSlot, uint64(s)}), append(in.widths, expr.Width(f.Width))
			}
		}
		dst, _ := c.vars.FieldSlot(t.Header, t.Field)
		c.emit(c.store(in, int32(dst), c.vars.Width(dst)))
	case *p4.RegReadStmt:
		dst, dw := c.slotOf(t.Dest)
		cell, _ := c.vars.Slot(p4.RegisterVar(t.Reg, t.Index))
		c.emit(c.store(instr{op: opRegRead, a: opnd{kSlot, uint64(cell)}, src: t}, dst, dw))
	case *p4.RegWriteStmt:
		cell, _ := c.vars.Slot(p4.RegisterVar(t.Reg, t.Index))
		v, _ := c.arith(t.Value)
		c.emit(instr{op: opRegWrite, dst: int32(cell), a: v, mask: c.vars.Width(cell).Mask(), src: t})
	}
}

// land points the jumps at the next instruction to be emitted.
func (c *compiler) land(jumps []int) {
	for _, j := range jumps {
		c.code[j].to = int32(len(c.code))
	}
}

// cond emits code that jumps when x evaluates to want and falls through
// otherwise; the jumps are appended to out for the caller to land.
// WrongCompare rewrites strict comparisons here.
func (c *compiler) cond(x p4.Expr, want bool, out *[]int) {
	switch t := x.(type) {
	case *p4.CmpExpr:
		l, _ := c.arith(t.L)
		r, _ := c.arith(t.R)
		op := t.Op
		if c.faults.has(WrongCompare{}) {
			switch op {
			case expr.CmpGt:
				op = expr.CmpGe
			case expr.CmpLt:
				op = expr.CmpLe
			}
		}
		if want { // opCmp jumps when its comparison fails
			op = op.Negate()
		}
		*out = append(*out, c.emit(instr{op: opCmp, sub: uint8(op), a: l, b: r}))
	case *p4.LogicExpr:
		// The operand that can decide the result alone jumps straight
		// out: to the caller's target when that result is want, past the
		// second operand otherwise.
		if decides := t.Op == expr.LOr; decides == want {
			c.cond(t.L, want, out)
			c.cond(t.R, want, out)
		} else {
			var skip []int
			c.cond(t.L, decides, &skip)
			c.cond(t.R, want, out)
			c.land(skip)
		}
	case *p4.NotExpr:
		c.cond(t.X, !want, out)
	case *p4.IsValidExpr:
		slot, _ := c.vars.ValidSlot(t.Header)
		*out = append(*out, c.emit(instr{op: opValid, a: opnd{kSlot, uint64(slot)}, want: want}))
	default:
		c.fail(x.ExprPos(), "%s is not a condition", p4.ExprString(x))
	}
}

// arith lowers an arithmetic expression to an operand and its static
// width: literals and parameters are MaxWidth wide, a binary operation as
// wide as its wider operand.
func (c *compiler) arith(x p4.Expr) (opnd, expr.Width) {
	switch t := x.(type) {
	case *p4.NumberExpr:
		return opnd{kConst, t.Val}, expr.MaxWidth
	case *p4.FieldRef:
		if len(t.Parts) == 1 {
			if i, ok := c.scope[t.Parts[0]]; ok {
				return opnd{kParam, uint64(i)}, expr.MaxWidth
			}
		}
		s, w := c.slotOf(t)
		return opnd{kSlot, uint64(s)}, w
	case *p4.BinExpr:
		l, lw := c.arith(t.L)
		r, rw := c.arith(t.R)
		return c.temporary(instr{op: opBin, sub: uint8(t.Op), a: l, b: r, w: max(lw, rw)})
	case *p4.NotExpr:
		v, w := c.arith(t.X)
		return c.temporary(instr{op: opNot, a: v, w: w})
	}
	c.fail(x.ExprPos(), "%s is not arithmetic", p4.ExprString(x))
	return opnd{}, expr.MaxWidth
}

// temporary emits in with the next free temporary as its destination.
func (c *compiler) temporary(in instr) (opnd, expr.Width) {
	in.dst = int32(c.vars.Len() + c.temp)
	c.temp++
	c.maxTemp = max(c.maxTemp, c.temp)
	c.emit(in)
	return opnd{kSlot, uint64(in.dst)}, in.w
}

// call lowers an action invocation: the arguments are evaluated in the
// caller's scope and become the callee's frame.
func (c *compiler) call(call *p4.ActionCall, src p4.Stmt) {
	if call.Name == "NoAction" {
		return
	}
	in := instr{op: opCall, callee: c.acts[call.Name], src: src}
	for i, x := range call.Args {
		o, _ := c.arith(x)
		in.args, in.widths = append(in.args, o), append(in.widths, expr.Width(in.callee.decl.Params[i].Width))
	}
	c.emit(in)
}

// actions lowers every action body once. A call reaches its callee
// through the action's pointer, so bodies may be lowered in any order.
func (c *compiler) actions() {
	for _, d := range c.prog.Actions {
		c.acts[d.Name] = &action{decl: d}
	}
	for _, d := range c.prog.Actions {
		scope := make(map[string]int, len(d.Params))
		for i, p := range d.Params {
			scope[p.Name] = i
		}
		c.acts[d.Name].code = c.block(scope, retOK, func() { c.stmts(d.Body) })
	}
}

// table builds a table's plan from its bound rows. A TableMissDefault
// fault installs no rows at all.
func (c *compiler) table(bt *rules.Table) *tblPlan {
	d := bt.Decl
	t := &tblPlan{name: d.Name, missName: "NoAction", stats: TableStats{Name: d.Name}}
	for _, k := range bt.Keys {
		s, _ := c.vars.Slot(k.Var)
		t.keys = append(t.keys, int32(s))
	}
	if d.DefaultAction != nil && d.DefaultAction.Name != "NoAction" {
		t.missName = d.DefaultAction.Name
		c.temp = 0
		t.miss = c.block(nil, retOK, func() { c.call(d.DefaultAction, nil) })
	}
	if c.faults.has(TableMissDefault{d.Name}) {
		return t
	}
	t.ents = make([]entryPlan, len(bt.Rows))
	t.cells = make([]rules.Cell, 0, len(bt.Rows)*len(d.Keys))
	for i, r := range bt.Rows {
		t.cells = append(t.cells, r.Cells...)
		t.ents[i].action = r.Entry.Action
		if r.Action != nil {
			t.ents[i].code, t.ents[i].args = c.acts[r.Action.Name].code, r.Args
		}
	}
	t.buildIndex()
	return t
}

// parser lowers a parser FSM to per-state extract plans and selects over
// slots. Check has made the state graph acyclic, so a parse visits each
// state at most once.
func (c *compiler) parser(pd *p4.ParserDecl) *parserLow {
	// "": a hand-built select with no default rejects what no case takes.
	index := map[string]int32{"accept": stateAccept, "reject": stateReject, "": stateReject, "start": 0}
	order := []*p4.ParserState{pd.State("start")}
	for _, st := range pd.States {
		if st.Name != "start" {
			index[st.Name] = int32(len(order))
			order = append(order, st)
		}
	}
	pl := &parserLow{states: make([]stateLow, len(order))}
	for i, st := range order {
		lo := &pl.states[i]
		var assigns []p4.Stmt
		for _, s := range st.Body {
			switch s := s.(type) {
			case *p4.ExtractStmt:
				lo.extracts = append(lo.extracts, c.headerIndex(s.Header))
			case *p4.AssignStmt:
				assigns = append(assigns, s)
			}
		}
		if len(assigns) > 0 {
			lo.assigns = c.block(nil, retOK, func() { c.stmts(assigns) })
		}
		tr := st.Transition
		for _, ref := range tr.Select {
			slot, _ := c.slotOf(ref)
			lo.sel = append(lo.sel, slot)
			lo.selHdr = append(lo.selHdr, c.headerIndex(ref.Parts[0]))
		}
		for _, cs := range tr.Cases {
			lo.cases = append(lo.cases, caseLow{values: cs.Values, next: index[cs.Next]})
		}
		lo.def = index[tr.Default]
	}
	return pl
}

// headerIndex is the header's position in prog.Headers, -1 for none
// (metadata, in a select).
func (c *compiler) headerIndex(name string) int32 {
	return int32(slices.IndexFunc(c.prog.Headers, func(h *p4.HeaderDecl) bool { return h.Name == name }))
}

// pipeline lowers a pipeline's control and its outgoing traffic manager
// edges into one block. Without a topology the single pipeline exits.
func (c *compiler) pipeline(pl *p4.PipelineDecl, index map[string]int32, parser *parserLow) pipeLow {
	ret, edges := retExit, []*p4.TopoEdge(nil)
	if c.prog.Topology != nil {
		ret, edges = retNoEdge, c.prog.Topology.Edges
	}
	return pipeLow{decl: pl, parser: parser, code: c.block(nil, ret, func() {
		c.stmts(c.prog.Control(pl.Control).Apply)
		for _, e := range edges {
			if e.From != pl.Name {
				continue
			}
			to, ok := index[e.To]
			if !ok {
				to = retExit
			}
			var skip []int
			if e.Guard != nil {
				c.temp = 0
				c.cond(e.Guard, false, &skip)
			}
			c.emit(instr{op: opRet, dst: to, src: e})
			c.land(skip)
		}
	})}
}
