package switchsim

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/hashfn"
	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/rules"
)

// The reference: a tree-walking interpreter of the source semantics over a
// string-keyed state, the engine the product ran until the program was
// lowered (compile.go). It is the oracle the lowered program is compared
// with — every statement resolves its names, scans the fault list and
// walks the p4.Expr tree per packet, which is slow and obviously right.
// Only tests build one; its names are exported for the differential tests
// in package switchsim_test, which drive it with the driver's concretized
// suites and so cannot live inside this package.

type Reference struct {
	prog    *p4.Program
	faults  Faults
	env     *p4.Env
	entries []string
	// rules is the rule set as of NewReference, priority order per table.
	rules map[string][]*rules.Entry
	regs  map[expr.Var]uint64
	// injects numbers packets for CrashOnPacket; applies and probes count
	// table lookups and the entries they examined.
	injects, applies, probes uint64
}

func NewReference(prog *p4.Program, rs *rules.Set, faults Faults) *Reference {
	t := &Reference{
		prog: prog, faults: faults, env: p4.NewEnv(prog),
		rules: map[string][]*rules.Entry{}, regs: map[expr.Var]uint64{},
		entries: []string{prog.Pipelines[0].Name},
	}
	if prog.Topology != nil {
		t.entries = prog.Topology.Entries
	}
	for _, tbl := range prog.Tables {
		if rs != nil && !faults.has(TableMissDefault{tbl.Name}) {
			t.rules[tbl.Name] = rs.Entries(tbl.Name)
		}
	}
	return t
}

// Counts returns the table applies made and the entries they examined.
func (t *Reference) Counts() (applies, probes uint64) { return t.applies, t.probes }

// Registers returns the register file: cells never written are absent.
func (t *Reference) Registers() map[expr.Var]uint64 { return t.regs }

// Registers returns the lowered target's register file, nonzero cells
// only, for comparison with the reference's.
func (t *Target) Registers() map[expr.Var]uint64 {
	regs := map[expr.Var]uint64{}
	for s := t.vars.PerPacket(); s < t.vars.Len(); s++ {
		if v := t.m.slots[s]; v != 0 {
			regs[t.vars.Name(s)] = v
		}
	}
	return regs
}

func (fs Faults) crashOnPacket(n uint64) bool {
	for _, f := range fs {
		if t, ok := f.(CrashOnPacket); ok && t.N == n {
			return true
		}
	}
	return false
}

// refExec carries the per-packet interpreter state.
type refExec struct {
	t     *Reference
	st    expr.State
	trace []string
	drop  bool
}

func (e *refExec) tracef(format string, args ...any) {
	e.trace = append(e.trace, fmt.Sprintf(format, args...))
}

// Inject is the reference Inject: traced, with the emitted packet in
// Result.Output.
func (t *Reference) Inject(entryIdx int, wire []byte) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &CrashError{Panic: fmt.Sprint(r)}
		}
	}()
	if entryIdx < 0 || entryIdx >= len(t.entries) {
		return nil, fmt.Errorf("switchsim: entry %d out of range [0,%d)", entryIdx, len(t.entries))
	}
	t.injects++
	if t.faults.crashOnPacket(t.injects) {
		panic(fmt.Sprintf("injected crash on packet %d", t.injects))
	}
	// Zero-initialize metadata, validity and fields, matching P4 semantics.
	e := &refExec{t: t, st: expr.State{p4.DropVar: 0}}
	for _, h := range t.prog.Headers {
		e.st[p4.ValidVar(h.Name)] = 0
		for _, f := range h.Fields {
			e.st[p4.HeaderFieldVar(h.Name, f.Name)] = 0
		}
	}
	for _, f := range t.prog.Metadata {
		e.st[p4.MetaVar(f.Name)] = 0
	}
	res = &Result{}
	finish := func(dropped bool) (*Result, error) {
		res.Dropped, res.Trace, res.Final = dropped, e.trace, e.st
		return res, nil
	}

	cur := t.entries[entryIdx]
	payload := wire
	if parser := t.prog.Pipeline(cur).Parser; parser != "" {
		if payload, err = e.parse(parser, wire); err != nil {
			e.tracef("parser rejected: %v", err)
			return finish(true)
		}
	}
	for _, f := range t.faults {
		if cw, ok := f.(CrashWhen); ok && e.st[p4.ValidVar(cw.Header)] == 1 && e.st[p4.HeaderFieldVar(cw.Header, cw.Field)] == cw.Value {
			panic(fmt.Sprintf("injected crash: %s.%s == %d", cw.Header, cw.Field, cw.Value))
		}
	}

	for hop := 0; ; hop++ {
		if hop == len(t.prog.Pipelines) {
			return nil, fmt.Errorf("switchsim: route did not reach exit after %d pipelines", hop)
		}
		pl := t.prog.Pipeline(cur)
		res.Pipelines = append(res.Pipelines, cur)
		e.tracef("enter pipeline %s (switch %s)", cur, pl.Switch)
		if err := e.stmts(t.prog.Control(pl.Control).Apply, nil, pl.Name); err != nil {
			return nil, err
		}
		if e.drop {
			e.tracef("packet dropped in %s", cur)
			return finish(true)
		}
		next, exited := e.route(cur)
		if exited {
			break
		}
		if next == "" {
			e.tracef("no traffic manager edge matched from %s; packet lost", cur)
			return finish(true)
		}
		cur = next
	}
	res.Output = packet.FromState(t.prog, e.st, payload)
	return finish(false)
}

// route evaluates traffic manager edges from pipeline cur; returns the
// next pipeline, or exited=true for the exit edge.
func (e *refExec) route(cur string) (next string, exited bool) {
	if e.t.prog.Topology == nil {
		return "", true
	}
	for _, edge := range e.t.prog.Topology.Edges {
		if edge.From != cur {
			continue
		}
		if edge.Guard != nil {
			if v, err := e.boolExpr(edge.Guard, nil); err != nil || !v {
				continue
			}
		}
		e.tracef("traffic manager: %s -> %s", edge.From, edge.To)
		return edge.To, edge.To == "exit"
	}
	return "", false
}

// parse runs the parser FSM over the wire bytes, loading extracted fields
// into the state as it goes (a header extracted twice: the last instance
// wins) and dispatching selects on the loaded values; validity bits and
// the visited states' assignments follow once the parse has accepted.
func (e *refExec) parse(parserName string, wire []byte) ([]byte, error) {
	pd := e.t.prog.Parser(parserName)
	off := 0
	var extracted, visited []string
	for state := "start"; state != "accept"; {
		if state == "reject" {
			return nil, fmt.Errorf("packet: parser rejected")
		}
		sd := pd.State(state)
		visited = append(visited, state)
		for _, s := range sd.Body {
			ex, ok := s.(*p4.ExtractStmt)
			if !ok {
				continue
			}
			for _, f := range e.t.prog.Header(ex.Header).Fields {
				if off+f.Width > len(wire)*8 {
					return nil, fmt.Errorf("packet: extracting %s.%s: packet: truncated at bit %d", ex.Header, f.Name, len(wire)*8)
				}
				e.st[p4.HeaderFieldVar(ex.Header, f.Name)] = packet.ReadBits(wire, off, f.Width)
				off += f.Width
			}
			extracted = append(extracted, ex.Header)
		}
		tr := sd.Transition
		vals := make([]uint64, len(tr.Select))
		for i, ref := range tr.Select {
			ok := false
			for _, h := range extracted {
				ok = ok || (len(ref.Parts) == 2 && h == ref.Parts[0])
			}
			if !ok {
				return nil, fmt.Errorf("packet: select on unextracted field %s", ref)
			}
			vals[i] = e.st[p4.HeaderFieldVar(ref.Parts[0], ref.Parts[1])]
		}
		state = tr.Default
	cases:
		for _, c := range tr.Cases {
			for i := range vals {
				if vals[i] != c.Values[i] {
					continue cases
				}
			}
			state = c.Next
			break
		}
	}
	for _, hn := range extracted {
		if e.t.faults.has(ExtractNoValidity{hn}) {
			e.tracef("extract %s (validity NOT set: %s)", hn, "missing compilation flag")
		} else {
			e.st[p4.ValidVar(hn)] = 1
		}
		e.tracef("extract %s", hn)
	}
	for _, sn := range visited {
		for _, s := range pd.State(sn).Body {
			if as, ok := s.(*p4.AssignStmt); ok {
				if err := e.assign(as.LHS, as.RHS, nil, "parser"); err != nil {
					return nil, err
				}
			}
		}
	}
	if start := (off + 7) / 8; start < len(wire) {
		return wire[start:], nil
	}
	return nil, nil
}

// --- Statement interpreter ---

func (e *refExec) stmts(list []p4.Stmt, sc map[string]uint64, pipe string) error {
	for _, s := range list {
		if e.drop {
			return nil
		}
		if err := e.stmt(s, sc, pipe); err != nil {
			return err
		}
	}
	return nil
}

func (e *refExec) stmt(s p4.Stmt, sc map[string]uint64, pipe string) error {
	switch t := s.(type) {
	case *p4.AssignStmt:
		return e.assign(t.LHS, t.RHS, sc, pipe)
	case *p4.IfStmt:
		c, err := e.boolExpr(t.Cond, sc)
		if err != nil {
			return err
		}
		if c {
			e.tracef("[%s] if (%s) -> then", pipe, p4.ExprString(t.Cond))
			return e.stmts(t.Then, sc, pipe)
		}
		e.tracef("[%s] if (%s) -> else", pipe, p4.ExprString(t.Cond))
		return e.stmts(t.Else, sc, pipe)
	case *p4.ApplyStmt:
		return e.applyTable(t.Table, pipe)
	case *p4.CallStmt:
		return e.call(t.Call, sc, pipe)
	case *p4.SetValidStmt:
		if t.Valid && e.t.faults.has(SetValidNoOp{t.Header}) {
			e.tracef("[%s] setValid(%s) — compiled to no-op (backend bug)", pipe, t.Header)
			return nil
		}
		v := uint64(0)
		if t.Valid {
			v = 1
		}
		e.st[p4.ValidVar(t.Header)] = v
		e.tracef("[%s] setValid(%s)=%d", pipe, t.Header, v)
		return nil
	case *p4.DropStmt:
		e.st[p4.DropVar] = 1
		e.drop = true
		e.tracef("[%s] mark_drop()", pipe)
		return nil
	case *p4.HashStmt:
		dv, dw, err := e.t.env.ResolveRef(t.Dest)
		if err != nil {
			return err
		}
		vals := make([]uint64, len(t.Inputs))
		widths := make([]expr.Width, len(t.Inputs))
		for i, in := range t.Inputs {
			if vals[i], widths[i], err = e.arithWidth(in, sc); err != nil {
				return err
			}
		}
		h := hashfn.Hash(vals, widths, dw)
		e.setVar(dv, dw, h, pipe)
		e.tracef("[%s] hash -> %s = %d", pipe, dv, h)
		return nil
	case *p4.ChecksumStmt:
		if e.t.faults.has(ChecksumSkip{t.Header}) {
			e.tracef("[%s] update_checksum(%s) — compiled to no-op (backend bug)", pipe, t.Header)
			return nil
		}
		h := e.t.prog.Header(t.Header)
		var vals []uint64
		var widths []expr.Width
		for _, f := range h.Fields {
			if f.Name != t.Field {
				vals = append(vals, e.st[p4.HeaderFieldVar(t.Header, f.Name)])
				widths = append(widths, expr.Width(f.Width))
			}
		}
		cs := hashfn.Checksum(vals, widths)
		e.setVar(p4.HeaderFieldVar(t.Header, t.Field), expr.Width(h.Field(t.Field).Width), cs, pipe)
		e.tracef("[%s] update_checksum(%s) = %#x", pipe, t.Header, cs)
		return nil
	case *p4.RegReadStmt:
		dv, dw, err := e.t.env.ResolveRef(t.Dest)
		if err != nil {
			return err
		}
		val := e.t.regs[p4.RegisterVar(t.Reg, t.Index)]
		e.setVar(dv, dw, val, pipe)
		e.tracef("[%s] %s = reg_read(%s, %d) = %d", pipe, dv, t.Reg, t.Index, val)
		return nil
	case *p4.RegWriteStmt:
		v, _, err := e.arithWidth(t.Value, sc)
		if err != nil {
			return err
		}
		v = expr.Width(e.t.prog.Register(t.Reg).Width).Trunc(v)
		e.t.regs[p4.RegisterVar(t.Reg, t.Index)] = v
		e.tracef("[%s] reg_write(%s, %d, %d)", pipe, t.Reg, t.Index, v)
		return nil
	}
	return fmt.Errorf("switchsim: unknown statement %T", s)
}

// covers reports whether key value v of a widthBits-bit key satisfies m as
// written, apart from the cells rules.Bind lowers it to.
func covers(m rules.Match, v uint64, widthBits int) bool {
	switch m.Kind {
	case rules.Exact:
		return v == m.Val
	case rules.Ternary:
		return v&m.Mask == m.Val&m.Mask
	case rules.LPM:
		full := expr.Width(widthBits).Mask()
		mask := full &^ (full >> max(m.Plen, 0))
		return v&mask == m.Val&mask
	case rules.Range:
		return v >= m.Lo && v <= m.Hi
	}
	return m.Kind == rules.Wildcard
}

// applyTable performs concrete match-action lookup: highest-priority
// matching entry wins, otherwise the default action runs.
func (e *refExec) applyTable(name, pipe string) error {
	tbl := e.t.prog.Table(name)
	e.t.applies++
	for i, en := range e.t.rules[name] {
		e.t.probes++
		match := true
		for _, k := range tbl.Keys {
			v, w, err := e.arithWidth(k.Field, nil)
			if err != nil {
				return err
			}
			if !covers(en.Match(k.Field.String()), v, int(w)) {
				match = false
				break
			}
		}
		if match {
			e.tracef("[%s] table %s hit entry %d -> %s", pipe, name, i, en.Action)
			args := make([]p4.Expr, len(en.Args))
			for j, a := range en.Args {
				args[j] = &p4.NumberExpr{Val: a}
			}
			return e.call(&p4.ActionCall{Name: en.Action, Args: args}, nil, pipe)
		}
	}
	def := tbl.DefaultAction
	if def == nil {
		def = &p4.ActionCall{Name: "NoAction"}
	}
	e.tracef("[%s] table %s miss -> %s", pipe, name, def.Name)
	return e.call(def, nil, pipe)
}

// call executes an action with its arguments bound in a fresh scope.
func (e *refExec) call(c *p4.ActionCall, sc map[string]uint64, pipe string) error {
	if c.Name == "NoAction" {
		return nil
	}
	a := e.t.prog.Action(c.Name)
	if a == nil {
		return fmt.Errorf("switchsim: unknown action %q", c.Name)
	}
	inner := make(map[string]uint64, len(a.Params))
	for i, p := range a.Params {
		v, _, err := e.arithWidth(c.Args[i], sc)
		if err != nil {
			return err
		}
		inner[p.Name] = expr.Width(p.Width).Trunc(v)
	}
	return e.stmts(a.Body, inner, pipe)
}

// assign evaluates and stores, honouring WrongAssign and FieldOverlap
// faults.
func (e *refExec) assign(lhs *p4.FieldRef, rhs p4.Expr, sc map[string]uint64, pipe string) error {
	v, w, err := e.t.env.ResolveRef(lhs)
	if err != nil {
		return err
	}
	val, _, err := e.arithWidth(rhs, sc)
	if err != nil {
		return err
	}
	val = w.Trunc(val)
	if bits, ok := e.t.faults.wrongAssign(string(v)); ok {
		val = expr.Width(bits).Trunc(val)
		e.tracef("[%s] %s = %d (TRUNCATED by backend bug)", pipe, v, val)
	} else {
		e.tracef("[%s] %s = %d", pipe, v, val)
	}
	e.setVar(v, w, val, pipe)
	return nil
}

// setVar stores a value, propagating to overlapping fields (pragma-misuse
// fault).
func (e *refExec) setVar(v expr.Var, w expr.Width, val uint64, pipe string) {
	e.st[v] = w.Trunc(val)
	for _, other := range e.t.faults.overlapsOf(string(v)) {
		ov := expr.Var(other)
		if _, declared := e.st[ov]; !declared {
			continue // no such container: nothing to clobber
		}
		ow := expr.MaxWidth
		if h, f, ok := p4.IsHeaderFieldVar(ov); ok {
			ow = expr.Width(e.t.prog.Header(h).Field(f).Width)
		} else if f, ok := strings.CutPrefix(string(ov), "meta."); ok {
			for _, fd := range e.t.prog.Metadata {
				if fd.Name == f {
					ow = expr.Width(fd.Width)
				}
			}
		}
		e.st[ov] = ow.Trunc(val)
		e.tracef("[%s] %s clobbered via pragma overlap with %s", pipe, other, v)
	}
}

// arithWidth evaluates a source arithmetic expression concretely:
// literals and parameters are MaxWidth wide, a binary operation as wide
// as its wider operand.
func (e *refExec) arithWidth(x p4.Expr, sc map[string]uint64) (uint64, expr.Width, error) {
	switch t := x.(type) {
	case *p4.NumberExpr:
		return t.Val, expr.MaxWidth, nil
	case *p4.FieldRef:
		if len(t.Parts) == 1 {
			if v, ok := sc[t.Parts[0]]; ok {
				return v, expr.MaxWidth, nil
			}
		}
		v, w, err := e.t.env.ResolveRef(t)
		if err != nil {
			return 0, 0, err
		}
		return w.Trunc(e.st[v]), w, nil
	case *p4.BinExpr:
		l, lw, err := e.arithWidth(t.L, sc)
		if err != nil {
			return 0, 0, err
		}
		r, rw, err := e.arithWidth(t.R, sc)
		if err != nil {
			return 0, 0, err
		}
		w := max(lw, rw)
		return t.Op.Apply(l, r, w), w, nil
	case *p4.NotExpr:
		v, w, err := e.arithWidth(t.X, sc)
		if err != nil {
			return 0, 0, err
		}
		return w.Trunc(^v), w, nil
	}
	return 0, 0, fmt.Errorf("switchsim: expression %T is not arithmetic", x)
}

// boolExpr evaluates a source boolean expression concretely, honouring the
// WrongCompare fault.
func (e *refExec) boolExpr(x p4.Expr, sc map[string]uint64) (bool, error) {
	switch t := x.(type) {
	case *p4.CmpExpr:
		l, _, err := e.arithWidth(t.L, sc)
		if err != nil {
			return false, err
		}
		r, _, err := e.arithWidth(t.R, sc)
		if err != nil {
			return false, err
		}
		op := t.Op
		if e.t.faults.has(WrongCompare{}) {
			switch op {
			case expr.CmpGt:
				op = expr.CmpGe
			case expr.CmpLt:
				op = expr.CmpLe
			}
		}
		switch op {
		case expr.CmpEq:
			return l == r, nil
		case expr.CmpNe:
			return l != r, nil
		case expr.CmpLt:
			return l < r, nil
		case expr.CmpGt:
			return l > r, nil
		case expr.CmpLe:
			return l <= r, nil
		case expr.CmpGe:
			return l >= r, nil
		}
		return false, fmt.Errorf("switchsim: comparison %v", t.Op)
	case *p4.LogicExpr:
		l, err := e.boolExpr(t.L, sc)
		if err != nil {
			return false, err
		}
		if t.Op == expr.LAnd && !l {
			return false, nil
		}
		if t.Op == expr.LOr && l {
			return true, nil
		}
		return e.boolExpr(t.R, sc)
	case *p4.NotExpr:
		v, err := e.boolExpr(t.X, sc)
		if err != nil {
			return false, err
		}
		return !v, nil
	case *p4.IsValidExpr:
		return e.st[p4.ValidVar(t.Header)] == 1, nil
	}
	return false, fmt.Errorf("switchsim: expression %T is not boolean", x)
}
