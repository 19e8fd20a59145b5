package p4

import (
	"fmt"

	"repro/internal/expr"
)

// CheckError is a semantic error found by the typechecker.
type CheckError struct {
	Msg string
	Pos Pos
}

func (e *CheckError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Env resolves field references and widths for a checked program.
type Env struct {
	Prog *Program
	// scope maps action parameter names to widths while checking an
	// action body; nil otherwise.
	scope map[string]int
}

// NewEnv builds a resolution environment for a program.
func NewEnv(prog *Program) *Env { return &Env{Prog: prog} }

// WithScope returns an Env whose single-component references resolve
// against the given action's parameters.
func (e *Env) WithScope(a *ActionDecl) *Env {
	scope := make(map[string]int, len(a.Params))
	for _, p := range a.Params {
		scope[p.Name] = p.Width
	}
	return &Env{Prog: e.Prog, scope: scope}
}

// ResolveRef resolves a field reference to its CFG variable and width.
// Single-component references resolve to action parameters when a scope is
// active; "meta.x" resolves to metadata; "hdr.f" or bare "header.field"
// resolves to header fields.
func (e *Env) ResolveRef(ref *FieldRef) (v expr.Var, w expr.Width, err error) {
	defer catch(&err)
	v, w = e.resolve(ref)
	return v, w, nil
}

// resolve is ResolveRef inside the package: it rejects an unresolved
// reference with failCheck.
func (e *Env) resolve(ref *FieldRef) (expr.Var, expr.Width) {
	switch len(ref.Parts) {
	case 1:
		name := ref.Parts[0]
		if w, ok := e.scope[name]; ok {
			// Action parameters are substituted before CFG encoding;
			// the variable name here is a placeholder.
			return expr.Var("param$" + name), expr.Width(w)
		}
		failCheck(ref.Pos, "unresolved reference %q", name)
	case 2:
		first, second := ref.Parts[0], ref.Parts[1]
		if first == "meta" {
			for _, f := range e.Prog.Metadata {
				if f.Name == second {
					return MetaVar(second), expr.Width(f.Width)
				}
			}
			failCheck(ref.Pos, "unknown metadata field %q", second)
		}
		h := e.Prog.Header(first)
		if h == nil {
			failCheck(ref.Pos, "unknown header %q", first)
		}
		f := h.Field(second)
		if f == nil {
			failCheck(ref.Pos, "header %q has no field %q", first, second)
		}
		return HeaderFieldVar(first, second), expr.Width(f.Width)
	}
	failCheck(ref.Pos, "reference %s has too many components", ref)
	return "", 0
}

// failCheck rejects the program at pos. The checker stops at its first
// error: it unwinds to Check, or to the exported Env method that was
// called, whose catch returns it.
func failCheck(pos Pos, format string, args ...any) {
	panic(&CheckError{Msg: fmt.Sprintf(format, args...), Pos: pos})
}

// Check validates a program: name uniqueness, reference resolution, no
// recursive actions, table consistency, parser reachability, pipeline
// bindings, and topology acyclicity. It returns the first error found.
func Check(prog *Program) (err error) {
	defer catch(&err)
	checkUnique(prog)
	env := NewEnv(prog)
	for _, a := range prog.Actions {
		checkStmts(env.WithScope(a), a.Body, false)
	}
	checkNoRecursion(prog)
	for _, t := range prog.Tables {
		checkTable(env, t)
	}
	for _, pd := range prog.Parsers {
		checkParser(env, pd)
	}
	for _, c := range prog.Controls {
		checkStmts(env, c.Apply, true)
	}
	for _, pl := range prog.Pipelines {
		if pl.Control == "" || prog.Control(pl.Control) == nil {
			failCheck(pl.Pos, "pipeline %q: unknown control %q", pl.Name, pl.Control)
		}
		if pl.Parser != "" && prog.Parser(pl.Parser) == nil {
			failCheck(pl.Pos, "pipeline %q: unknown parser %q", pl.Name, pl.Parser)
		}
	}
	if prog.Topology != nil {
		checkTopology(env, prog)
	} else if len(prog.Pipelines) > 1 {
		failCheck(prog.Pipelines[1].Pos, "multi-pipeline program requires a topology block")
	}
	return nil
}

func checkUnique(prog *Program) {
	seen := map[string]Pos{}
	chk := func(kind, name string, pos Pos) {
		key := kind + ":" + name
		if prev, ok := seen[key]; ok {
			failCheck(pos, "duplicate %s %q (previous at %s)", kind, name, prev)
		}
		seen[key] = pos
	}
	for _, h := range prog.Headers {
		chk("header", h.Name, h.Pos)
		fseen := map[string]bool{}
		for _, f := range h.Fields {
			if fseen[f.Name] {
				failCheck(f.Pos, "duplicate field %q in header %q", f.Name, h.Name)
			}
			fseen[f.Name] = true
		}
	}
	mseen := map[string]bool{}
	for _, f := range prog.Metadata {
		if mseen[f.Name] {
			failCheck(f.Pos, "duplicate metadata field %q", f.Name)
		}
		mseen[f.Name] = true
	}
	for _, a := range prog.Actions {
		chk("action", a.Name, a.Pos)
	}
	for _, t := range prog.Tables {
		chk("table", t.Name, t.Pos)
	}
	for _, r := range prog.Registers {
		chk("register", r.Name, r.Pos)
	}
	for _, pd := range prog.Parsers {
		chk("parser", pd.Name, pd.Pos)
	}
	for _, c := range prog.Controls {
		chk("control", c.Name, c.Pos)
	}
	for _, pl := range prog.Pipelines {
		chk("pipeline", pl.Name, pl.Pos)
	}
}

// checkNoRecursion rejects an action that reaches itself through the
// actions it calls: every consumer inlines or runs action bodies to their
// end, and such a body has none.
func checkNoRecursion(prog *Program) {
	const visiting, done = 1, 2
	color := map[string]int{}
	var visit func(a *ActionDecl)
	var walk func(stmts []Stmt)
	visit = func(a *ActionDecl) {
		switch color[a.Name] {
		case visiting:
			failCheck(a.Pos, "action %q calls itself", a.Name)
		case done:
			return
		}
		color[a.Name] = visiting
		walk(a.Body)
		color[a.Name] = done
	}
	walk = func(stmts []Stmt) {
		for _, s := range stmts {
			switch t := s.(type) {
			case *IfStmt:
				walk(t.Then)
				walk(t.Else)
			case *CallStmt:
				if callee := prog.Action(t.Call.Name); callee != nil {
					visit(callee)
				}
			}
		}
	}
	for _, a := range prog.Actions {
		visit(a)
	}
}

func checkTable(env *Env, t *TableDecl) {
	for _, k := range t.Keys {
		env.resolve(k.Field)
	}
	if len(t.Actions) == 0 {
		failCheck(t.Pos, "table %q has no actions", t.Name)
	}
	for _, an := range t.Actions {
		if env.Prog.Action(an) == nil && an != "NoAction" {
			failCheck(t.Pos, "table %q: unknown action %q", t.Name, an)
		}
	}
	if t.DefaultAction != nil {
		checkActionCall(env, t.DefaultAction)
	}
}

func checkActionCall(env *Env, call *ActionCall) {
	if call.Name == "NoAction" {
		if len(call.Args) != 0 {
			failCheck(call.Pos, "NoAction takes no arguments")
		}
		return
	}
	a := env.Prog.Action(call.Name)
	if a == nil {
		failCheck(call.Pos, "unknown action %q", call.Name)
	}
	if len(call.Args) != len(a.Params) {
		failCheck(call.Pos, "action %q expects %d arguments, got %d", call.Name, len(a.Params), len(call.Args))
	}
	for _, arg := range call.Args {
		checkExpr(env, arg)
	}
}

func checkParser(env *Env, pd *ParserDecl) {
	if pd.State("start") == nil {
		failCheck(pd.Pos, "parser %q has no start state", pd.Name)
	}
	names := map[string]bool{"accept": true, "reject": true}
	for _, st := range pd.States {
		if names[st.Name] {
			failCheck(st.Pos, "duplicate or reserved parser state %q", st.Name)
		}
		names[st.Name] = true
	}
	for _, st := range pd.States {
		for _, s := range st.Body {
			switch t := s.(type) {
			case *ExtractStmt:
				if env.Prog.Header(t.Header) == nil {
					failCheck(t.Pos, "extract of unknown header %q", t.Header)
				}
			case *AssignStmt:
				checkStmt(env, s, false)
			default:
				failCheck(s.StmtPos(), "only extract and assignment statements are allowed in parser states")
			}
		}
		tr := st.Transition
		for _, ref := range tr.Select {
			env.resolve(ref)
		}
		targets := make([]string, 0, len(tr.Cases)+1)
		for _, c := range tr.Cases {
			if len(c.Values) != len(tr.Select) {
				failCheck(c.Pos, "select case has %d values, want %d", len(c.Values), len(tr.Select))
			}
			targets = append(targets, c.Next)
		}
		if tr.Default != "" {
			targets = append(targets, tr.Default)
		}
		for _, tgt := range targets {
			if !names[tgt] {
				failCheck(tr.Pos, "transition to unknown state %q", tgt)
			}
		}
	}
	// Parser state graph must be acyclic (the CFG from a P4 program is
	// acyclic; bounded header stacks would be unrolled by the frontend).
	color := map[string]int{}
	var visit func(name string)
	visit = func(name string) {
		if name == "accept" || name == "reject" || color[name] == 2 {
			return
		}
		if color[name] == 1 {
			failCheck(pd.Pos, "parser %q has a cycle through state %q", pd.Name, name)
		}
		color[name] = 1
		st := pd.State(name)
		for _, c := range st.Transition.Cases {
			visit(c.Next)
		}
		if st.Transition.Default != "" {
			visit(st.Transition.Default)
		}
		color[name] = 2
	}
	visit("start")
}

func checkStmts(env *Env, stmts []Stmt, inControl bool) {
	for _, s := range stmts {
		checkStmt(env, s, inControl)
	}
}

func checkStmt(env *Env, s Stmt, inControl bool) {
	switch t := s.(type) {
	case *AssignStmt:
		env.resolve(t.LHS)
		checkExpr(env, t.RHS)
	case *IfStmt:
		checkExpr(env, t.Cond)
		checkStmts(env, t.Then, inControl)
		checkStmts(env, t.Else, inControl)
	case *ApplyStmt:
		if !inControl {
			failCheck(t.Pos, "table apply is only allowed in control blocks")
		}
		if env.Prog.Table(t.Table) == nil {
			failCheck(t.Pos, "apply of unknown table %q", t.Table)
		}
	case *CallStmt:
		checkActionCall(env, t.Call)
	case *SetValidStmt:
		if env.Prog.Header(t.Header) == nil {
			failCheck(t.Pos, "setValid of unknown header %q", t.Header)
		}
	case *DropStmt:
	case *HashStmt:
		env.resolve(t.Dest)
		if len(t.Inputs) == 0 {
			failCheck(t.Pos, "hash requires at least one input field")
		}
		for _, in := range t.Inputs {
			checkExpr(env, in)
		}
	case *ChecksumStmt:
		h := env.Prog.Header(t.Header)
		if h == nil {
			failCheck(t.Pos, "update_checksum of unknown header %q", t.Header)
		}
		if h.Field(t.Field) == nil {
			failCheck(t.Pos, "header %q has no checksum field %q", t.Header, t.Field)
		}
	case *RegReadStmt:
		env.resolve(t.Dest)
		checkRegisterIndex(env, t.Reg, t.Index, t.Pos)
	case *RegWriteStmt:
		checkRegisterIndex(env, t.Reg, t.Index, t.Pos)
		checkExpr(env, t.Value)
	case *ExtractStmt:
		failCheck(t.Pos, "extract is only allowed in parser states")
	default:
		failCheck(s.StmtPos(), "unknown statement %T", s)
	}
}

func checkRegisterIndex(env *Env, reg string, index int, pos Pos) {
	r := env.Prog.Register(reg)
	if r == nil {
		failCheck(pos, "unknown register %q", reg)
	}
	if index < 0 || index >= r.Size {
		failCheck(pos, "register %q index %d out of bounds [0,%d)", reg, index, r.Size)
	}
}

func checkExpr(env *Env, e Expr) {
	switch t := e.(type) {
	case *NumberExpr:
	case *FieldRef:
		env.resolve(t)
	case *BinExpr:
		checkExpr(env, t.L)
		checkExpr(env, t.R)
	case *CmpExpr:
		checkExpr(env, t.L)
		checkExpr(env, t.R)
	case *LogicExpr:
		checkExpr(env, t.L)
		checkExpr(env, t.R)
	case *NotExpr:
		checkExpr(env, t.X)
	case *IsValidExpr:
		if env.Prog.Header(t.Header) == nil {
			failCheck(t.Pos, "isValid of unknown header %q", t.Header)
		}
	default:
		failCheck(e.ExprPos(), "unknown expression %T", e)
	}
}

func checkTopology(env *Env, prog *Program) {
	topo := prog.Topology
	if len(topo.Entries) == 0 {
		failCheck(topo.Pos, "topology has no entry pipeline")
	}
	known := map[string]bool{"exit": true}
	for _, pl := range prog.Pipelines {
		known[pl.Name] = true
	}
	for _, en := range topo.Entries {
		if !known[en] || en == "exit" {
			failCheck(topo.Pos, "topology entry %q is not a pipeline", en)
		}
	}
	adj := map[string][]string{}
	for _, e := range topo.Edges {
		if !known[e.From] || e.From == "exit" {
			failCheck(e.Pos, "topology edge from unknown pipeline %q", e.From)
		}
		if !known[e.To] {
			failCheck(e.Pos, "topology edge to unknown pipeline %q", e.To)
		}
		if e.Guard != nil {
			checkExpr(env, e.Guard)
		}
		adj[e.From] = append(adj[e.From], e.To)
	}
	// Acyclicity: recirculation must be unrolled into distinct pipeline
	// names (paper §4).
	color := map[string]int{}
	var visit func(n string)
	visit = func(n string) {
		if n == "exit" || color[n] == 2 {
			return
		}
		if color[n] == 1 {
			failCheck(topo.Pos, "topology has a cycle through pipeline %q; unroll recirculation into named pipelines", n)
		}
		color[n] = 1
		for _, m := range adj[n] {
			visit(m)
		}
		color[n] = 2
	}
	for _, en := range topo.Entries {
		visit(en)
	}
}
