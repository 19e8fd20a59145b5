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
func (e *Env) ResolveRef(ref *FieldRef) (expr.Var, expr.Width, error) {
	switch len(ref.Parts) {
	case 1:
		name := ref.Parts[0]
		if e.scope != nil {
			if w, ok := e.scope[name]; ok {
				// Action parameters are substituted before CFG encoding;
				// the variable name here is a placeholder.
				return expr.Var("param$" + name), expr.Width(w), nil
			}
		}
		return "", 0, &CheckError{Msg: fmt.Sprintf("unresolved reference %q", name), Pos: ref.Pos}
	case 2:
		first, second := ref.Parts[0], ref.Parts[1]
		if first == "meta" {
			for _, f := range e.Prog.Metadata {
				if f.Name == second {
					return MetaVar(second), expr.Width(f.Width), nil
				}
			}
			return "", 0, &CheckError{Msg: fmt.Sprintf("unknown metadata field %q", second), Pos: ref.Pos}
		}
		h := e.Prog.Header(first)
		if h == nil {
			return "", 0, &CheckError{Msg: fmt.Sprintf("unknown header %q", first), Pos: ref.Pos}
		}
		f := h.Field(second)
		if f == nil {
			return "", 0, &CheckError{Msg: fmt.Sprintf("header %q has no field %q", first, second), Pos: ref.Pos}
		}
		return HeaderFieldVar(first, second), expr.Width(f.Width), nil
	default:
		return "", 0, &CheckError{Msg: fmt.Sprintf("reference %s has too many components", ref), Pos: ref.Pos}
	}
}

// Check validates a program: name uniqueness, reference resolution, no
// recursive actions, table consistency, parser reachability, pipeline
// bindings, and topology acyclicity. It returns the first error found.
func Check(prog *Program) error {
	// Unique names per namespace.
	if err := checkUnique(prog); err != nil {
		return err
	}
	env := NewEnv(prog)

	for _, a := range prog.Actions {
		aEnv := env.WithScope(a)
		for _, s := range a.Body {
			if err := checkStmt(aEnv, s, false); err != nil {
				return err
			}
		}
	}
	if err := checkNoRecursion(prog); err != nil {
		return err
	}
	for _, t := range prog.Tables {
		if err := checkTable(env, t); err != nil {
			return err
		}
	}
	for _, pd := range prog.Parsers {
		if err := checkParser(env, pd); err != nil {
			return err
		}
	}
	for _, c := range prog.Controls {
		for _, s := range c.Apply {
			if err := checkStmt(env, s, true); err != nil {
				return err
			}
		}
	}
	for _, pl := range prog.Pipelines {
		if pl.Control == "" || prog.Control(pl.Control) == nil {
			return &CheckError{Msg: fmt.Sprintf("pipeline %q: unknown control %q", pl.Name, pl.Control), Pos: pl.Pos}
		}
		if pl.Parser != "" && prog.Parser(pl.Parser) == nil {
			return &CheckError{Msg: fmt.Sprintf("pipeline %q: unknown parser %q", pl.Name, pl.Parser), Pos: pl.Pos}
		}
	}
	if prog.Topology != nil {
		if err := checkTopology(env, prog); err != nil {
			return err
		}
	} else if len(prog.Pipelines) > 1 {
		return &CheckError{Msg: "multi-pipeline program requires a topology block", Pos: Pos{}}
	}
	return nil
}

func checkUnique(prog *Program) error {
	seen := map[string]Pos{}
	chk := func(kind, name string, pos Pos) error {
		key := kind + ":" + name
		if prev, ok := seen[key]; ok {
			return &CheckError{Msg: fmt.Sprintf("duplicate %s %q (previous at %s)", kind, name, prev), Pos: pos}
		}
		seen[key] = pos
		return nil
	}
	for _, h := range prog.Headers {
		if err := chk("header", h.Name, h.Pos); err != nil {
			return err
		}
		fseen := map[string]bool{}
		for _, f := range h.Fields {
			if fseen[f.Name] {
				return &CheckError{Msg: fmt.Sprintf("duplicate field %q in header %q", f.Name, h.Name), Pos: f.Pos}
			}
			fseen[f.Name] = true
		}
	}
	mseen := map[string]bool{}
	for _, f := range prog.Metadata {
		if mseen[f.Name] {
			return &CheckError{Msg: fmt.Sprintf("duplicate metadata field %q", f.Name), Pos: f.Pos}
		}
		mseen[f.Name] = true
	}
	for _, a := range prog.Actions {
		if err := chk("action", a.Name, a.Pos); err != nil {
			return err
		}
	}
	for _, t := range prog.Tables {
		if err := chk("table", t.Name, t.Pos); err != nil {
			return err
		}
	}
	for _, r := range prog.Registers {
		if err := chk("register", r.Name, r.Pos); err != nil {
			return err
		}
	}
	for _, pd := range prog.Parsers {
		if err := chk("parser", pd.Name, pd.Pos); err != nil {
			return err
		}
	}
	for _, c := range prog.Controls {
		if err := chk("control", c.Name, c.Pos); err != nil {
			return err
		}
	}
	for _, pl := range prog.Pipelines {
		if err := chk("pipeline", pl.Name, pl.Pos); err != nil {
			return err
		}
	}
	return nil
}

// checkNoRecursion rejects an action that reaches itself through the
// actions it calls: every consumer inlines or runs action bodies to their
// end, and such a body has none.
func checkNoRecursion(prog *Program) error {
	const visiting, done = 1, 2
	color := map[string]int{}
	var visit func(a *ActionDecl) error
	var walk func(stmts []Stmt) error
	visit = func(a *ActionDecl) error {
		switch color[a.Name] {
		case visiting:
			return &CheckError{Msg: fmt.Sprintf("action %q calls itself", a.Name), Pos: a.Pos}
		case done:
			return nil
		}
		color[a.Name] = visiting
		err := walk(a.Body)
		color[a.Name] = done
		return err
	}
	walk = func(stmts []Stmt) error {
		for _, s := range stmts {
			var err error
			switch t := s.(type) {
			case *IfStmt:
				if err = walk(t.Then); err == nil {
					err = walk(t.Else)
				}
			case *CallStmt:
				if callee := prog.Action(t.Call.Name); callee != nil {
					err = visit(callee)
				}
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	for _, a := range prog.Actions {
		if err := visit(a); err != nil {
			return err
		}
	}
	return nil
}

func checkTable(env *Env, t *TableDecl) error {
	for _, k := range t.Keys {
		if _, _, err := env.ResolveRef(k.Field); err != nil {
			return err
		}
	}
	if len(t.Actions) == 0 {
		return &CheckError{Msg: fmt.Sprintf("table %q has no actions", t.Name), Pos: t.Pos}
	}
	for _, an := range t.Actions {
		if env.Prog.Action(an) == nil && an != "NoAction" {
			return &CheckError{Msg: fmt.Sprintf("table %q: unknown action %q", t.Name, an), Pos: t.Pos}
		}
	}
	if t.DefaultAction != nil {
		if err := checkActionCall(env, t.DefaultAction); err != nil {
			return err
		}
	}
	return nil
}

func checkActionCall(env *Env, call *ActionCall) error {
	if call.Name == "NoAction" {
		if len(call.Args) != 0 {
			return &CheckError{Msg: "NoAction takes no arguments", Pos: call.Pos}
		}
		return nil
	}
	a := env.Prog.Action(call.Name)
	if a == nil {
		return &CheckError{Msg: fmt.Sprintf("unknown action %q", call.Name), Pos: call.Pos}
	}
	if len(call.Args) != len(a.Params) {
		return &CheckError{Msg: fmt.Sprintf("action %q expects %d arguments, got %d", call.Name, len(a.Params), len(call.Args)), Pos: call.Pos}
	}
	for _, arg := range call.Args {
		if err := checkExpr(env, arg); err != nil {
			return err
		}
	}
	return nil
}

func checkParser(env *Env, pd *ParserDecl) error {
	if pd.State("start") == nil {
		return &CheckError{Msg: fmt.Sprintf("parser %q has no start state", pd.Name), Pos: pd.Pos}
	}
	names := map[string]bool{"accept": true, "reject": true}
	for _, st := range pd.States {
		if names[st.Name] {
			return &CheckError{Msg: fmt.Sprintf("duplicate or reserved parser state %q", st.Name), Pos: st.Pos}
		}
		names[st.Name] = true
	}
	for _, st := range pd.States {
		for _, s := range st.Body {
			switch t := s.(type) {
			case *ExtractStmt:
				if env.Prog.Header(t.Header) == nil {
					return &CheckError{Msg: fmt.Sprintf("extract of unknown header %q", t.Header), Pos: t.Pos}
				}
			case *AssignStmt:
				if err := checkStmt(env, s, false); err != nil {
					return err
				}
			default:
				return &CheckError{Msg: "only extract and assignment statements are allowed in parser states", Pos: s.StmtPos()}
			}
		}
		tr := st.Transition
		for _, ref := range tr.Select {
			if _, _, err := env.ResolveRef(ref); err != nil {
				return err
			}
		}
		targets := make([]string, 0, len(tr.Cases)+1)
		for _, c := range tr.Cases {
			if len(c.Values) != len(tr.Select) {
				return &CheckError{Msg: fmt.Sprintf("select case has %d values, want %d", len(c.Values), len(tr.Select)), Pos: c.Pos}
			}
			targets = append(targets, c.Next)
		}
		if tr.Default != "" {
			targets = append(targets, tr.Default)
		}
		for _, tgt := range targets {
			if !names[tgt] {
				return &CheckError{Msg: fmt.Sprintf("transition to unknown state %q", tgt), Pos: tr.Pos}
			}
		}
	}
	// Parser state graph must be acyclic (the CFG from a P4 program is
	// acyclic; bounded header stacks would be unrolled by the frontend).
	color := map[string]int{}
	var visit func(name string) error
	visit = func(name string) error {
		if name == "accept" || name == "reject" {
			return nil
		}
		switch color[name] {
		case 1:
			return &CheckError{Msg: fmt.Sprintf("parser %q has a cycle through state %q", pd.Name, name), Pos: pd.Pos}
		case 2:
			return nil
		}
		color[name] = 1
		st := pd.State(name)
		for _, c := range st.Transition.Cases {
			if err := visit(c.Next); err != nil {
				return err
			}
		}
		if st.Transition.Default != "" {
			if err := visit(st.Transition.Default); err != nil {
				return err
			}
		}
		color[name] = 2
		return nil
	}
	return visit("start")
}

func checkStmt(env *Env, s Stmt, inControl bool) error {
	switch t := s.(type) {
	case *AssignStmt:
		if _, _, err := env.ResolveRef(t.LHS); err != nil {
			return err
		}
		return checkExpr(env, t.RHS)
	case *IfStmt:
		if err := checkExpr(env, t.Cond); err != nil {
			return err
		}
		for _, st := range t.Then {
			if err := checkStmt(env, st, inControl); err != nil {
				return err
			}
		}
		for _, st := range t.Else {
			if err := checkStmt(env, st, inControl); err != nil {
				return err
			}
		}
		return nil
	case *ApplyStmt:
		if !inControl {
			return &CheckError{Msg: "table apply is only allowed in control blocks", Pos: t.Pos}
		}
		if env.Prog.Table(t.Table) == nil {
			return &CheckError{Msg: fmt.Sprintf("apply of unknown table %q", t.Table), Pos: t.Pos}
		}
		return nil
	case *CallStmt:
		return checkActionCall(env, t.Call)
	case *SetValidStmt:
		if env.Prog.Header(t.Header) == nil {
			return &CheckError{Msg: fmt.Sprintf("setValid of unknown header %q", t.Header), Pos: t.Pos}
		}
		return nil
	case *DropStmt:
		return nil
	case *HashStmt:
		if _, _, err := env.ResolveRef(t.Dest); err != nil {
			return err
		}
		if len(t.Inputs) == 0 {
			return &CheckError{Msg: "hash requires at least one input field", Pos: t.Pos}
		}
		for _, in := range t.Inputs {
			if err := checkExpr(env, in); err != nil {
				return err
			}
		}
		return nil
	case *ChecksumStmt:
		h := env.Prog.Header(t.Header)
		if h == nil {
			return &CheckError{Msg: fmt.Sprintf("update_checksum of unknown header %q", t.Header), Pos: t.Pos}
		}
		if h.Field(t.Field) == nil {
			return &CheckError{Msg: fmt.Sprintf("header %q has no checksum field %q", t.Header, t.Field), Pos: t.Pos}
		}
		return nil
	case *RegReadStmt:
		if _, _, err := env.ResolveRef(t.Dest); err != nil {
			return err
		}
		return checkRegisterIndex(env, t.Reg, t.Index, t.Pos)
	case *RegWriteStmt:
		if err := checkRegisterIndex(env, t.Reg, t.Index, t.Pos); err != nil {
			return err
		}
		return checkExpr(env, t.Value)
	case *ExtractStmt:
		return &CheckError{Msg: "extract is only allowed in parser states", Pos: t.Pos}
	}
	return &CheckError{Msg: fmt.Sprintf("unknown statement %T", s), Pos: s.StmtPos()}
}

func checkRegisterIndex(env *Env, reg string, index int, pos Pos) error {
	r := env.Prog.Register(reg)
	if r == nil {
		return &CheckError{Msg: fmt.Sprintf("unknown register %q", reg), Pos: pos}
	}
	if index < 0 || index >= r.Size {
		return &CheckError{Msg: fmt.Sprintf("register %q index %d out of bounds [0,%d)", reg, index, r.Size), Pos: pos}
	}
	return nil
}

func checkExpr(env *Env, e Expr) error {
	switch t := e.(type) {
	case *NumberExpr:
		return nil
	case *FieldRef:
		_, _, err := env.ResolveRef(t)
		return err
	case *BinExpr:
		if err := checkExpr(env, t.L); err != nil {
			return err
		}
		return checkExpr(env, t.R)
	case *CmpExpr:
		if err := checkExpr(env, t.L); err != nil {
			return err
		}
		return checkExpr(env, t.R)
	case *LogicExpr:
		if err := checkExpr(env, t.L); err != nil {
			return err
		}
		return checkExpr(env, t.R)
	case *NotExpr:
		return checkExpr(env, t.X)
	case *IsValidExpr:
		if env.Prog.Header(t.Header) == nil {
			return &CheckError{Msg: fmt.Sprintf("isValid of unknown header %q", t.Header), Pos: t.Pos}
		}
		return nil
	}
	return &CheckError{Msg: fmt.Sprintf("unknown expression %T", e), Pos: e.ExprPos()}
}

func checkTopology(env *Env, prog *Program) error {
	topo := prog.Topology
	if len(topo.Entries) == 0 {
		return &CheckError{Msg: "topology has no entry pipeline", Pos: topo.Pos}
	}
	known := map[string]bool{"exit": true}
	for _, pl := range prog.Pipelines {
		known[pl.Name] = true
	}
	for _, en := range topo.Entries {
		if !known[en] || en == "exit" {
			return &CheckError{Msg: fmt.Sprintf("topology entry %q is not a pipeline", en), Pos: topo.Pos}
		}
	}
	adj := map[string][]string{}
	for _, e := range topo.Edges {
		if !known[e.From] || e.From == "exit" {
			return &CheckError{Msg: fmt.Sprintf("topology edge from unknown pipeline %q", e.From), Pos: e.Pos}
		}
		if !known[e.To] {
			return &CheckError{Msg: fmt.Sprintf("topology edge to unknown pipeline %q", e.To), Pos: e.Pos}
		}
		if e.Guard != nil {
			if err := checkExpr(env, e.Guard); err != nil {
				return err
			}
		}
		adj[e.From] = append(adj[e.From], e.To)
	}
	// Acyclicity: recirculation must be unrolled into distinct pipeline
	// names (paper §4).
	color := map[string]int{}
	var visit func(n string) error
	visit = func(n string) error {
		if n == "exit" {
			return nil
		}
		switch color[n] {
		case 1:
			return &CheckError{Msg: fmt.Sprintf("topology has a cycle through pipeline %q; unroll recirculation into named pipelines", n), Pos: topo.Pos}
		case 2:
			return nil
		}
		color[n] = 1
		for _, m := range adj[n] {
			if err := visit(m); err != nil {
				return err
			}
		}
		color[n] = 2
		return nil
	}
	for _, en := range topo.Entries {
		if err := visit(en); err != nil {
			return err
		}
	}
	return nil
}
