package cfg

import (
	"fmt"
	"slices"

	"repro/internal/expr"
	"repro/internal/p4"
	"repro/internal/rules"
)

// EntryVar is the intrinsic input selecting which entry pipeline (i.e.
// which switch/port group) a packet is injected into. The test driver maps
// its value to an injection point.
const EntryVar expr.Var = "pkt.entry"

// EntryVarWidth is the width of EntryVar.
const EntryVarWidth expr.Width = 8

// Build encodes a checked program plus its table rule set into a CFG,
// implementing the frontend of Figure 2. The resulting graph is acyclic,
// has one region per pipeline (single-entry single-exit), and lists
// regions in topological order.
func Build(prog *p4.Program, rs *rules.Set) (*Graph, error) {
	if err := p4.Check(prog); err != nil {
		return nil, err
	}
	tables, err := rules.Bind(prog, rs)
	if err != nil {
		return nil, err
	}
	b := &builder{
		g:      NewGraph(),
		prog:   prog,
		env:    p4.NewEnv(prog),
		tables: tables,
		contOf: map[string]NodeID{},
	}
	if err := b.build(); err != nil {
		return nil, err
	}
	if err := b.g.CheckAcyclic(); err != nil {
		return nil, err
	}
	return b.g, nil
}

type builder struct {
	g       *Graph
	prog    *p4.Program
	env     *p4.Env
	tables  map[string]*rules.Table
	hashSeq int
	// dropExit is the terminal node dropped packets reach.
	dropExit NodeID
	// progExit is the terminal node forwarded packets reach.
	progExit NodeID
	// curExit is the exit marker of the pipeline being built; drops inside
	// the pipeline route here so regions stay single-entry single-exit
	// (required by the code summary substitution, §3.4).
	curExit NodeID
	// contOf maps a pipeline name to its continue node: the drop==0 glue
	// node after the region exit, where topology edges attach.
	contOf map[string]NodeID
}

// frontier is the set of nodes whose successor lists receive the next
// node.
type frontier []NodeID

func (b *builder) linkAll(fr frontier, dst NodeID) {
	for _, id := range fr {
		b.g.Link(id, dst)
	}
}

// seq appends node n after the frontier and returns the new frontier.
func (b *builder) seq(fr frontier, n *Node) frontier {
	b.linkAll(fr, n.ID)
	return frontier{n.ID}
}

func (b *builder) build() error {
	g := b.g

	// Declare every header field, validity bit and metadata field so the
	// graph's variable table is complete even for never-referenced fields
	// (the driver serializes whole headers).
	for _, h := range b.prog.Headers {
		g.Vars[p4.ValidVar(h.Name)] = 1
		for _, f := range h.Fields {
			g.Vars[p4.HeaderFieldVar(h.Name, f.Name)] = expr.Width(f.Width)
		}
	}
	for _, f := range b.prog.Metadata {
		g.Vars[p4.MetaVar(f.Name)] = expr.Width(f.Width)
	}
	g.Vars[p4.DropVar] = 1

	entry := g.AddPredicate(expr.True, "", "program entry")
	g.Entry = entry.ID

	exitN := g.AddPredicate(expr.True, "", "program exit")
	b.progExit = exitN.ID
	dropN := g.AddPredicate(expr.True, "", "packet dropped")
	b.dropExit = dropN.ID

	// Zero-initialize metadata, validity bits and the drop flag, matching
	// P4 semantics for user metadata.
	fr := frontier{entry.ID}
	for _, h := range b.prog.Headers {
		fr = b.seq(fr, g.AddAction(p4.ValidVar(h.Name), expr.C(0, 1), "", "init validity "+h.Name))
	}
	for _, f := range b.prog.Metadata {
		fr = b.seq(fr, g.AddAction(p4.MetaVar(f.Name), expr.C(0, expr.Width(f.Width)), "", "init meta."+f.Name))
	}
	fr = b.seq(fr, g.AddAction(p4.DropVar, expr.C(0, 1), "", "init drop flag"))

	// Build pipeline regions in topological order.
	order, err := b.pipelineOrder()
	if err != nil {
		return err
	}
	regionOf := map[string]*Region{}
	for _, name := range order {
		pl := b.prog.Pipeline(name)
		r, err := b.buildPipeline(pl)
		if err != nil {
			return err
		}
		g.Pipelines = append(g.Pipelines, r)
		regionOf[name] = r
	}

	// Wire program entry to entry pipelines.
	entries := b.entryPipelines()
	if len(entries) == 1 {
		b.linkAll(fr, regionOf[entries[0]].Entry)
	} else {
		g.Vars[EntryVar] = EntryVarWidth
		for i, name := range entries {
			guard := g.AddPredicate(
				expr.Eq(expr.V(EntryVar, EntryVarWidth), expr.C(uint64(i), EntryVarWidth)),
				"", fmt.Sprintf("inject into %s", name))
			b.linkAll(fr, guard.ID)
			g.Link(guard.ID, regionOf[name].Entry)
		}
	}

	// Wire topology edges from region continue nodes (after the drop
	// check).
	if b.prog.Topology != nil {
		for _, e := range b.prog.Topology.Edges {
			from := b.contOf[e.From]
			var dst NodeID
			if e.To == "exit" {
				dst = b.progExit
			} else {
				dst = regionOf[e.To].Entry
			}
			if e.Guard != nil {
				cond, err := b.env.Bool(e.Guard, nil)
				if err != nil {
					return err
				}
				guard := g.AddPredicate(cond, "", fmt.Sprintf("traffic manager %s -> %s", e.From, e.To))
				g.Link(from, guard.ID)
				g.Link(guard.ID, dst)
			} else {
				g.Link(from, dst)
			}
		}
	} else if len(order) == 1 {
		g.Link(b.contOf[order[0]], b.progExit)
	}
	return nil
}

// entryPipelines returns the topology entries, or the single pipeline.
func (b *builder) entryPipelines() []string {
	if b.prog.Topology != nil {
		return b.prog.Topology.Entries
	}
	return []string{b.prog.Pipelines[0].Name}
}

// pipelineOrder topologically sorts pipelines according to topology edges
// (Algorithm 2 line 2).
func (b *builder) pipelineOrder() ([]string, error) {
	if b.prog.Topology == nil {
		if len(b.prog.Pipelines) != 1 {
			return nil, fmt.Errorf("cfg: multi-pipeline program without topology")
		}
		return []string{b.prog.Pipelines[0].Name}, nil
	}
	indeg := map[string]int{}
	adj := map[string][]string{}
	for _, pl := range b.prog.Pipelines {
		indeg[pl.Name] = 0
	}
	for _, e := range b.prog.Topology.Edges {
		if e.To == "exit" {
			continue
		}
		adj[e.From] = append(adj[e.From], e.To)
		indeg[e.To]++
	}
	// Kahn's algorithm with deterministic tie-breaking by declaration
	// order.
	var queue []string
	for _, pl := range b.prog.Pipelines {
		if indeg[pl.Name] == 0 {
			queue = append(queue, pl.Name)
		}
	}
	var order []string
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, m := range adj[n] {
			indeg[m]--
			if indeg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	if len(order) != len(b.prog.Pipelines) {
		return nil, fmt.Errorf("cfg: topology contains a cycle")
	}
	return order, nil
}

// buildPipeline encodes one pipeline into a single-entry single-exit
// region.
func (b *builder) buildPipeline(pl *p4.PipelineDecl) (*Region, error) {
	g := b.g
	entry := g.AddPredicate(expr.True, pl.Name, "enter pipeline "+pl.Name)
	exit := g.AddPredicate(expr.True, pl.Name, "exit pipeline "+pl.Name)
	r := &Region{Name: pl.Name, Switch: pl.Switch, Kind: pl.Kind.String(), Entry: entry.ID, Exit: exit.ID}
	b.curExit = exit.ID

	fr := frontier{entry.ID}
	if pl.Parser != "" {
		var err error
		fr, err = b.buildParser(fr, b.prog.Parser(pl.Parser), pl.Name)
		if err != nil {
			return nil, err
		}
	}
	ctl := b.prog.Control(pl.Control)
	fr, err := b.encodeStmts(fr, ctl.Apply, nil, pl.Name, 0)
	if err != nil {
		return nil, err
	}
	b.linkAll(fr, exit.ID)

	// Drop check after the region: dropped packets terminate, live
	// packets continue to the traffic manager glue.
	dropV := expr.V(p4.DropVar, 1)
	dropP := g.AddPredicate(expr.Eq(dropV, expr.C(1, 1)), "", "drop check "+pl.Name)
	contP := g.AddPredicate(expr.Eq(dropV, expr.C(0, 1)), "", "continue "+pl.Name)
	g.Link(exit.ID, dropP.ID)
	g.Link(exit.ID, contP.ID)
	g.Link(dropP.ID, b.dropExit)
	b.contOf[pl.Name] = contP.ID
	return r, nil
}

// buildParser encodes a parser state machine. Each state's chain is built
// once and shared via stateEntry, keeping the CFG compact for diamond-
// shaped parsers.
func (b *builder) buildParser(fr frontier, pd *p4.ParserDecl, pipe string) (frontier, error) {
	g := b.g
	accept := g.AddPredicate(expr.True, pipe, "parser accept")

	stateEntry := map[string]NodeID{}
	var buildState func(name string) (NodeID, error)
	buildState = func(name string) (NodeID, error) {
		if name == "accept" {
			return accept.ID, nil
		}
		if name == "reject" {
			// Parser reject drops the packet.
			n := g.AddAction(p4.DropVar, expr.C(1, 1), pipe, "parser reject")
			g.Link(n.ID, b.curExit)
			return n.ID, nil
		}
		if id, ok := stateEntry[name]; ok {
			return id, nil
		}
		st := pd.State(name)
		head := g.AddPredicate(expr.True, pipe, "parser state "+name)
		stateEntry[name] = head.ID
		cur := frontier{head.ID}
		for _, s := range st.Body {
			switch t := s.(type) {
			case *p4.ExtractStmt:
				cur = b.seq(cur, g.AddAction(p4.ValidVar(t.Header), expr.C(1, 1), pipe, "extract "+t.Header))
			case *p4.AssignStmt:
				v, _, err := b.env.ResolveRef(t.LHS)
				if err != nil {
					return 0, err
				}
				val, err := b.env.Arith(t.RHS, nil)
				if err != nil {
					return 0, err
				}
				cur = b.seq(cur, g.AddAction(v, val, pipe, "parser assign"))
			}
		}
		tr := st.Transition
		if len(tr.Select) == 0 {
			next, err := buildState(tr.Default)
			if err != nil {
				return 0, err
			}
			b.linkAll(cur, next)
			return head.ID, nil
		}
		// Select: one predicate branch per case plus a default branch.
		var defaultCond expr.Bool = expr.True
		for _, c := range tr.Cases {
			var cond expr.Bool = expr.True
			for k, ref := range tr.Select {
				v, w, err := b.env.ResolveRef(ref)
				if err != nil {
					return 0, err
				}
				cond = expr.And(cond, expr.Eq(expr.V(v, w), expr.C(c.Values[k], w)))
			}
			p := g.AddPredicate(cond, pipe, fmt.Sprintf("parser %s select -> %s", name, c.Next))
			b.linkAll(cur, p.ID)
			next, err := buildState(c.Next)
			if err != nil {
				return 0, err
			}
			g.Link(p.ID, next)
			defaultCond = expr.And(defaultCond, expr.Negate(cond))
		}
		defaultCond = expr.SimplifyBool(defaultCond)
		if !expr.EqualBool(defaultCond, expr.False) {
			p := g.AddPredicate(defaultCond, pipe, fmt.Sprintf("parser %s select default -> %s", name, tr.Default))
			b.linkAll(cur, p.ID)
			next, err := buildState(tr.Default)
			if err != nil {
				return 0, err
			}
			g.Link(p.ID, next)
		}
		return head.ID, nil
	}

	startID, err := buildState("start")
	if err != nil {
		return nil, err
	}
	b.linkAll(fr, startID)
	return frontier{accept.ID}, nil
}

// scope binds action parameter names to argument expressions during action
// inlining.
type scope map[string]expr.Arith

// ref resolves a single-component reference to the argument bound to that
// parameter; p4.Env.Arith asks it first about every field reference.
func (sc scope) ref(r *p4.FieldRef) (expr.Arith, bool) {
	if len(r.Parts) != 1 {
		return nil, false
	}
	a, ok := sc[r.Parts[0]]
	return a, ok
}

const maxInlineDepth = 8

// encodeStmts encodes a statement list, returning the resulting frontier.
// An empty frontier means every path through the statements terminated
// (e.g. unconditional drop).
func (b *builder) encodeStmts(fr frontier, stmts []p4.Stmt, sc scope, pipe string, depth int) (frontier, error) {
	var err error
	for _, s := range stmts {
		if len(fr) == 0 {
			return fr, nil // unreachable code after a drop
		}
		fr, err = b.encodeStmt(fr, s, sc, pipe, depth)
		if err != nil {
			return nil, err
		}
	}
	return fr, nil
}

func (b *builder) encodeStmt(fr frontier, s p4.Stmt, sc scope, pipe string, depth int) (frontier, error) {
	g := b.g
	switch t := s.(type) {
	case *p4.AssignStmt:
		v, _, err := b.resolveLHS(t.LHS, sc)
		if err != nil {
			return nil, err
		}
		val, err := b.env.Arith(t.RHS, sc.ref)
		if err != nil {
			return nil, err
		}
		return b.seq(fr, g.AddAction(v, val, pipe, "assign "+t.LHS.String())), nil

	case *p4.IfStmt:
		cond, err := b.env.Bool(t.Cond, sc.ref)
		if err != nil {
			return nil, err
		}
		thenP := g.AddPredicate(cond, pipe, "if-then")
		elseP := g.AddPredicate(expr.SimplifyBool(expr.Negate(cond)), pipe, "if-else")
		b.linkAll(fr, thenP.ID)
		b.linkAll(fr, elseP.ID)
		thenFr, err := b.encodeStmts(frontier{thenP.ID}, t.Then, sc, pipe, depth)
		if err != nil {
			return nil, err
		}
		elseFr, err := b.encodeStmts(frontier{elseP.ID}, t.Else, sc, pipe, depth)
		if err != nil {
			return nil, err
		}
		return append(thenFr, elseFr...), nil

	case *p4.ApplyStmt:
		return b.encodeTable(fr, b.tables[t.Table], pipe, depth)

	case *p4.CallStmt:
		return b.encodeActionCall(fr, t.Call, sc, pipe, depth)

	case *p4.SetValidStmt:
		val := uint64(0)
		if t.Valid {
			val = 1
		}
		cmt := "setInvalid " + t.Header
		if t.Valid {
			cmt = "setValid " + t.Header
		}
		return b.seq(fr, g.AddAction(p4.ValidVar(t.Header), expr.C(val, 1), pipe, cmt)), nil

	case *p4.DropStmt:
		n := g.AddAction(p4.DropVar, expr.C(1, 1), pipe, "drop")
		b.linkAll(fr, n.ID)
		g.Link(n.ID, b.curExit)
		return nil, nil // path terminates within the pipeline

	case *p4.HashStmt:
		v, w, err := b.resolveLHS(t.Dest, sc)
		if err != nil {
			return nil, err
		}
		inputs := make([]expr.Arith, len(t.Inputs))
		for i, in := range t.Inputs {
			a, err := b.env.Arith(in, sc.ref)
			if err != nil {
				return nil, err
			}
			inputs[i] = a
		}
		b.hashSeq++
		return b.seq(fr, g.AddHash(v, w, inputs, pipe, fmt.Sprintf("hash#%d -> %s", b.hashSeq, t.Dest))), nil

	case *p4.ChecksumStmt:
		h := b.prog.Header(t.Header)
		var inputs []expr.Arith
		for _, f := range h.Fields {
			if f.Name == t.Field {
				continue
			}
			inputs = append(inputs, expr.V(p4.HeaderFieldVar(t.Header, f.Name), expr.Width(f.Width)))
		}
		csField := h.Field(t.Field)
		v := p4.HeaderFieldVar(t.Header, t.Field)
		return b.seq(fr, g.AddChecksum(v, expr.Width(csField.Width), inputs, pipe, "update_checksum "+t.Header)), nil

	case *p4.RegReadStmt:
		v, _, err := b.resolveLHS(t.Dest, sc)
		if err != nil {
			return nil, err
		}
		reg := b.prog.Register(t.Reg)
		rv := p4.RegisterVar(t.Reg, t.Index)
		b.g.Vars[rv] = expr.Width(reg.Width)
		return b.seq(fr, g.AddAction(v, expr.V(rv, expr.Width(reg.Width)), pipe, fmt.Sprintf("reg_read %s[%d]", t.Reg, t.Index))), nil

	case *p4.RegWriteStmt:
		reg := b.prog.Register(t.Reg)
		rv := p4.RegisterVar(t.Reg, t.Index)
		b.g.Vars[rv] = expr.Width(reg.Width)
		val, err := b.env.Arith(t.Value, sc.ref)
		if err != nil {
			return nil, err
		}
		return b.seq(fr, g.AddAction(rv, val, pipe, fmt.Sprintf("reg_write %s[%d]", t.Reg, t.Index))), nil
	}
	return nil, fmt.Errorf("cfg: cannot encode statement %T", s)
}

// encodeTable expands a table apply into one branch per rule plus a miss
// branch, following §3.1: "Predicate nodes correspond to ... the match
// fields in the match-action table rules", "Action nodes correspond to the
// action fields in the match-action table rules".
func (b *builder) encodeTable(fr frontier, t *rules.Table, pipe string, depth int) (frontier, error) {
	g := b.g
	tbl := t.Decl
	// Binding rejects an exact-only table's duplicate entries, so its
	// entries are pairwise disjoint and the higher-priority negations can
	// be omitted (this is what keeps Fig. 7-style tables linear).
	exactOnly := !slices.ContainsFunc(tbl.Keys, func(k *p4.TableKey) bool { return k.Match != p4.MatchExact })

	var out frontier
	var higher []expr.Bool // match conditions of higher-priority entries
	for i, row := range t.Rows {
		cond := rowCond(t.Keys, row.Cells)
		full := cond
		if !exactOnly {
			for _, h := range higher {
				full = expr.And(full, expr.Negate(h))
			}
		}
		higher = append(higher, cond)
		full = expr.SimplifyBool(full)
		if expr.EqualBool(full, expr.False) {
			continue // statically shadowed entry
		}
		// The entry's predicate carries its dependency tag, so the
		// regression layer can retire exactly the verdicts that ran through
		// it: the inlined action body is reachable only through it.
		p := g.AddPredicate(full, pipe, fmt.Sprintf("table %s entry %d", tbl.Name, i))
		p.Deps = []string{rules.DepTag(tbl.Name, row.Entry)}
		b.linkAll(fr, p.ID)
		actFr := frontier{p.ID}
		if row.Action != nil {
			args := make([]expr.Arith, len(row.Args))
			for k, v := range row.Args {
				args[k] = expr.C(v, expr.MaxWidth)
			}
			var err error
			if actFr, err = b.inline(actFr, row.Action, args, pipe, depth); err != nil {
				return nil, fmt.Errorf("table %s entry %d: %w", tbl.Name, i, err)
			}
		}
		out = append(out, actFr...)
	}

	// Miss branch: no entry matched → default action.
	var missCond expr.Bool = expr.True
	for _, h := range higher {
		missCond = expr.And(missCond, expr.Negate(h))
	}
	missCond = expr.SimplifyBool(missCond)
	if !expr.EqualBool(missCond, expr.False) {
		p := g.AddPredicate(missCond, pipe, fmt.Sprintf("table %s miss", tbl.Name))
		p.Deps = []string{rules.MissTag(tbl.Name)}
		b.linkAll(fr, p.ID)
		missFr := frontier{p.ID}
		if def := tbl.DefaultAction; def != nil {
			var err error
			if missFr, err = b.encodeActionCall(missFr, def, nil, pipe, depth); err != nil {
				return nil, fmt.Errorf("table %s default: %w", tbl.Name, err)
			}
		}
		out = append(out, missFr...)
	}
	return out, nil
}

// rowCond is the condition under which every cell of a bound row covers
// its key.
func rowCond(keys []expr.Ref, cells []rules.Cell) expr.Bool {
	var cond expr.Bool = expr.True
	for j, c := range cells {
		k, w := keys[j], keys[j].W
		switch {
		case c.Range:
			cond = expr.And(cond, expr.Cmp{Op: expr.CmpGe, L: k, R: expr.C(c.Val, w)})
			cond = expr.And(cond, expr.Cmp{Op: expr.CmpLe, L: k, R: expr.C(c.Mask, w)})
		case c.Mask == w.Mask():
			cond = expr.And(cond, expr.Eq(k, expr.C(c.Val, w)))
		case c.Mask != 0:
			cond = expr.And(cond, expr.Eq(expr.Bin{Op: expr.OpAnd, L: k, R: expr.C(c.Mask, w)}, expr.C(c.Val, w)))
		}
	}
	return cond
}

// encodeActionCall inlines an action invocation from the program text,
// its arguments evaluated in the caller's scope.
func (b *builder) encodeActionCall(fr frontier, call *p4.ActionCall, sc scope, pipe string, depth int) (frontier, error) {
	if call.Name == "NoAction" {
		return fr, nil
	}
	args := make([]expr.Arith, len(call.Args))
	for i, x := range call.Args {
		a, err := b.env.Arith(x, sc.ref)
		if err != nil {
			return nil, err
		}
		args[i] = a
	}
	return b.inline(fr, b.prog.Action(call.Name), args, pipe, depth)
}

// inline encodes an action's body with each parameter bound to its
// argument, truncated to the parameter's width.
func (b *builder) inline(fr frontier, a *p4.ActionDecl, args []expr.Arith, pipe string, depth int) (frontier, error) {
	if depth > maxInlineDepth {
		return nil, fmt.Errorf("cfg: action inlining depth exceeded at %q", a.Name)
	}
	inner := make(scope, len(a.Params))
	for i, p := range a.Params {
		inner[p.Name] = truncTo(args[i], expr.Width(p.Width))
	}
	return b.encodeStmts(fr, a.Body, inner, pipe, depth+1)
}

// truncTo coerces an expression to a width, by retagging constants or
// masking wider expressions.
func truncTo(a expr.Arith, w expr.Width) expr.Arith {
	if c, ok := a.(expr.Const); ok {
		return expr.C(c.Val, w)
	}
	if a.Width() == w {
		return a
	}
	if a.Width() < w {
		return a // zero-extension is implicit for unsigned bit-vectors
	}
	return expr.Simplify(expr.Bin{Op: expr.OpAnd, L: a, R: expr.C(w.Mask(), a.Width())})
}

// resolveLHS resolves an assignment target, rejecting action parameters.
func (b *builder) resolveLHS(ref *p4.FieldRef, sc scope) (expr.Var, expr.Width, error) {
	if len(ref.Parts) == 1 && sc != nil {
		if _, ok := sc[ref.Parts[0]]; ok {
			return "", 0, fmt.Errorf("cfg: cannot assign to action parameter %q", ref.Parts[0])
		}
	}
	return b.env.ResolveRef(ref)
}
