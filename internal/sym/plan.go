package sym

import (
	"slices"
	"sort"
	"strconv"

	"repro/internal/cfg"
	"repro/internal/expr"
	"repro/internal/journal"
	"repro/internal/p4"
	"repro/internal/smt"
)

// plan is the per-exploration compilation of the graph slice reachable
// from the start node: what dfs would otherwise derive on every visit by
// hashing strings. splitFrontier builds it once per exploration; every
// executor of the exploration (the splitter and the runners) shares it
// read-only.
type plan struct {
	// nodes spans the IDs the exploration can enter, from base to the
	// highest: node id is nodes[id-base]. Entries of the unreachable IDs in
	// between stay zero.
	base  cfg.NodeID
	nodes []nodePlan
	// deps pools the interned Node.Deps lists (nodePlan.depLo/depHi).
	deps []uint32
	// tags maps a tag ID back to its tag, and tagHashes to the tag as a
	// journal record carries it, hashed once here. IDs are ranks in sorted
	// tag order, so sorting IDs sorts tags.
	tags      []string
	tagHashes []journal.Tag
	// vars maps a value-stack slot back to its variable, and is every
	// template's Vars; init is the value stack seeded from
	// Config.InitValues, copied by each executor. drop is p4.DropVar's slot,
	// -1 where the exploration never mentions it.
	vars []expr.Var
	init expr.Env
	drop int32
	// refs pools the nodes' Ref-slot lists (expr.RefSlotsBool/Arith).
	refs []int32
	// preds is each predicate node's own condition, indexed as nodes (nil
	// for the rest): the table every solver of the exploration asserts from
	// by number when substitution leaves a condition as it is (newSolver,
	// condition).
	preds []expr.Bool
	// conjs pools the conjunct tests of guards (nodePlan.conjLo/conjHi),
	// and the ones a branch node reads of a successor row's guard.
	conjs []conjTest
}

// conjTest is one top-level conjunct `Ref op Const` of a condition, the
// constant on either side (op is the one that reads with the Ref on the
// left): ref is the Ref's position in the condition's Ref slot list. Where
// the Ref reads a constant k, substitution folds the conjunct to
// op.Apply(k, c) and, if that is false, the whole conjunction to False.
type conjTest struct {
	ref uint32
	op  expr.CmpOp
	c   uint64
}

type nodePlan struct {
	depLo, depHi uint32
	// refLo/refHi delimit the node's Ref slots in plan.refs: those of Pred
	// or Val, or of all Inputs (split by opaquePlan.inputEnds).
	refLo, refHi uint32
	// conjLo/conjHi delimit a guard's conjunct tests in plan.conjs; on the
	// first ID of a summary row of more than one, the tests of its guard
	// that a branch node can read before the row has run (staticallyFalse).
	conjLo, conjHi uint32
	// slot is Var's value-stack slot (Action, Hash, Checksum).
	slot   int32
	opaque *opaquePlan
}

// opaquePlan is the per-node constant part of evaluating a Hash or
// Checksum node.
type opaquePlan struct {
	w         expr.Width   // Var's width
	widths    []expr.Width // Inputs' widths
	inputEnds []uint32     // end of each input's Ref slots in plan.refs
	// fresh is the symbol the node's result becomes when its inputs are
	// not all constant. It is named after the node, not a visit sequence:
	// a DAG path enters each node at most once, so the name is unique
	// within any template, and identical no matter which worker (or split
	// point) reaches the node — parallel exploration's byte-identical-
	// output guarantee relies on that.
	fresh expr.Ref
	// freshVal is fresh, boxed once.
	freshVal expr.Arith
}

func (p *plan) node(id cfg.NodeID) *nodePlan { return &p.nodes[id-p.base] }

// newSolver returns a solver for one executor of the exploration, set up to
// assert the plan's predicates by number (condition).
func (p *plan) newSolver(opts smt.Options) *smt.Solver {
	s := smt.New(opts)
	s.SetConditions(p.preds)
	return s
}

// condition is the number the solver asserts predicate node id's own
// condition by.
func (p *plan) condition(id cfg.NodeID) int { return int(id - p.base) }

// nodeRefs returns the Ref slots of the node's Pred or Val.
func (p *plan) nodeRefs(id cfg.NodeID) []int32 {
	np := p.node(id)
	return p.refs[np.refLo:np.refHi]
}

func (p *plan) nodeDeps(id cfg.NodeID) []uint32 {
	np := p.node(id)
	return p.deps[np.depLo:np.depHi]
}

// nodeConjs returns a predicate's conjunct tests.
func (p *plan) nodeConjs(id cfg.NodeID) []conjTest {
	np := p.node(id)
	return p.conjs[np.conjLo:np.conjHi]
}

// planPred appends b's Ref slots to p.refs, in RefSlotsBool's order, and
// its top-level `Ref op Const` conjuncts to p.conjs, positioned in the slot
// list of the condition b is part of, which starts at p.refs[lo].
func (p *plan) planPred(b expr.Bool, lo int, refSlot func(expr.Ref) int32) {
	if t, ok := b.(expr.Logic); ok && t.Op == expr.LAnd {
		p.planPred(t.L, lo, refSlot)
		p.planPred(t.R, lo, refSlot)
		return
	}
	if t, ok := b.(expr.Cmp); ok {
		at := uint32(len(p.refs) - lo)
		_, lRef := t.L.(expr.Ref)
		_, rRef := t.R.(expr.Ref)
		if k, ok := t.R.(expr.Const); ok && lRef {
			p.conjs = append(p.conjs, conjTest{ref: at, op: t.Op, c: k.Val})
		} else if k, ok := t.L.(expr.Const); ok && rRef {
			p.conjs = append(p.conjs, conjTest{ref: at, op: converse(t.Op), c: k.Val})
		}
	}
	p.refs = expr.RefSlotsBool(p.refs, b, refSlot)
}

// converse is the comparison with its operands swapped: c op x ⇔ x op' c.
func converse(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.CmpGt:
		return expr.CmpLt
	case expr.CmpLt:
		return expr.CmpGt
	case expr.CmpGe:
		return expr.CmpLe
	case expr.CmpLe:
		return expr.CmpGe
	}
	return op
}

// planner compiles one plan: it interns tags (in first-seen order, which
// newPlan re-ranks) and variables (value-stack slots).
type planner struct {
	p       *plan
	g       *cfg.Graph
	tagIDs  map[string]uint32
	slots   map[expr.Var]int32
	refSlot func(expr.Ref) int32
}

func newPlanner(p *plan, g *cfg.Graph) *planner {
	pl := &planner{p: p, g: g, tagIDs: map[string]uint32{}, slots: map[expr.Var]int32{}}
	pl.refSlot = func(r expr.Ref) int32 { return pl.slot(r.Var) }
	return pl
}

func (pl *planner) slot(v expr.Var) int32 {
	sl, ok := pl.slots[v]
	if !ok {
		sl = int32(len(pl.p.vars))
		pl.slots[v] = sl
		pl.p.vars = append(pl.p.vars, v)
	}
	return sl
}

// planNode plans node id: its tags, and what its statement reads and
// writes. A summary row is planned at each ID of its span as the step it
// stands for: each obligation at its ID as a Hash or Checksum node, the
// guard at its ID as a Predicate, each assignment at its ID as an Action;
// its first ID carries its tags.
func (pl *planner) planNode(id cfg.NodeID) {
	p, n := pl.p, pl.g.Node(id)
	np := p.node(id)
	np.depLo = uint32(len(p.deps))
	for _, d := range n.Deps {
		t, ok := pl.tagIDs[d]
		if !ok {
			t = uint32(len(pl.tagIDs))
			pl.tagIDs[d] = t
		}
		p.deps = append(p.deps, t)
	}
	np.depHi = uint32(len(p.deps))
	switch n.Kind {
	case cfg.Predicate:
		pl.planGuard(id, n.Pred)
	case cfg.Action:
		pl.planAssign(id, n.Var, n.Val)
	case cfg.Hash, cfg.Checksum:
		pl.planOpaque(id, n.Var, n.Inputs)
	case cfg.Summary:
		for j, ob := range n.Row.Obligations {
			pl.planOpaque(id+cfg.NodeID(len(n.Row.Assigns)+j), ob.Var, ob.Inputs)
		}
		guard := id + cfg.NodeID(n.Row.GuardAt())
		pl.planGuard(guard, n.Pred)
		for k, a := range n.Row.Assigns {
			pl.planAssign(guard+1+cfg.NodeID(k), a.Var, a.Val)
		}
		if n.Span() > 1 {
			pl.planPeek(n, id, guard)
		}
	}
}

func (pl *planner) planGuard(id cfg.NodeID, pred expr.Bool) {
	p := pl.p
	np := p.node(id)
	np.refLo, np.conjLo = uint32(len(p.refs)), uint32(len(p.conjs))
	p.planPred(pred, len(p.refs), pl.refSlot)
	np.refHi, np.conjHi = uint32(len(p.refs)), uint32(len(p.conjs))
	p.preds[p.condition(id)] = pred
}

func (pl *planner) planAssign(id cfg.NodeID, v expr.Var, val expr.Arith) {
	p := pl.p
	np := p.node(id)
	np.slot = pl.slot(v)
	np.refLo = uint32(len(p.refs))
	p.refs = expr.RefSlotsArith(p.refs, val, pl.refSlot)
	np.refHi = uint32(len(p.refs))
}

func (pl *planner) planOpaque(id cfg.NodeID, v expr.Var, inputs []expr.Arith) {
	p := pl.p
	np := p.node(id)
	np.slot = pl.slot(v)
	np.refLo = uint32(len(p.refs))
	op := &opaquePlan{w: pl.g.Vars[v]}
	op.fresh = expr.V(expr.Var("hash$n"+strconv.Itoa(int(id))), op.w)
	op.freshVal = op.fresh
	for _, in := range inputs {
		p.refs = expr.RefSlotsArith(p.refs, in, pl.refSlot)
		op.inputEnds = append(op.inputEnds, uint32(len(p.refs)))
		op.widths = append(op.widths, in.Width())
	}
	np.opaque = op
	np.refHi = uint32(len(p.refs))
}

// planPeek records on row's first ID the conjunct tests of its guard that
// a branch node can read under the value stack as it stands before the row
// (staticallyFalse): all of them, or where the row has obligations, those
// that do not read what an obligation writes — only running it tells that.
func (pl *planner) planPeek(n *cfg.Node, row, guard cfg.NodeID) {
	p := pl.p
	head, g := p.node(row), p.node(guard)
	if len(n.Row.Obligations) == 0 {
		head.conjLo, head.conjHi = g.conjLo, g.conjHi
		return
	}
	refs := p.nodeRefs(guard)
	head.conjLo = uint32(len(p.conjs))
	for _, c := range p.conjs[g.conjLo:g.conjHi] {
		written := false
		for _, ob := range n.Row.Obligations {
			written = written || refs[c.ref] == pl.slots[ob.Var]
		}
		if !written {
			p.conjs = append(p.conjs, c)
		}
	}
	head.conjHi = uint32(len(p.conjs))
}

// newPlan compiles the nodes an exploration of c from start can enter
// (stop nodes included: the sibling batcher reads their predicates). It
// walks them first, in the order they are planned, and sizes the per-node
// tables to the span of their IDs, summary rows' reserved IDs included: a
// summarized pipeline's exploration enters a few hundred of a graph's tens
// of thousands of nodes.
func newPlan(c Config, start cfg.NodeID) *plan {
	g := c.Graph
	seen := make([]uint64, (len(g.Nodes)+63)/64) // a bit per node ID
	reached := func(id cfg.NodeID) bool { return seen[id/64]&(1<<(id%64)) != 0 }
	var order []cfg.NodeID
	lo, hi := start, start
	for stack := []cfg.NodeID{start}; len(stack) > 0; {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reached(id) {
			continue
		}
		seen[id/64] |= 1 << (id % 64)
		order = append(order, id)
		n := g.Node(id)
		lo, hi = min(lo, id), max(hi, id+cfg.NodeID(n.Span()-1))
		if !c.StopAt[id] {
			stack = append(stack, n.Succs...)
		}
	}
	p := &plan{base: lo, nodes: make([]nodePlan, hi-lo+1), preds: make([]expr.Bool, hi-lo+1), drop: -1}
	pl := newPlanner(p, g)
	for _, id := range order {
		pl.planNode(id)
	}
	tagIDs := pl.tagIDs
	p.tags = make([]string, 0, len(tagIDs))
	for t := range tagIDs {
		p.tags = append(p.tags, t)
	}
	sort.Strings(p.tags)
	rank := make([]uint32, len(p.tags))
	p.tagHashes = make([]journal.Tag, len(p.tags))
	for r, t := range p.tags {
		rank[tagIDs[t]] = uint32(r)
		p.tagHashes[r] = journal.TagOf(t)
	}
	for i, d := range p.deps {
		p.deps[i] = rank[d]
	}
	// Variables only the seeded value stack names take the last slots, in
	// name order, so that a template's Vars is a function of the exploration.
	initVars := make([]expr.Var, 0, len(c.InitValues))
	for v := range c.InitValues {
		initVars = append(initVars, v)
	}
	slices.Sort(initVars)
	for _, v := range initVars {
		pl.slot(v)
	}
	p.init = make(expr.Env, len(p.vars))
	for v, a := range c.InitValues {
		p.init[pl.slots[v]] = a
	}
	if s, ok := pl.slots[p4.DropVar]; ok {
		p.drop = s
	}
	if planObserver != nil {
		planObserver(c, start, p)
	}
	return p
}

// planObserver, which only tests set, sees every plan newPlan compiles and
// what it was compiled from.
var planObserver func(c Config, start cfg.NodeID, p *plan)
