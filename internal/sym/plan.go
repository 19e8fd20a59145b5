package sym

import (
	"slices"
	"sort"
	"strconv"

	"repro/internal/cfg"
	"repro/internal/expr"
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
	// tags maps a tag ID back to its tag. IDs are ranks in sorted tag
	// order, so sorting IDs sorts tags.
	tags []string
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
	// peeks holds the guards a branch node can decide from its own frame
	// (nodePlan.peek); peekRefs and peekDefs pool their re-pointed Ref slots
	// and, in parallel, what each reads while its slot is unbound.
	peeks    []peekPlan
	peekRefs []int32
	peekDefs []expr.Arith
	// conjs pools the conjunct tests of predicates (nodePlan.conjLo/conjHi)
	// and of the guards peeked through a hash (peekPlan.conjLo/conjHi).
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

// peekPlan lets a branch node read the guard at the end of a successor's
// run without walking the run. A run is straight-line copies x ← y (a bare
// Ref) and hash or checksum nodes, one successor each and no stop node,
// that ends at a Predicate, itself no stop node: the chains code summary
// encodes are saves @v ← v, then obligations, then the guard. The guard's
// Ref slots are re-pointed through the copies, so reading them under the
// value stack as it stands before the run gives what the guard's own frame
// would read after it: a reference to x reads y's slot and, while that is
// unbound, the copy's own Val — which is what the copy's frame binds x to.
// What a hash of the run writes is only known once the hash has run, so a
// run with one is peeked by its guard's conjunct tests alone (testOnly),
// less those that read a hash's output.
type peekPlan struct {
	guard cfg.NodeID
	// refLo/refHi delimit the guard's Ref slots in plan.peekRefs and their
	// defaults in plan.peekDefs (nil where no copy of the run wrote the
	// variable).
	refLo, refHi uint32
	// conjLo/conjHi delimit the conjunct tests in plan.conjs.
	conjLo, conjHi uint32
	testOnly       bool
}

type nodePlan struct {
	depLo, depHi uint32
	// refLo/refHi delimit the node's Ref slots in plan.refs: those of Pred
	// or Val, or of all Inputs (split by opaquePlan.inputEnds).
	refLo, refHi uint32
	// conjLo/conjHi delimit a predicate's conjunct tests in plan.conjs.
	conjLo, conjHi uint32
	// slot is Var's value-stack slot (Action, Hash, Checksum).
	slot   int32
	opaque *opaquePlan
	// peek is 1 + the index in plan.peeks of the guard this node's run ends
	// at, recorded for the successors of branch nodes; 0 for none.
	peek int32
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

// peekSource is where a peeked reference reads: a slot and, while that is
// unbound, def; or nowhere before the run has run, for what a hash of the
// run writes.
type peekSource struct {
	slot   int32
	def    expr.Arith
	hashed bool
}

// planPeek records the guard that head's run ends at, if head starts a run.
// via is scratch, made on first use and handed back: where each variable
// the run writes gets its value, by slot.
func (p *plan) planPeek(g *cfg.Graph, stop map[cfg.NodeID]bool, head cfg.NodeID, via map[int32]peekSource) map[int32]peekSource {
	clear(via)
	testOnly := false
	id := head
	for {
		n := g.Node(id)
		if stop[id] {
			return via
		}
		if n.Kind == cfg.Predicate {
			break
		}
		if len(n.Succs) != 1 {
			return via
		}
		if via == nil {
			via = map[int32]peekSource{}
		}
		slot := p.node(id).slot
		switch _, copies := n.Val.(expr.Ref); {
		case n.Kind == cfg.Action && copies:
			// The copied variable is the node's one Ref slot; an earlier copy
			// of the run may have written it.
			from := p.nodeRefs(id)[0]
			src, ok := via[from]
			if !ok {
				src = peekSource{slot: from, def: n.Val}
			}
			via[slot] = src
		case n.Kind == cfg.Hash || n.Kind == cfg.Checksum:
			via[slot] = peekSource{slot: slot, hashed: true}
			testOnly = true
		default:
			return via
		}
		id = n.Succs[0]
	}
	if id == head {
		return via // a predicate successor is the sibling batch's to decide
	}
	guard, refs := p.node(id), p.nodeRefs(id)
	pk := peekPlan{guard: id, conjLo: guard.conjLo, conjHi: guard.conjHi, testOnly: testOnly}
	if testOnly {
		pk.conjLo = uint32(len(p.conjs))
		for _, c := range p.conjs[guard.conjLo:guard.conjHi] {
			if !via[refs[c.ref]].hashed {
				p.conjs = append(p.conjs, c)
			}
		}
		pk.conjHi = uint32(len(p.conjs))
		if pk.conjHi == pk.conjLo {
			return via // nothing to test: the run is walked
		}
	}
	pk.refLo = uint32(len(p.peekRefs))
	for _, s := range refs {
		src, ok := via[s]
		if !ok {
			src = peekSource{slot: s}
		}
		p.peekRefs = append(p.peekRefs, src.slot)
		p.peekDefs = append(p.peekDefs, src.def)
	}
	pk.refHi = uint32(len(p.peekRefs))
	p.peeks = append(p.peeks, pk)
	p.node(head).peek = int32(len(p.peeks))
	return via
}

// newPlan compiles the nodes an exploration of c from start can enter
// (stop nodes included: the sibling batcher reads their predicates). It
// walks them first, in the order they are planned, and sizes the per-node
// tables to the span of their IDs: a summarized pipeline's exploration
// enters a few hundred of a graph's tens of thousands of nodes.
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
		lo, hi = min(lo, id), max(hi, id)
		if !c.StopAt[id] {
			stack = append(stack, g.Node(id).Succs...)
		}
	}
	p := &plan{base: lo, nodes: make([]nodePlan, hi-lo+1), preds: make([]expr.Bool, hi-lo+1), drop: -1}
	tagIDs := map[string]uint32{} // first-seen order; re-ranked below
	slots := map[expr.Var]int32{}
	slot := func(v expr.Var) int32 {
		sl, ok := slots[v]
		if !ok {
			sl = int32(len(p.vars))
			slots[v] = sl
			p.vars = append(p.vars, v)
		}
		return sl
	}
	refSlot := func(r expr.Ref) int32 { return slot(r.Var) }
	for _, id := range order {
		n := g.Node(id)
		np := p.node(id)
		np.depLo = uint32(len(p.deps))
		for _, d := range n.Deps {
			tid, ok := tagIDs[d]
			if !ok {
				tid = uint32(len(tagIDs))
				tagIDs[d] = tid
			}
			p.deps = append(p.deps, tid)
		}
		np.depHi = uint32(len(p.deps))
		np.refLo = uint32(len(p.refs))
		switch n.Kind {
		case cfg.Predicate:
			np.conjLo = uint32(len(p.conjs))
			p.planPred(n.Pred, len(p.refs), refSlot)
			np.conjHi = uint32(len(p.conjs))
			p.preds[p.condition(id)] = n.Pred
		case cfg.Action:
			np.slot = slot(n.Var)
			p.refs = expr.RefSlotsArith(p.refs, n.Val, refSlot)
		case cfg.Hash, cfg.Checksum:
			np.slot = slot(n.Var)
			op := &opaquePlan{w: g.Vars[n.Var]}
			op.fresh = expr.V(expr.Var("hash$n"+strconv.Itoa(int(n.ID))), op.w)
			op.freshVal = op.fresh
			for _, in := range n.Inputs {
				p.refs = expr.RefSlotsArith(p.refs, in, refSlot)
				op.inputEnds = append(op.inputEnds, uint32(len(p.refs)))
				op.widths = append(op.widths, in.Width())
			}
			np.opaque = op
		}
		np.refHi = uint32(len(p.refs))
	}
	// Peeks read the slots and Ref lists of a whole run, so they are planned
	// once every reachable node has been: for the successors of the branch
	// nodes the walk expands.
	var via map[int32]peekSource
	for id := lo; id <= hi; id++ {
		n := g.Node(id)
		if !reached(id) || len(n.Succs) < 2 || c.StopAt[id] {
			continue
		}
		for _, s := range n.Succs {
			if p.node(s).peek == 0 {
				via = p.planPeek(g, c.StopAt, s, via)
			}
		}
	}
	p.tags = make([]string, 0, len(tagIDs))
	for t := range tagIDs {
		p.tags = append(p.tags, t)
	}
	sort.Strings(p.tags)
	rank := make([]uint32, len(p.tags))
	for r, t := range p.tags {
		rank[tagIDs[t]] = uint32(r)
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
		slot(v)
	}
	p.init = make(expr.Env, len(p.vars))
	for v, a := range c.InitValues {
		p.init[slots[v]] = a
	}
	if s, ok := slots[p4.DropVar]; ok {
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
