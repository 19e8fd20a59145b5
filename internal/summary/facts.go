package summary

import (
	"sort"

	"repro/internal/cfg"
	"repro/internal/expr"
	"repro/internal/sym"
)

// facts is the must-hold information at a point in the pipeline graph: the
// public pre-condition lattice. It refines Algorithm 2's per-pipeline
// intersection (lines 4–7) into a compositional dataflow over region
// summaries: instead of enumerating every path from the program entry to
// each pipeline entry (which costs O(k · m^k) prefix explorations), each
// region's summary contributes its guaranteed effects once, and entry
// facts are the meet over incoming edges. The meet is always a subset of
// the true all-paths intersection, so filtering stays sound (Lemma 1
// requires only that the pre-condition encapsulate every valid path).
type facts struct {
	// values maps variables to constants guaranteed on every live path.
	// Constants are frame-invariant, so they may seed the within-pipeline
	// value stack directly.
	values expr.Subst
	// conds are conjuncts guaranteed on every live path, keyed by their
	// rendering; they reference only virgin variables (never assigned on
	// any path), making them frame-invariant too.
	conds map[string]expr.Bool
	// modified is the set of variables possibly assigned on some path.
	modified map[expr.Var]bool
}

func newFacts() *facts {
	return &facts{values: expr.Subst{}, conds: map[string]expr.Bool{}, modified: map[expr.Var]bool{}}
}

func (f *facts) clone() *facts {
	nf := newFacts()
	for k, v := range f.values {
		nf.values[k] = v
	}
	for k, v := range f.conds {
		nf.conds[k] = v
	}
	for k := range f.modified {
		nf.modified[k] = true
	}
	return nf
}

// markModified records an assignment to v: its constant (if any) is
// dropped unless re-established, and conditions mentioning it become
// frame-variant and are discarded.
func (f *facts) markModified(v expr.Var) {
	f.modified[v] = true
	delete(f.values, v)
	for k, c := range f.conds {
		if mentions(c, func(u expr.Var) bool { return u == v }) {
			delete(f.conds, k)
		}
	}
}

// addCond records a guaranteed conjunct if it is stable (virgin vars
// only).
func (f *facts) addCond(c expr.Bool) {
	if !mentions(c, func(v expr.Var) bool { return f.modified[v] }) {
		f.conds[c.String()] = c
	}
}

// mentions reports whether b refers to a variable that in holds for.
func mentions(b expr.Bool, in func(expr.Var) bool) bool {
	switch t := b.(type) {
	case expr.Cmp:
		return mentionsArith(t.L, in) || mentionsArith(t.R, in)
	case expr.Logic:
		return mentions(t.L, in) || mentions(t.R, in)
	case expr.Not:
		return mentions(t.X, in)
	}
	return false
}

func mentionsArith(a expr.Arith, in func(expr.Var) bool) bool {
	switch t := a.(type) {
	case expr.Ref:
		return in(t.Var)
	case expr.Bin:
		return mentionsArith(t.L, in) || mentionsArith(t.R, in)
	}
	return false
}

// meet intersects two fact sets; nil means unreachable and is the
// identity.
func meet(a, b *facts) *facts {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := newFacts()
	for v, val := range a.values {
		if bv, ok := b.values[v]; ok && expr.EqualArith(val, bv) {
			out.values[v] = val
		}
	}
	for k, c := range a.conds {
		if _, ok := b.conds[k]; ok {
			out.conds[k] = c
		}
	}
	for v := range a.modified {
		out.modified[v] = true
	}
	for v := range b.modified {
		out.modified[v] = true
	}
	// Conditions must stay virgin under the merged modified set.
	out.dropModifiedConds()
	return out
}

// dropModifiedConds discards the conditions that mention a modified
// variable.
func (f *facts) dropModifiedConds() {
	for k, c := range f.conds {
		if mentions(c, func(v expr.Var) bool { return f.modified[v] }) {
			delete(f.conds, k)
		}
	}
}

// sortedConds renders the condition set deterministically.
func (f *facts) sortedConds() []expr.Bool {
	keys := make([]string, 0, len(f.conds))
	for k := range f.conds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]expr.Bool, 0, len(keys))
	for _, k := range keys {
		out = append(out, f.conds[k])
	}
	return out
}

// flow runs the pre-condition dataflow over the glue structure of the
// graph (traffic-manager guards, drop checks, init chain) and the region
// summaries.
type flow struct {
	g          *cfg.Graph
	preds      map[cfg.NodeID][]cfg.NodeID
	exitRegion map[cfg.NodeID]string
	regionOut  map[string]*facts
	memo       map[cfg.NodeID]*facts
	memoSet    map[cfg.NodeID]bool
}

// newFlow captures the predecessor structure once; summarization rewrites
// only region interiors, never the glue.
func newFlow(g *cfg.Graph, initConds []expr.Bool) *flow {
	fl := &flow{
		g:          g,
		preds:      map[cfg.NodeID][]cfg.NodeID{},
		exitRegion: map[cfg.NodeID]string{},
		regionOut:  map[string]*facts{},
		memo:       map[cfg.NodeID]*facts{},
		memoSet:    map[cfg.NodeID]bool{},
	}
	for _, n := range g.Nodes {
		for _, s := range n.Succs {
			fl.preds[s] = append(fl.preds[s], n.ID)
		}
	}
	for _, r := range g.Pipelines {
		fl.exitRegion[r.Exit] = r.Name
	}
	// The program entry carries the intent's assume clauses (§7: "we
	// group pre-conditions according to packet type").
	entry := newFacts()
	var cjs []expr.Bool
	for _, c := range initConds {
		cjs = expr.AppendConjuncts(cjs[:0], c)
		for _, cj := range cjs {
			entry.addCond(cj)
		}
	}
	fl.memo[g.Entry] = applyGlueNode(g.Node(g.Entry), entry)
	fl.memoSet[g.Entry] = true
	return fl
}

// factsAfter returns the facts holding immediately after the node, or nil
// when the node is unreachable. Region exits resolve to the region's
// summary-out facts; other nodes are glue and are interpreted abstractly.
func (fl *flow) factsAfter(id cfg.NodeID) *facts {
	if name, ok := fl.exitRegion[id]; ok {
		return fl.regionOut[name]
	}
	if fl.memoSet[id] {
		return fl.memo[id]
	}
	fl.memoSet[id] = true // break accidental cycles defensively
	var in *facts
	for _, p := range fl.preds[id] {
		in = meet(in, fl.factsAfter(p))
	}
	var out *facts
	if in != nil {
		out = applyGlueNode(fl.g.Node(id), in.clone())
	}
	fl.memo[id] = out
	return out
}

// applyGlueNode interprets one glue node abstractly. Returns nil when the
// node's predicate is definitely false under the incoming constants (a
// dead edge, e.g. a traffic-manager guard excluded by the upstream
// summary).
func applyGlueNode(n *cfg.Node, f *facts) *facts {
	switch n.Kind {
	case cfg.Predicate:
		cond := expr.SubstBool(n.Pred, f.values)
		if expr.EqualBool(cond, expr.False) {
			return nil
		}
		if !expr.EqualBool(cond, expr.True) {
			f.addCond(cond)
		}
	case cfg.Action:
		val := expr.SubstArith(n.Val, f.values)
		f.markModified(n.Var)
		if c, ok := val.(expr.Const); ok {
			f.values[n.Var] = c
		}
	case cfg.Hash, cfg.Checksum:
		f.markModified(n.Var)
	}
	return f
}

// entryFacts computes the facts at a region's entry: the meet over its
// incoming edges. nil means the region is unreachable.
func (fl *flow) entryFacts(region *cfg.Region) *facts {
	var in *facts
	for _, p := range fl.preds[region.Entry] {
		in = meet(in, fl.factsAfter(p))
	}
	if in == nil {
		return nil
	}
	// Apply the region entry marker itself (a True predicate).
	return applyGlueNode(fl.g.Node(region.Entry), in.clone())
}

// setRegionOut records a region's out-facts from its summarized paths:
// the meet over the non-dropping paths of the entry facts updated by
// each path's effects, plus the path-common stable constraints. The meet
// is taken whole rather than path by path: every variable a path changes
// is modified; a variable keeps the value the first path leaves it at if
// every path leaves it there; and a condition survives if it mentions no
// modified variable and is the entry's or one every path collected.
func (fl *flow) setRegionOut(region *cfg.Region, in *facts, templates []*sym.Template, initC []expr.Bool, initV expr.Subst, g *cfg.Graph) {
	var live []*sym.Template
	out := &facts{values: expr.Subst{}, conds: map[string]expr.Bool{}, modified: map[expr.Var]bool{}}
	for v := range in.modified {
		out.modified[v] = true
	}
	for _, t := range templates {
		if t.Dropped {
			continue // drop paths never feed downstream pipelines
		}
		live = append(live, t)
		for s, val := range t.Final {
			if val != nil && changedFrom(t.Vars[s], val, initV, g) {
				out.modified[t.Vars[s]] = true
			}
		}
	}
	if len(live) == 0 {
		fl.regionOut[region.Name] = nil
		return
	}
	first := live[0]
	// slot indexes the variable table the region's paths share: they are
	// the templates of one exploration (sym.Template.Vars).
	slot := make(map[expr.Var]int, len(first.Vars))
	for s, v := range first.Vars {
		slot[v] = s
	}
	// valueAfter is v's constant after path t, if it has one.
	valueAfter := func(t *sym.Template, v expr.Var) (expr.Arith, bool) {
		if s, ok := slot[v]; ok {
			if val := t.Final[s]; val != nil && changedFrom(v, val, initV, g) {
				_, isConst := val.(expr.Const)
				return val, isConst
			}
		}
		val, ok := in.values[v]
		return val, ok
	}
	// Values: the first path's, where every other path agrees.
	keep := func(v expr.Var) {
		val, ok := valueAfter(first, v)
		for _, t := range live[1:] {
			if !ok {
				return
			}
			tv, tok := valueAfter(t, v)
			ok = tok && expr.EqualArith(val, tv)
		}
		if ok {
			out.values[v] = val
		}
	}
	for v := range in.values {
		keep(v)
	}
	for s, val := range first.Final {
		if val != nil && changedFrom(first.Vars[s], val, initV, g) {
			keep(first.Vars[s])
		}
	}
	// Conditions: the entry's, and the first path's where every other path
	// collected one that renders the same (the first path's last of them
	// stands for it); seen stamps each key with the last path that did.
	for k, c := range in.conds {
		out.conds[k] = c
	}
	seen := map[string]int{}
	var cjs []expr.Bool
	for _, c := range first.Constraints[len(initC):] {
		cjs = expr.AppendConjuncts(cjs[:0], c)
		for _, cj := range cjs {
			if mentions(cj, func(v expr.Var) bool { return out.modified[v] }) {
				continue
			}
			k := cj.String()
			if _, entry := in.conds[k]; !entry {
				seen[k] = 0
			}
			out.conds[k] = cj
		}
	}
	var buf []byte
	for i, t := range live[1:] {
		if len(seen) == 0 {
			break
		}
		for _, c := range t.Constraints[len(initC):] {
			cjs = expr.AppendConjuncts(cjs[:0], c)
			for _, cj := range cjs {
				buf = expr.AppendBool(buf[:0], cj)
				if _, ok := seen[string(buf)]; ok {
					seen[string(buf)] = i + 1
				}
			}
		}
		for k, last := range seen {
			if last != i+1 {
				delete(seen, k)
				delete(out.conds, k)
			}
		}
	}
	out.dropModifiedConds()
	fl.regionOut[region.Name] = out
}
