package sym

import (
	"fmt"
	"reflect"
	"sort"

	"repro/internal/cfg"
	"repro/internal/expr"
)

// newPlanFullWidth is newPlan as it was before plans spanned only the IDs an
// exploration enters, kept as the oracle (TestPlanMatchesFullWidth): nodes
// and preds sized to the whole graph, base 0, and planned as the graph is
// walked. Only the seeded variables' slots follow newPlan's name order (they
// followed map order). It also returns which IDs the exploration can enter,
// a summary row's span included.
func newPlanFullWidth(c Config, start cfg.NodeID) (*plan, []bool) {
	g := c.Graph
	p := &plan{nodes: make([]nodePlan, len(g.Nodes)), preds: make([]expr.Bool, len(g.Nodes))}
	pl := newPlanner(p, g)
	seen := make([]bool, len(g.Nodes))
	for stack := []cfg.NodeID{start}; len(stack) > 0; {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		n := g.Node(id)
		for k := 0; k < n.Span(); k++ {
			seen[id+cfg.NodeID(k)] = true
		}
		pl.planNode(id)
		if !c.StopAt[id] {
			stack = append(stack, n.Succs...)
		}
	}
	p.tags = make([]string, 0, len(pl.tagIDs))
	for t := range pl.tagIDs {
		p.tags = append(p.tags, t)
	}
	sort.Strings(p.tags)
	rank := make([]uint32, len(p.tags))
	for r, t := range p.tags {
		rank[pl.tagIDs[t]] = uint32(r)
	}
	for i, d := range p.deps {
		p.deps[i] = rank[d]
	}
	initVars := make([]expr.Var, 0, len(c.InitValues))
	for v := range c.InitValues {
		initVars = append(initVars, v)
	}
	sort.Slice(initVars, func(i, j int) bool { return initVars[i] < initVars[j] })
	for _, v := range initVars {
		pl.slot(v)
	}
	p.init = make(expr.Env, len(p.vars))
	for v, a := range c.InitValues {
		p.init[pl.slots[v]] = a
	}
	return p, seen
}

// diffPlanFullWidth compiles the exploration of c from start the way
// newPlanFullWidth does and says how got, newPlan's plan of it, differs:
// "" for not at all. got must span exactly the reachable IDs and agree with
// the reference on each of them — its plan entry and its condition — and on
// every pool, the variable table, the seeded value stack and the tags.
func diffPlanFullWidth(c Config, start cfg.NodeID, got *plan) string {
	ref, seen := newPlanFullWidth(c, start)
	lo, hi := cfg.None, cfg.None
	for id, ok := range seen {
		if ok {
			if lo == cfg.None {
				lo = cfg.NodeID(id)
			}
			hi = cfg.NodeID(id)
		}
	}
	if got.base != lo || len(got.nodes) != int(hi-lo+1) || len(got.preds) != len(got.nodes) {
		return fmt.Sprintf("plan spans %d nodes from %d (%d conditions), reachable IDs span %d..%d",
			len(got.nodes), got.base, len(got.preds), lo, hi)
	}
	for id := lo; id <= hi; id++ {
		if !seen[id] {
			continue
		}
		if !reflect.DeepEqual(*got.node(id), *ref.node(id)) {
			return fmt.Sprintf("node %d planned %+v, reference %+v", id, *got.node(id), *ref.node(id))
		}
		if !reflect.DeepEqual(got.preds[got.condition(id)], ref.preds[id]) {
			return fmt.Sprintf("node %d condition %v, reference %v", id, got.preds[got.condition(id)], ref.preds[id])
		}
	}
	for _, pool := range []struct {
		name     string
		got, ref any
	}{
		{"refs", got.refs, ref.refs},
		{"deps", got.deps, ref.deps},
		{"conjs", got.conjs, ref.conjs},
		{"vars", got.vars, ref.vars},
		{"init", got.init, ref.init},
		{"tags", got.tags, ref.tags},
	} {
		if !reflect.DeepEqual(pool.got, pool.ref) {
			return fmt.Sprintf("%s %v, reference %v", pool.name, pool.got, pool.ref)
		}
	}
	return ""
}
