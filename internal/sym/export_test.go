package sym

import (
	"repro/internal/cfg"
	"repro/internal/expr"
)

// ObservePeeks makes every guard peek of every exploration, until the
// returned function is called, also take the un-peeked route on the same
// executor (walkRun). report gets both conditions — peeked is nil where a
// run through a hash was left to be walked; it may be called from several
// goroutines.
func ObservePeeks(report func(head cfg.NodeID, peeked, walked expr.Bool)) (restore func()) {
	peekObserver = func(e *executor, head cfg.NodeID, peeked expr.Bool) {
		report(head, peeked, walkRun(e, head))
	}
	return func() { peekObserver = nil }
}

// walkRun is the guard at the end of the run from head as its own frame
// substitutes it (step's Predicate case), once the run's copies and hashes
// have bound their variables the way their frames do (step's Action and
// Hash/Checksum cases); the executor is unwound afterwards.
func walkRun(e *executor, head cfg.NodeID) expr.Bool {
	m := e.mark()
	defer e.unwind(&m)
	id := head
	for n := e.g.Node(id); n.Kind != cfg.Predicate; n = e.g.Node(id) {
		if n.Kind == cfg.Action {
			e.bind(e.p.node(id).slot, e.vals.SubstArith(n.Val, e.p.nodeRefs(id)))
		} else {
			e.bind(e.p.node(id).slot, e.evalOpaque(n))
		}
		id = n.Succs[0]
	}
	walked, _ := e.vals.SubstBool(e.g.Node(id).Pred, e.p.nodeRefs(id))
	return walked
}

// ObservePlans holds every plan newPlan compiles, until the returned
// function is called, to the full-width reference of plan_reference_test.go:
// report gets the exploration's start and stop nodes and what differs, ""
// for nothing.
func ObservePlans(report func(start cfg.NodeID, stop map[cfg.NodeID]bool, diff string)) (restore func()) {
	planObserver = func(c Config, start cfg.NodeID, p *plan) {
		report(start, c.StopAt, diffPlanFullWidth(c, start, p))
	}
	return func() { planObserver = nil }
}

// ExploreReference lets the corpus tests of package sym_test compare against
// the plain DFS of reference_test.go.
var ExploreReference = exploreReference

// RenderTemplates and CheckCountedWork are parallel_test.go's byte-comparable
// template rendering and counted-work comparison, for the corpus tests of
// package sym_test.
var (
	RenderTemplates  = renderTemplates
	CheckCountedWork = checkCountedWork
)

// exploreUnit runs u alone on r, from a fresh result, and returns what it
// explored; a unit can be run again from the same snapshot.
func (r *runner) exploreUnit(u *unit) *Result {
	r.e.res, r.e.visits = &Result{}, 0
	r.run(u)
	return r.e.result()
}

// ExploreUnits splits c's frontier at width and explores each unit alone,
// runs times in a row, on one runner, handing every result to visit.
func ExploreUnits(c Config, width, runs int, visit func(unit, run int, res *Result)) error {
	f, err := splitFrontier(c, width)
	if err != nil {
		return err
	}
	r := f.newRunner()
	for i, u := range f.units {
		for k := 0; k < runs; k++ {
			visit(i, k, r.exploreUnit(u))
		}
	}
	return nil
}
