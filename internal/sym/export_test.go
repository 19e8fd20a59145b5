package sym

import (
	"repro/internal/cfg"
	"repro/internal/expr"
)

// ObservePeeks makes every guard peek of every exploration, until the
// returned function is called, also take the un-peeked route on the same
// executor (walkRow). report gets both conditions — peeked is nil where a
// row with obligations was left to be run; it may be called from several
// goroutines.
func ObservePeeks(report func(row cfg.NodeID, peeked, walked expr.Bool)) (restore func()) {
	peekObserver = func(e *executor, row cfg.NodeID, peeked expr.Bool) {
		report(row, peeked, walkRow(e, row))
	}
	return func() { peekObserver = nil }
}

// walkRow is the guard of summary row id as the row's frame substitutes it
// (executor.row), once the row's obligations have bound their variables;
// the executor is unwound afterwards.
func walkRow(e *executor, id cfg.NodeID) expr.Bool {
	m := e.mark()
	defer e.unwind(&m)
	n := e.g.Node(id)
	for j, ob := range n.Row.Obligations {
		at := id + cfg.NodeID(len(n.Row.Assigns)+j)
		e.bind(e.p.node(at).slot, e.evalOpaque(at, ob.Kind, ob.Inputs))
	}
	walked, _ := e.vals.SubstBool(n.Pred, e.p.nodeRefs(id+cfg.NodeID(n.Row.GuardAt())))
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

// ColdTable and Adopted are crashsafe_test.go's verdict table with holes and
// the journal over it, for the corpus tests of package sym_test.
var (
	ColdTable = coldTable
	Adopted   = adopted
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
