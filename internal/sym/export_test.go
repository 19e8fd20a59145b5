package sym

import (
	"repro/internal/cfg"
	"repro/internal/expr"
)

// ObservePeeks makes every guard peek of every exploration, until the
// returned function is called, also take the un-peeked route on the same
// executor: bind the run's copies one after the other the way their frames
// do (step's Action case), substitute the guard the way its frame does
// (step's Predicate case), and unwind. report gets both conditions; it may
// be called from several goroutines.
func ObservePeeks(report func(head cfg.NodeID, peeked, walked expr.Bool)) (restore func()) {
	peekObserver = func(e *executor, head cfg.NodeID, peeked expr.Bool) {
		m := e.mark()
		id := head
		for n := e.g.Node(id); n.Kind == cfg.Action; n = e.g.Node(id) {
			e.bind(e.p.node(id).slot, e.vals.SubstArith(n.Val, e.p.nodeRefs(id)))
			id = n.Succs[0]
		}
		walked, _ := e.vals.SubstBool(e.g.Node(id).Pred, e.p.nodeRefs(id))
		e.unwind(&m)
		report(head, peeked, walked)
	}
	return func() { peekObserver = nil }
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
