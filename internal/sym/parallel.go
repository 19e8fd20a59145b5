package sym

import (
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/cfg"
	"repro/internal/expr"
	"repro/internal/obs"
)

// An exploration is a frontier and a pool, at any worker count.
//
// Splitting (frontier.split) runs the ordinary executor over the top of the
// tree with a spill hook: once the product of branch widths along the
// current path reaches the target width (4× the worker count, so there are
// enough pending sibling subtrees to balance the pool), the subtree rooted
// at the current node is packaged as a unit — path prefix, condition stack,
// value-stack snapshot, hash obligations, the branch verdict its parent's
// sibling batch handed down — instead of being explored. Leaf- and stop-nodes
// below the split frontier also spill, so the splitter itself never emits
// templates; units therefore appear in exactly the order one DFS would first
// reach them. The frontier of a single runner is not split: it is the root.
//
// The pool (frontier.explore) is the caller's goroutine plus one goroutine
// per further worker. Each is a runner: it owns one smt.Solver for its whole
// lifetime (solver construction and the initial constraints' assertion are
// amortized across units) and claims units from an atomic counter. Per unit
// it takes the prefix condition stack as the executor's own and explores the
// subtree with the same executor code (runner.run). The solver receives the
// prefix the way it receives any condition, at the first query the journal
// cannot answer (executor.sync), so a unit answered wholly from the journal
// asserts nothing.
//
// Determinism: templates are collected per unit and spliced in unit order,
// then IDs are renumbered sequentially. Since unit order equals DFS visit
// order and the executor below a split point is given identical solver
// inputs in identical order wherever the split falls, the resulting template
// set — paths, constraints, models, obligations, ordering, IDs — is
// byte-identical at any worker count (reference_test.go holds the plain DFS
// the differentials compare against). The only exception is budget
// truncation (MaxPaths) on more than one runner, which is
// cooperative and therefore cuts a nondeterministic suffix; untruncated runs
// are exactly reproducible.

// sharedState is an exploration's budget and cooperative cancel, common to
// the splitter and every runner of its frontier.
type sharedState struct {
	paths    atomic.Uint64
	halted   atomic.Bool
	maxPaths uint64
}

// split runs the top of the exploration on a splitter executor whose spill
// hook packages every subtree at the frontier — width pending siblings
// reached, or a leaf or stop node — as a unit. The hard cap of 16×width
// bounds the unit list when the graph branches far wider than width (each
// extra sibling then spills as one coarse unit, which is still balanced
// because coarse siblings at the same depth have similar subtree sizes).
// What the splitter itself explored is kept as f.top.
func (f *frontier) split(width int) {
	s := newExecutor(f.cfg, f.cfg.Options, f.plan, f.seed, f.shared)
	s.widthProd = 1
	s.spill = func(id cfg.NodeID, pend pendingBranch) bool {
		atEnd := f.cfg.Graph.Node(id).IsLeaf() || s.stop[id]
		if !atEnd && s.widthProd < width && len(f.units) < 16*width {
			return false // keep splitting above the frontier
		}
		f.units = append(f.units, &unit{
			start:       id,
			path:        append([]cfg.NodeID(nil), s.path...),
			constraints: append([]expr.Bool(nil), s.constraints[len(f.cfg.InitConstraints):]...),
			condNums:    append([]int32(nil), s.condNums[len(f.cfg.InitConstraints):]...),
			values:      append(expr.Env(nil), s.vals...),
			obligations: cloneObligations(s.obligations),
			hash:        s.curHash(),
			deps:        append([]uint32(nil), s.deps...),
			pending:     pend,
		})
		return true
	}
	s.dfs(f.cfg.Start)
	f.top = s.result()
}

// run explores one unit from a copy of its snapshot in the runner's own
// stacks (so a unit can be re-run). The exploration's initial constraints
// stay at the bottom of the condition stack, and in the solver once a query
// has synced them; the rest of the previous unit's goes, and sync brings the
// solver up to u's prefix at the first query the journal cannot answer.
// Panics are arrested per path inside dfs, and nothing outside its frames
// can raise one.
func (r *runner) run(u *unit) {
	e, n := r.e, len(r.f.cfg.InitConstraints)
	e.popTo(n)
	e.vals = append(e.vals[:0], u.values...)
	e.constraints = append(e.constraints[:n], u.constraints...)
	e.condNums = append(e.condNums[:n], u.condNums...)
	e.obligations = append(e.obligations[:0], u.obligations...)
	e.path = append(e.path[:0], u.path...)
	e.hashes = append(e.hashes[:0], u.hash)
	e.truncDeps(0)
	e.pushDeps(u.deps)
	e.pending = u.pending
	e.journaling = e.opts.Journal != nil
	e.dfs(u.start)
}

// explore drains the frontier on workers runners — the caller's goroutine
// and workers-1 more — and splices what they emitted in unit order. Units
// are claimed via an atomic index, so fast runners steal the slack of slow
// ones.
func (f *frontier) explore(workers int) *Result {
	var next atomic.Int64
	emitted := make([][]*Template, len(f.units))
	runners := make([]*runner, workers)
	// fatal holds the first panic that escaped a runner, which only Strict
	// lets happen: no caller can recover a panic on another goroutine, so
	// the runner captures it, stops the pool, and Explore's own goroutine
	// re-raises it after the pool has joined.
	var fatal atomic.Pointer[PathError]
	var wg sync.WaitGroup
	wg.Add(workers)
	work := func(w int) {
		defer wg.Done()
		defer func() {
			if p := recover(); p != nil {
				f.shared.halted.Store(true)
				fatal.CompareAndSwap(nil, &PathError{Value: p, Stack: string(debug.Stack())})
			}
		}()
		r := f.newRunner()
		runners[w] = r
		for !f.shared.halted.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(f.units) {
				break
			}
			n := len(r.e.res.Templates)
			r.run(f.units[i])
			emitted[i] = r.e.res.Templates[n:]
		}
	}
	for w := 1; w < workers; w++ {
		go work(w)
	}
	work(0)
	wg.Wait()
	if p := fatal.Load(); p != nil {
		obs.Warnf("sym: panic in exploration worker: %v\n%s", p.Value, p.Stack)
		panic(p.Value)
	}

	res := &Result{}
	for _, ts := range emitted {
		for _, tm := range ts {
			tm.ID = len(res.Templates)
			res.Templates = append(res.Templates, tm)
		}
	}
	res.Add(f.top.Counts)
	for _, r := range runners {
		res.Add(r.e.result().Counts)
	}
	solverBusy.Fold(&res.SMT.Latency)
	return res
}

// solverBusy sums every exploration's solver latency in the process. Only
// bench/ reads this; ROADMAP item 1 retires it.
var solverBusy = obs.GetHistogram("smt.query_latency_ns")

// runner explores frontier units one at a time on a single amortized
// solver, which keeps the initial constraints across units once a query has
// synced them (run). The pool's workers are runners.
type runner struct {
	f *frontier
	// e's stacks are set from the snapshot at each unit; its solver, result
	// and visit counter (the deadline's ticks) span them.
	e *executor
}

// newRunner builds a unit runner under the frontier's options and budget.
func (f *frontier) newRunner() *runner {
	return &runner{f: f, e: newExecutor(f.cfg, f.cfg.Options, f.plan, f.seed, f.shared)}
}
