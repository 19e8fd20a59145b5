package sym

import (
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cfg"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/smt"
)

// Parallel exploration splits Algorithm 1's DFS into two phases.
//
// Phase 1 (the splitter) runs the ordinary sequential executor over the
// top of the tree, but with a spill hook: once the product of branch
// widths along the current path reaches ~4× the worker count (so there
// are enough pending sibling subtrees to balance the pool), the subtree
// rooted at the current node is packaged as a task — path prefix,
// condition stack, value-stack snapshot, hash obligations — instead of
// being explored. Leaf- and stop-nodes below the split frontier also
// spill, so the splitter itself never emits templates; tasks therefore
// appear in exactly the order sequential DFS would first reach them.
//
// Phase 2 runs a worker pool. Each worker owns one smt.Solver for its
// whole lifetime (solver construction and init-constraint assertion are
// amortized across tasks) and claims tasks from an atomic counter. Per
// task it replays the prefix condition stack via Push/Assert — no Check,
// so replay adds zero SMT calls — explores the subtree with the same
// executor code, and Pops back. All workers share one VerdictCache, so an
// Unsat prefix proved by one worker prunes the same prefix everywhere
// else for the cost of a map lookup.
//
// Determinism: templates are collected per task and spliced in task
// order, then IDs are renumbered sequentially. Since task order equals
// sequential visit order and the executor code below a split point is
// the same code sequential mode runs (with identical solver inputs in
// identical order), the resulting template set — paths, constraints,
// models, obligations, ordering, IDs — is byte-identical to
// Parallelism: 1. The only exception is budget truncation (MaxPaths /
// Deadline), which is cooperative across workers and therefore cuts a
// nondeterministic suffix; untruncated runs are exactly reproducible.

// sharedState carries the cross-worker counters and the cooperative
// cancel used by parallel exploration.
type sharedState struct {
	paths    atomic.Uint64
	pruned   atomic.Uint64
	halted   atomic.Bool
	maxPaths uint64
	deadline time.Time
	// recovered counts per-path panic recoveries across all workers;
	// jhits counts journal-answered solver interactions; degraded counts
	// templates emitted inside quarantined subtrees.
	recovered atomic.Uint64
	jhits     atomic.Uint64
	degraded  atomic.Uint64
}

// task is one pending branch of the DFS frontier: everything needed to
// resume Algorithm 1 at start as if sequential DFS had just descended
// to it.
type task struct {
	start cfg.NodeID
	// path is the node prefix (not including start).
	path []cfg.NodeID
	// constraints is the full condition stack, init constraints included.
	constraints []expr.Bool
	// values is a snapshot of the value stack V.
	values expr.Env
	// obligations are the hash/checksum obligations pending on the prefix.
	obligations []HashObligation
	// hash is the content-based journal key of the prefix, seeding the
	// worker's path-hash stack so journal keys below the split point are
	// identical to sequential mode's.
	hash uint64
	// deps snapshots the prefix's rule-dependency tag stack, seeding the
	// worker's.
	deps []uint32
	// degraded snapshots the splitter's quarantine nesting depth at the
	// split point, so a task spilled inside a quarantined subtree keeps
	// answering Unknown (Options.Quarantined) in its claiming worker.
	degraded int
	// created is when the splitter enqueued the task; the gap until a
	// worker claims it feeds the sym.task_queue_wait_ns histogram.
	created time.Time
	// templates receives the subtree's emissions, spliced in task order.
	templates []*Template
}

// split is phase 1: it runs the top of the exploration on a splitter
// executor whose spill hook packages every subtree at the frontier — width
// pending siblings reached, or a leaf or stop node — as a task. hardCap
// bounds the task list when the graph branches far wider than width (each
// extra sibling then spills as one coarse task, which is still balanced
// because coarse siblings at the same depth have similar subtree sizes).
// The splitter is returned for its result and solver counters.
func split(c Config, opts Options, p *plan, start cfg.NodeID, seed uint64, width, hardCap int, shared *sharedState) (*executor, []*task) {
	var tasks []*task
	s := newExecutor(c, opts, p, seed)
	s.shared, s.widthProd = shared, 1
	s.spill = func(id cfg.NodeID) bool {
		atEnd := c.Graph.Node(id).IsLeaf() || s.stop[id]
		if !atEnd && s.widthProd < width && len(tasks) < hardCap {
			return false // keep splitting above the frontier
		}
		tasks = append(tasks, &task{
			start:       id,
			path:        append([]cfg.NodeID(nil), s.path...),
			constraints: append([]expr.Bool(nil), s.constraints...),
			values:      append(expr.Env(nil), s.vals...),
			obligations: append([]HashObligation(nil), s.obligations...),
			hash:        s.curHash(),
			deps:        append([]uint32(nil), s.deps...),
			degraded:    s.degraded,
			created:     time.Now(),
		})
		return true
	}
	s.dfs(start)
	return s, tasks
}

// run explores the task's subtree. base carries what does not depend on
// the task: graph, plan, options, result, and a solver whose stack holds
// the exploration's nInit initial constraints. run replays the rest of the
// prefix via Push/Assert (no Check — replay adds zero solver queries),
// explores from a copy of the snapshot (so a task can be re-run), and Pops
// back. The executor is returned for its counters.
func (t *task) run(base executor, nInit int) *executor {
	e := &base
	e.vals = append(expr.Env(nil), t.values...)
	e.constraints = append([]expr.Bool(nil), t.constraints...)
	e.obligations = append([]HashObligation(nil), t.obligations...)
	e.path = append([]cfg.NodeID(nil), t.path...)
	e.hashes = []uint64{t.hash}
	e.deps = append([]uint32(nil), t.deps...)
	e.degraded = t.degraded
	e.journaling = e.opts.Journal != nil
	replay := t.constraints[nInit:]
	if len(replay) > 0 {
		e.solver.Push()
		for _, b := range replay {
			e.solver.Assert(b)
		}
	}
	e.dfs(t.start)
	if len(replay) > 0 {
		e.solver.Pop()
	}
	return e
}

func exploreParallel(c Config, opts Options, start cfg.NodeID, workers int, seed uint64) (*Result, error) {
	if opts.Solver.Cache == nil {
		opts.Solver.Cache = smt.NewVerdictCache()
	}
	shared := &sharedState{maxPaths: opts.MaxPaths}
	if opts.Deadline > 0 {
		shared.deadline = time.Now().Add(opts.Deadline)
	}

	// Phase 1: enumerate the frontier, aiming for 4 pending subtrees per
	// worker so the pool balances.
	pl := newPlan(c, start)
	splitter, tasks := split(c, opts, pl, start, seed, 4*workers, 64*workers, shared)
	mFrontierTasks.Add(int64(len(tasks)))

	// Phase 2: drain the task list. Tasks are claimed via an atomic index
	// so fast workers steal the slack of slow ones.
	nInit := len(c.InitConstraints)
	var next atomic.Int64
	workerStats := make([]smt.Stats, workers)
	workerFrames := make([]uint64, workers)
	workerErrs := make([][]*PathError, workers)
	// fatal holds the first panic that escaped a worker, which only Strict
	// lets happen: no caller can recover a panic on a worker goroutine, so
	// the worker captures it, stops the pool, and Explore's own goroutine
	// re-raises it after the pool has joined.
	var fatal atomic.Pointer[PathError]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					shared.halted.Store(true)
					fatal.CompareAndSwap(nil, &PathError{Value: r, Stack: string(debug.Stack())})
				}
			}()
			mWorkersStarted.Inc()
			solver := pl.newSolver(opts.Solver)
			for _, b := range c.InitConstraints {
				solver.Assert(b)
			}
			res := &Result{}
			var visits uint64
			// runTask executes one frontier task. In non-strict mode a
			// task-level recover backstops panics raised outside the dfs
			// frames (prefix replay assertion), restoring the solver's
			// frame depth so the worker survives to claim its next task;
			// panics inside dfs are already arrested per path.
			runTask := func(t *task) {
				// A worker that hit the budget keeps its Truncated flag per
				// executor; clear the per-result copy so this task is gated
				// by shared.halted alone.
				res.Truncated = false
				baseDepth := solver.Depth()
				if !opts.Strict {
					defer func() {
						if r := recover(); r != nil {
							for solver.Depth() > baseDepth {
								solver.Pop()
							}
							res.Recovered++
							shared.recovered.Add(1)
							if len(res.PathErrors) < maxPathErrors {
								res.PathErrors = append(res.PathErrors, &PathError{
									Path:  append([]cfg.NodeID(nil), t.path...),
									Value: r,
									Stack: string(debug.Stack()),
								})
							}
						}
					}()
				}
				base := len(res.Templates)
				e := t.run(executor{
					g: c.Graph, p: pl, opts: opts, stop: c.StopAt, solver: solver, res: res,
					shared: shared, visits: visits, // deadline ticks span tasks
				}, nInit)
				t.templates = res.Templates[base:]
				visits = e.visits
			}
			for !shared.halted.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					break
				}
				mFrontierTasks.Add(-1)
				mTaskQueueWait.ObserveSince(tasks[i].created)
				runTask(tasks[i])
			}
			workerStats[w] = solver.Stats()
			workerFrames[w] = visits
			workerErrs[w] = res.PathErrors
		}(w)
	}
	wg.Wait()
	if p := fatal.Load(); p != nil {
		obs.Warnf("sym: panic in exploration worker: %v\n%s", p.Value, p.Stack)
		panic(p.Value)
	}

	// Phase 3: splice per-task emissions in frontier enumeration order and
	// renumber IDs, reproducing sequential output exactly.
	res := &Result{}
	for _, t := range tasks {
		for _, tm := range t.templates {
			tm.ID = len(res.Templates)
			res.Templates = append(res.Templates, tm)
		}
	}
	res.PathsExplored = shared.paths.Load()
	res.PrunedPaths = shared.pruned.Load()
	res.Truncated = shared.halted.Load()
	res.Recovered = shared.recovered.Load()
	res.JournalHits = shared.jhits.Load()
	res.Degraded = shared.degraded.Load()
	for _, pe := range splitter.res.PathErrors {
		if len(res.PathErrors) < maxPathErrors {
			res.PathErrors = append(res.PathErrors, pe)
		}
	}
	for _, errs := range workerErrs {
		for _, pe := range errs {
			if len(res.PathErrors) < maxPathErrors {
				res.PathErrors = append(res.PathErrors, pe)
			}
		}
	}
	res.SMT = splitter.solver.Stats()
	res.Frames = splitter.visits
	for w, st := range workerStats {
		res.SMT.Add(st)
		res.Frames += workerFrames[w]
	}
	return res, nil
}
