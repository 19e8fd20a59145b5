package sym

import (
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cfg"
	"repro/internal/expr"
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

func exploreParallel(c Config, opts Options, start cfg.NodeID, workers int, seed uint64) (*Result, error) {
	if opts.Solver.Cache == nil {
		opts.Solver.Cache = smt.NewVerdictCache()
	}
	journaling := opts.Journal != nil && !opts.NoValidation
	shared := &sharedState{maxPaths: opts.MaxPaths}
	if opts.Deadline > 0 {
		shared.deadline = time.Now().Add(opts.Deadline)
	}

	// Phase 1: enumerate the frontier. targetWidth is the pending-subtree
	// count at which a path spills; hardCap bounds the task list when the
	// graph branches far wider than the target (each extra sibling then
	// spills as one coarse task, which is still balanced because coarse
	// siblings at the same depth have similar subtree sizes).
	targetWidth := 4 * workers
	hardCap := 64 * workers
	var tasks []*task
	pl := newPlan(c, start)
	splitter := &executor{
		g:          c.Graph,
		p:          pl,
		opts:       opts,
		stop:       c.StopAt,
		solver:     smt.New(opts.Solver),
		vals:       append(expr.Env(nil), pl.init...),
		res:        &Result{},
		shared:     shared,
		widthProd:  1,
		hashes:     []uint64{seed},
		journaling: journaling,
	}
	splitter.solver.SetDepTags(splitter.depTags)
	splitter.spill = func(id cfg.NodeID) bool {
		n := c.Graph.Node(id)
		atEnd := n.IsLeaf() || (splitter.stop != nil && splitter.stop[id])
		if !atEnd && splitter.widthProd < targetWidth && len(tasks) < hardCap {
			return false // keep splitting above the frontier
		}
		tasks = append(tasks, &task{
			start:       id,
			path:        append([]cfg.NodeID(nil), splitter.path...),
			constraints: append([]expr.Bool(nil), splitter.constraints...),
			values:      append(expr.Env(nil), splitter.vals...),
			obligations: append([]HashObligation(nil), splitter.obligations...),
			hash:        splitter.curHash(),
			deps:        append([]uint32(nil), splitter.deps...),
			degraded:    splitter.degraded,
			created:     time.Now(),
		})
		mFrontierTasks.Add(1)
		return true
	}
	for _, b := range c.InitConstraints {
		splitter.solver.Assert(b)
		splitter.constraints = append(splitter.constraints, b)
	}
	splitter.dfs(start)

	// Phase 2: drain the task list. Tasks are claimed via an atomic index
	// so fast workers steal the slack of slow ones.
	nInit := len(c.InitConstraints)
	var next atomic.Int64
	workerStats := make([]smt.Stats, workers)
	workerErrs := make([][]*PathError, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mWorkersStarted.Inc()
			solver := smt.New(opts.Solver)
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
				baseDepth := solver.Depth()
				e := &executor{
					g:           c.Graph,
					p:           pl,
					opts:        opts,
					stop:        c.StopAt,
					solver:      solver,
					vals:        t.values,
					constraints: t.constraints,
					obligations: t.obligations,
					path:        t.path,
					res:         res,
					shared:      shared,
					visits:      visits, // deadline ticks span tasks
					hashes:      []uint64{t.hash},
					deps:        t.deps,
					degraded:    t.degraded,
					journaling:  journaling,
				}
				// The solver is worker-local and tasks run one at a time, so
				// retargeting its dep-tag provider per task is race-free.
				solver.SetDepTags(e.depTags)
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
						visits = e.visits
						res.Truncated = false
					}()
				}
				replay := t.constraints[nInit:]
				if !opts.NoValidation && len(replay) > 0 {
					solver.Push()
					for _, b := range replay {
						solver.Assert(b)
					}
				}
				base := len(res.Templates)
				e.dfs(t.start)
				if !opts.NoValidation && len(replay) > 0 {
					solver.Pop()
				}
				t.templates = res.Templates[base:]
				visits = e.visits
				// A worker that hit the budget keeps its Truncated flag per
				// executor; clear the per-result copy so the next task is
				// gated by shared.halted alone.
				res.Truncated = false
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
			workerErrs[w] = res.PathErrors
		}(w)
	}
	wg.Wait()

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
	for _, st := range workerStats {
		res.SMT.Add(st)
	}
	return res, nil
}
