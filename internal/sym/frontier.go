package sym

import (
	"fmt"
	"time"

	"repro/internal/cfg"
	"repro/internal/smt"
)

// Frontier export: the multi-process sharding entry points.
//
// A Frontier is the deterministic split of one exploration into leased
// work units, computed by running the ordinary parallel splitter (phase
// 1 of exploreParallel) and keeping the spilled tasks instead of handing
// them to an in-process pool. Determinism is the load-bearing property:
// the coordinator and every worker subprocess compute the frontier
// independently from the same (program, rules, options, width) inputs
// and must arrive at the identical unit list — the wire protocol then
// only ever names units by index and content key, never serializing
// solver state. Digest() folds every unit key so the coordinator can
// reject a worker whose frontier diverged (version skew, nondeterminism)
// before assigning it anything.
//
// Unit keys are the content-based path key of the prefix *including* the
// unit's root node — exactly the value dfs observes as curHash after
// pushing the root (or folds for a stop node), and exactly the key
// Options.Quarantined is consulted with. A unit key therefore survives
// process boundaries, graph rebuilds, and sequential/parallel mode
// switches, the same portability argument as journal keys.

// Unit is one leased work unit: a subtree of the exploration identified
// by content, not by position.
type Unit struct {
	// Index is the unit's position in frontier enumeration order (the
	// order sequential DFS first reaches each subtree).
	Index int
	// Key is the content-based path key of the prefix ending at the
	// unit's root — the quarantine key and the stable cross-process name.
	Key uint64
	// Start is the subtree root's node ID (valid only against a graph
	// built from the same program text).
	Start cfg.NodeID
	// Depth is the prefix length, for supervision logging.
	Depth int
}

// Frontier is a deterministic split of one exploration into units.
type Frontier struct {
	Units []*Unit

	cfg   Config
	opts  Options
	plan  *plan
	tasks []*task
	nInit int
	seed  uint64
}

// SplitFrontier runs the exploration's top slice sequentially and
// packages every pending subtree as a unit. width is the target frontier
// width (pending-subtree count at which a path spills); the hard cap is
// 16×width. The splitter's own solver interactions (prune checks above
// the frontier) are journaled when c.Options.Journal is set, so a later
// journal-answered replay re-derives them for free; workers recompute
// the frontier with Journal unset and solve those few checks live.
func SplitFrontier(c Config, width int) (*Frontier, error) {
	if c.Graph == nil {
		return nil, fmt.Errorf("sym: nil graph")
	}
	if width < 1 {
		width = 1
	}
	opts := c.Options
	if !opts.SolverSet {
		opts.Solver = smt.DefaultOptions()
	}
	start := c.Start
	if start == cfg.None {
		start = c.Graph.Entry
	}
	seed := contextSeed(c, start, opts)
	f := &Frontier{cfg: c, opts: opts, plan: newPlan(c, start), nInit: len(c.InitConstraints), seed: seed}
	_, f.tasks = split(c, opts, f.plan, start, seed, width, 16*width, nil)

	f.Units = make([]*Unit, len(f.tasks))
	for i, t := range f.tasks {
		f.Units[i] = &Unit{
			Index: i,
			Key:   hashMix(t.hash, c.Graph.ContentHash(t.start)),
			Start: t.start,
			Depth: len(t.path),
		}
	}
	return f, nil
}

// Digest folds every unit key in order into one fingerprint of the
// frontier. Coordinator and worker compare digests before any
// assignment: a mismatch means the two processes are not exploring the
// same tree and every verdict the worker could produce would be keyed
// wrong.
func (f *Frontier) Digest() uint64 {
	h := hashMix(fnvOffset64, 0x5851f42d4c957f2d) // domain separator
	h = hashMix(h, f.seed)
	h = hashMix(h, uint64(len(f.Units)))
	for _, u := range f.Units {
		h = hashMix(h, u.Key)
	}
	return h
}

// Runner executes frontier units one at a time on a single amortized
// solver, exactly like one in-process parallel worker: init constraints
// are asserted once at construction, each unit replays its prefix via
// Push/Assert (no Check — replay adds zero solver queries), explores,
// and Pops back.
type Runner struct {
	f      *Frontier
	opts   Options
	solver *smt.Solver
}

// NewRunner builds a unit runner. opts overrides the frontier's options
// for execution — the worker subprocess attaches its local journal and
// heartbeat PathHook here; pass f.Options() to run unmodified.
func (f *Frontier) NewRunner(opts Options) *Runner {
	if !opts.SolverSet {
		opts.Solver = smt.DefaultOptions()
	}
	r := &Runner{f: f, opts: opts, solver: f.plan.newSolver(opts.Solver)}
	for _, b := range f.cfg.InitConstraints {
		r.solver.Assert(b)
	}
	return r
}

// Options returns the options the frontier was split with.
func (f *Frontier) Options() Options { return f.opts }

// Explore runs one unit to completion and returns its subtree result.
// The task snapshot is cloned first, so a unit can be re-run (lease
// reassignment) without state bleeding between attempts. A panic outside
// the per-path recovery (prefix replay) is returned as an error with the
// solver restored to its pre-unit depth; the caller decides whether that
// is a unit failure or a worker failure.
func (r *Runner) Explore(i int) (res *Result, err error) {
	if i < 0 || i >= len(r.f.tasks) {
		return nil, fmt.Errorf("sym: unit %d out of range (frontier has %d)", i, len(r.f.tasks))
	}
	t := r.f.tasks[i]
	res = &Result{}
	baseDepth := r.solver.Depth()
	if !r.opts.Strict {
		defer func() {
			if p := recover(); p != nil {
				for r.solver.Depth() > baseDepth {
					r.solver.Pop()
				}
				err = fmt.Errorf("sym: unit %d failed outside path recovery: %v", i, p)
			}
		}()
	}
	base := executor{g: r.f.cfg.Graph, p: r.f.plan, opts: r.opts, stop: r.f.cfg.StopAt, solver: r.solver, res: res}
	if r.opts.Deadline > 0 {
		base.deadline = time.Now().Add(r.opts.Deadline)
	}
	res.Frames = t.run(base, r.f.nInit).visits
	res.SMT = r.solver.Stats()
	return res, nil
}
