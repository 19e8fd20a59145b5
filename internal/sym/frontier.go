package sym

import (
	"fmt"
	"time"

	"repro/internal/cfg"
	"repro/internal/expr"
)

// Frontier export: the multi-process sharding entry points.
//
// A Frontier is the deterministic split of one exploration into leased
// work units: the frontier Explore builds, leased unit by unit by a
// coordinator instead of drained by the in-process pool. Determinism is the
// load-bearing property: the coordinator and every worker subprocess
// compute the frontier independently from the same (program, rules,
// options, width) inputs and must arrive at the identical unit list — the
// wire protocol then only ever names units by index and content key, never
// serializing solver state. Digest() folds every unit key so the
// coordinator can reject a worker whose frontier diverged (version skew,
// nondeterminism) before assigning it anything.
//
// Unit keys are the content-based path key of the prefix *including* the
// unit's root node — exactly the value dfs observes as curHash after
// pushing the root (or folds for a stop node), and exactly the key
// Options.Quarantined is consulted with. A unit key therefore survives
// process boundaries, graph rebuilds, and worker counts, the same
// portability argument as journal keys.

// Unit is one pending branch of the DFS frontier, a subtree of the
// exploration identified by content, not by position: what a coordinator
// leases by Index and Key, and everything a Runner needs to resume
// Algorithm 1 at Start as if one DFS had just descended to it.
type Unit struct {
	// Index is the unit's position in frontier enumeration order (the
	// order one DFS first reaches each subtree).
	Index int
	// Key is the content-based path key of the prefix ending at the
	// unit's root — the quarantine key and the stable cross-process name.
	Key uint64
	// Start is the subtree root's node ID (valid only against a graph
	// built from the same program text).
	Start cfg.NodeID

	// path is the node prefix (not including Start).
	path []cfg.NodeID
	// constraints is the full condition stack, init constraints included.
	constraints []expr.Bool
	// values is a snapshot of the value stack V.
	values expr.Env
	// obligations are the hash/checksum obligations pending on the prefix.
	obligations []HashObligation
	// hash is the content-based journal key of the prefix, seeding the
	// runner's path-hash stack so journal keys below the split point do not
	// depend on it.
	hash uint64
	// deps snapshots the prefix's rule-dependency tag stack, seeding the
	// runner's.
	deps []uint32
	// degraded snapshots the splitter's quarantine nesting depth at the
	// split point, so a unit spilled inside a quarantined subtree keeps
	// answering Unknown (Options.Quarantined) in the runner that claims it.
	degraded int
	// pending is what the parent's frame handed to Start's (executor.pending).
	pending pendingBranch
	// created is when the unit was enqueued; the gap until a runner claims
	// it feeds the sym.task_queue_wait_ns histogram.
	created time.Time
}

// Frontier is a deterministic split of one exploration into units.
type Frontier struct {
	Units []*Unit

	// cfg is the exploration with its defaults resolved: Start a node,
	// Options.Solver what the solvers run with.
	cfg    Config
	plan   *plan
	seed   uint64
	shared *sharedState
	// top is what splitting explored itself, above the frontier.
	top *Result
}

// SplitFrontier is an exploration's preamble — solver defaults, start node,
// journal-key seed, plan, budget — and its split into units. width is the
// target frontier width (pending-subtree count at which a path spills, see
// split); at width 1 the frontier is the root alone, so that nothing above
// it is walked twice. The splitter's own solver interactions (prune checks
// above the frontier) are journaled when c.Options.Journal is set, so a
// later journal-answered replay re-derives them for free; shard workers
// recompute the frontier with Journal unset and solve those few checks live.
func SplitFrontier(c Config, width int) (*Frontier, error) {
	if c.Graph == nil {
		return nil, fmt.Errorf("sym: nil graph")
	}
	c.Options.Solver, c.Options.SolverSet = c.Options.solver(), true
	if c.Start == cfg.None {
		c.Start = c.Graph.Entry
	}
	f := &Frontier{cfg: c, top: &Result{}}
	// The seed is derived from the exploration's content (start/stop node
	// content hashes, initial stacks) — not from an exploration counter —
	// so the same context produces the same journal keys in any run, at any
	// worker count, cold or incremental. Content-identical contexts have
	// identical verdicts, which makes cross-run sharing sound by
	// construction.
	f.seed = contextSeed(c, c.Start, c.Options)
	f.plan = newPlan(c, c.Start)
	f.shared = &sharedState{maxPaths: c.Options.MaxPaths}
	if c.Options.Deadline > 0 {
		f.shared.deadline = time.Now().Add(c.Options.Deadline)
	}
	if width > 1 {
		f.split(width)
	} else {
		f.enqueue(&Unit{Start: c.Start, constraints: c.InitConstraints, values: f.plan.init, hash: f.seed})
	}
	return f, nil
}

// enqueue appends u to the frontier under its name: its place in
// enumeration order and the content key of its prefix and root.
func (f *Frontier) enqueue(u *Unit) {
	u.Index, u.Key = len(f.Units), hashMix(u.hash, f.cfg.Graph.ContentHash(u.Start))
	u.created = time.Now()
	f.Units = append(f.Units, u)
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

// Options returns the options the frontier was split with.
func (f *Frontier) Options() Options { return f.cfg.Options }
