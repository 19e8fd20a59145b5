package sym

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/expr"
)

// The frontier: an exploration split into units for the in-process pool.
//
// Splitting is deterministic: the same (graph, options, width) inputs give
// the same unit list, in the order one DFS first reaches each subtree, and a
// unit carries its prefix's content-based path hash, so the journal keys a
// runner derives below the split point do not depend on where the split
// fell or which runner claims the unit. That is what keeps templates,
// journal records and verdicts byte-identical at any worker count.

// unit is one pending branch of the DFS frontier: everything a runner needs
// to resume Algorithm 1 at start as if one DFS had just descended to it.
type unit struct {
	// start is the subtree root's node ID.
	start cfg.NodeID
	// path is the node prefix (not including start).
	path []cfg.NodeID
	// constraints is the condition stack above the initial constraints,
	// which every runner's executor keeps at the bottom of its own, and
	// condNums the solver's numbers for its entries (executor.condNums).
	constraints []expr.Bool
	condNums    []int32
	// values is a snapshot of the value stack V.
	values expr.Env
	// obligations are the hash/checksum obligations pending on the prefix.
	obligations []cfg.Obligation
	// hash is the content-based journal key of the prefix, seeding the
	// runner's path-hash stack so journal keys below the split point do not
	// depend on it.
	hash uint64
	// deps snapshots the prefix's rule-dependency tag stack, seeding the
	// runner's.
	deps []uint32
	// pending is what the parent's frame handed to start's (executor.pending).
	pending pendingBranch
}

// frontier is a deterministic split of one exploration into units.
type frontier struct {
	units []*unit

	// cfg is the exploration with its defaults resolved: Start a node,
	// Options.Solver what the solvers run with.
	cfg    Config
	plan   *plan
	seed   uint64
	shared *sharedState
	// top is what splitting explored itself, above the frontier.
	top *Result
}

// splitFrontier is an exploration's preamble — solver defaults, start node,
// journal-key seed, plan, budget — and its split into units. width is the
// target frontier width (pending-subtree count at which a path spills, see
// split); at width 1 the frontier is the root alone, so that nothing above
// it is walked twice. The splitter's own solver interactions (prune checks
// above the frontier) are journaled when c.Options.Journal is set, like
// any runner's.
func splitFrontier(c Config, width int) (*frontier, error) {
	if c.Graph == nil {
		return nil, fmt.Errorf("sym: nil graph")
	}
	c.Options.Solver, c.Options.SolverSet = c.Options.solver(), true
	if c.Start == cfg.None {
		c.Start = c.Graph.Entry
	}
	f := &frontier{cfg: c, top: &Result{}}
	// The seed is derived from the exploration's content (start/stop node
	// content hashes, initial stacks) — not from an exploration counter —
	// so the same context produces the same journal keys in any run, at any
	// worker count, cold or incremental. Content-identical contexts have
	// identical verdicts, which makes cross-run sharing sound by
	// construction.
	f.seed = contextSeed(c, c.Start, c.Options)
	f.plan = newPlan(c, c.Start)
	f.shared = &sharedState{maxPaths: c.Options.MaxPaths}
	if width > 1 {
		f.split(width)
	} else {
		f.units = []*unit{{start: c.Start, values: f.plan.init, hash: f.seed}}
	}
	return f, nil
}
