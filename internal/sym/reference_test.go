package sym

import "repro/internal/cfg"

// exploreReference is Algorithm 1 as one plain DFS — one executor, one
// solver, no frontier, no pool, no budget — kept as the oracle: Explore at
// any worker count must emit its templates byte for byte, and at one worker
// also do exactly its counted work (TestParallelMatchesSequential,
// TestParallelSMTCallParity, TestEngineMatchesReferenceOnCorpus).
func exploreReference(c Config) *Result {
	opts := c.Options
	opts.Solver = opts.solver()
	start := c.Start
	if start == cfg.None {
		start = c.Graph.Entry
	}
	e := newExecutor(c, opts, newPlan(c, start), contextSeed(c, start, opts), &sharedState{})
	e.dfs(start)
	return e.result()
}
