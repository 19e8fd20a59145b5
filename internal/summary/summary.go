// Package summary implements Meissa's core contribution: the code summary
// technique of §3.3 (Algorithm 2). It decomposes a multi-pipeline CFG
// into individual pipelines, summarizes each pipeline into a succinct set
// of valid-path encodings, and rewrites the graph in place — preserving
// every valid path and its path condition (the loop invariant of §3.4),
// while reducing test case generation from O(n^k) to O(k·n) (Appendix A).
//
// Two mechanisms combine local and global information:
//
//   - intra-pipeline redundancy elimination: symbolic execution within the
//     pipeline discards invalid paths stemming from the pipeline's own code
//     logic (Figure 7: 10,000 possible paths → 100 valid ones);
//   - inter-pipeline public pre-condition filtering: the conditions common
//     to all valid paths from the program entry to the pipeline entry seed
//     the within-pipeline execution, pruning paths that can never be
//     reached (Figure 8: proto == UDP is discarded under the public
//     pre-condition proto == TCP).
package summary

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cfg"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sym"
)

// Options configure summarization.
type Options struct {
	// Sym configures the symbolic executions used for prefix and
	// within-pipeline exploration.
	Sym sym.Options
	// UsePreconditions enables inter-pipeline public pre-condition
	// filtering. Disabling it (intra-pipeline elimination only) is the
	// ablation configuration.
	UsePreconditions bool
	// InitConstraints are seeded into every prefix exploration — the
	// intent's assume clauses, and the packet-type grouping of §7
	// ("we group pre-conditions according to packet type").
	InitConstraints []expr.Bool
}

// PipelineStat records the effect of summarizing one pipeline.
type PipelineStat struct {
	Name string
	// PossibleBefore / PossibleAfter are the region's possible-path
	// counts before and after summarization (log10).
	PossibleBefore float64
	PossibleAfter  float64
	// ValidPaths is the number of valid paths found within the pipeline —
	// the size of its summary.
	ValidPaths int
	// PublicConstraints is the number of conjuncts in the public
	// pre-condition.
	PublicConstraints int
	// Unknowns / BudgetExhausted report solver queries within this
	// pipeline's exploration that came back undecided (and, of those, the
	// ones cut off by the per-query SearchBudget). Undecided
	// paths are conservatively kept in the summary, so a non-zero count
	// means the summary may be a superset of the valid-path set but never
	// misses a valid path.
	Unknowns        uint64
	BudgetExhausted uint64
	// Dur is the wall-clock summarizing the pipeline took.
	Dur time.Duration
}

// Stats aggregates summarization work: the pipelines' statistics and what
// all prefix and within-pipeline explorations counted.
type Stats struct {
	Pipelines []PipelineStat
	sym.Counts
}

// Summarize rewrites g in place, pipeline by pipeline in topological order
// (Algorithm 2 lines 1–25). After it returns, running the basic framework
// (Algorithm 1) over g generates test case templates with full path
// coverage (Corollary 1).
func Summarize(g *cfg.Graph, opts Options) (*Stats, error) {
	stats := &Stats{}
	var fl *flow
	if opts.UsePreconditions {
		fl = newFlow(g, opts.InitConstraints)
	}
	for _, region := range g.Pipelines {
		start := time.Now()
		st, err := summarizeRegion(g, region, opts, fl, stats)
		if err != nil {
			return nil, fmt.Errorf("summary: pipeline %s: %w", region.Name, err)
		}
		st.Dur = time.Since(start)
		stats.Pipelines = append(stats.Pipelines, *st)
		obs.Progressf("summary: %s summarized in %v (10^%.1f -> 10^%.1f paths)",
			region.Name, st.Dur, st.PossibleBefore, st.PossibleAfter)
	}
	return stats, nil
}

func summarizeRegion(g *cfg.Graph, region *cfg.Region, opts Options, fl *flow, agg *Stats) (*PipelineStat, error) {
	st := &PipelineStat{Name: region.Name}
	st.PossibleBefore = cfg.Log10(g.RegionPaths(region))

	// --- Compute public pre-conditions (Algorithm 2 lines 4–7) ---
	// The pre-conditions are the meet, over every path from the program
	// entry to this pipeline's entry, of the conditions and values those
	// paths establish. The flow computes this compositionally from the
	// already-summarized upstream pipelines ("Because of the topological
	// sorting, all pipelines along the path are already summarized to
	// reduce the search overhead").
	var initC []expr.Bool
	initV := expr.Subst{}
	var in *facts
	if fl != nil {
		if in = fl.entryFacts(region); in == nil {
			// Unreachable pipeline: clear it entirely.
			g.Node(region.Entry).Succs = []cfg.NodeID{region.Exit}
			st.PossibleAfter = cfg.Log10(g.RegionPaths(region))
			fl.regionOut[region.Name] = nil
			return st, nil
		}
		initC = in.sortedConds()
		for v, val := range in.values {
			initV[v] = val
		}
		st.PublicConstraints = len(initC)
	}

	// --- Find valid paths within the pipeline (Algorithm 2 lines 8–9) ---
	innerOpts := opts.Sym
	innerRes, err := sym.Explore(sym.Config{
		Graph:           g,
		Start:           region.Entry,
		StopAt:          map[cfg.NodeID]bool{region.Exit: true},
		InitConstraints: initC,
		InitValues:      initV,
		Options:         innerOpts,
	})
	if err != nil {
		return nil, err
	}
	agg.Add(innerRes.Counts)
	st.ValidPaths = len(innerRes.Templates)
	st.Unknowns = innerRes.SMT.Unknowns
	st.BudgetExhausted = innerRes.SMT.BudgetExhausted

	// --- Summarize the pipeline (Algorithm 2 lines 10–25) ---
	entryNode := g.Node(region.Entry)
	entryNode.Succs = nil // pipeline.clear()

	for _, t := range innerRes.Templates {
		row := addRow(g, region, t, initC, initV)
		entryNode.Succs = append(entryNode.Succs, row)
		g.Link(row, region.Exit)
	}
	if len(innerRes.Templates) == 0 {
		// No valid path through the pipeline under the public
		// pre-condition: sever it.
		entryNode.Succs = nil
	}
	if fl != nil {
		// Record this region's guaranteed effects for downstream
		// pre-condition computation.
		fl.setRegionOut(region, in, innerRes.Templates, initC, initV, g)
		if regionOutObserver != nil {
			regionOutObserver(in, innerRes.Templates, initC, initV, g, fl.regionOut[region.Name])
		}
	}
	st.PossibleAfter = cfg.Log10(g.RegionPaths(region))
	return st, nil
}

// regionOutObserver, which only tests set, sees what every region's
// out-facts were computed from and what they came to.
var regionOutObserver func(in *facts, templates []*sym.Template, initC []expr.Bool, initV expr.Subst, g *cfg.Graph, out *facts)

// addRow adds the summary row for one valid path (Algorithm 2 lines
// 13–24): the hash and checksum obligations the inner exploration deferred,
// the guard — the conjunction of the constraints collected inside the
// pipeline, stripped of the seeded public pre-conditions (the first
// len(initC) entries) — and the simultaneous assignment of every variable
// the path changes, in name order. The obligations precede the guard
// because the path condition may constrain their outputs (e.g. an ECMP
// range match over a hash value). The row carries the template's
// rule-dependency tags: it stands in for a concrete path through the
// pipeline's tables (journal records and incremental regression rely on
// this).
func addRow(g *cfg.Graph, region *cfg.Region, t *sym.Template, initC []expr.Bool, initV expr.Subst) cfg.NodeID {
	var changed []int
	for s, val := range t.Final {
		if val != nil && changedFrom(t.Vars[s], val, initV, g) {
			changed = append(changed, s)
		}
	}
	sort.Slice(changed, func(i, j int) bool { return t.Vars[changed[i]] < t.Vars[changed[j]] })
	assigns := make([]cfg.Assign, len(changed))
	for i, s := range changed {
		assigns[i] = cfg.Assign{Var: t.Vars[s], Val: t.Final[s]}
	}
	guard := expr.AndAll(t.Constraints[len(initC):])
	row := g.AddSummary(guard, t.HashObligations, assigns, region.Name, fmt.Sprintf("summary path %d of %s", t.ID, region.Name))
	row.Deps = t.Deps
	return row.ID
}

// changedFrom reports whether a path leaves v at a final value val that
// differs from v's entry value: initV[v] when public, else the free symbol
// v.
func changedFrom(v expr.Var, val expr.Arith, initV expr.Subst, g *cfg.Graph) bool {
	if entry, public := initV[v]; public {
		return !expr.EqualArith(val, entry)
	}
	r, ok := val.(expr.Ref)
	return !ok || r.Var != v || r.W != g.Vars[v]
}
