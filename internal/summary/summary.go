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
	// PrefixPaths is the number of valid paths from the program entry to
	// the pipeline entry used to compute the public pre-condition.
	PrefixPaths int
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
	names := chainNames{}
	var fl *flow
	if opts.UsePreconditions {
		fl = newFlow(g, opts.InitConstraints)
	}
	for _, region := range g.Pipelines {
		sp := obs.Begin("generate/summary/" + region.Name)
		st, err := summarizeRegion(g, region, opts, fl, names, stats)
		dur := sp.End()
		if err != nil {
			return nil, fmt.Errorf("summary: pipeline %s: %w", region.Name, err)
		}
		stats.Pipelines = append(stats.Pipelines, *st)
		obs.Progressf("summary: %s summarized in %v (10^%.1f -> 10^%.1f paths)",
			region.Name, dur, st.PossibleBefore, st.PossibleAfter)
	}
	return stats, nil
}

func summarizeRegion(g *cfg.Graph, region *cfg.Region, opts Options, fl *flow, names chainNames, agg *Stats) (*PipelineStat, error) {
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
	prefixPaths := 0
	if fl != nil {
		in, live := fl.entryFacts(region)
		if in == nil {
			// Unreachable pipeline: clear it entirely.
			g.Node(region.Entry).Succs = []cfg.NodeID{region.Exit}
			st.PossibleAfter = cfg.Log10(g.RegionPaths(region))
			fl.regionOut[region.Name] = nil
			return st, nil
		}
		prefixPaths = live
		initC = in.sortedConds()
		for v, val := range in.values {
			initV[v] = val
		}
		st.PublicConstraints = len(initC)
	}
	st.PrefixPaths = prefixPaths

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
		head, tail := encodePath(g, region, t, initC, initV, names)
		entryNode.Succs = append(entryNode.Succs, head)
		g.Link(tail, region.Exit)
	}
	if len(innerRes.Templates) == 0 {
		// No valid path through the pipeline under the public
		// pre-condition: sever it.
		entryNode.Succs = nil
	}
	if fl != nil {
		// Record this region's guaranteed effects for downstream
		// pre-condition computation.
		in, _ := fl.entryFacts(region)
		if in == nil {
			in = newFacts()
		}
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

// chainNames interns, once per Summarize, what every chain that changes a
// variable v names after it: its entry snapshot @v and the comments of its
// save and assignment nodes.
type chainNames map[expr.Var]chainName

type chainName struct {
	aux          expr.Var
	save, assign string
}

func (m chainNames) of(v expr.Var) chainName {
	n, ok := m[v]
	if !ok {
		n = chainName{aux: v.Aux(), save: "save entry value of " + string(v), assign: "summary assign " + string(v)}
		m[v] = n
	}
	return n
}

// encodePath builds the succinct chain for one valid path: a predicate
// node carrying the conjunction of the constraints collected inside the
// pipeline, then @var saves for every changed variable, then the
// simultaneous assignment encoded with entry-value auxiliaries
// (Algorithm 2 lines 13–24 and the @srcPort example of §3.3).
// It returns the chain's head and tail node IDs.
func encodePath(g *cfg.Graph, region *cfg.Region, t *sym.Template, initC []expr.Bool, initV expr.Subst, names chainNames) (head, tail cfg.NodeID) {
	// Chain layout: saves → hash/checksum obligations → guard predicate →
	// assignments. The obligations must precede the predicate because the
	// path condition may constrain their outputs (e.g. an ECMP range
	// match over a hash value): the outer execution has to re-bind the
	// hash symbol before the constraint over it is asserted.
	head = cfg.None
	tail = cfg.None
	appendNode := func(n *cfg.Node) {
		// Every chain node inherits the template's rule-dependency tags:
		// the chain stands in for a concrete path through the pipeline's
		// tables, so final-pass walks crossing it must accumulate the same
		// dependencies the folded path had (journal index records and
		// verdict-cache tags for incremental regression both rely on this).
		n.Deps = t.Deps
		if head == cfg.None {
			head = n.ID
		} else {
			g.Link(tail, n.ID)
		}
		tail = n.ID
	}

	// Changed variables, by slot in name order: final value differs from the
	// entry value.
	var changed []int
	for s, val := range t.Final {
		if val != nil && changedFrom(t.Vars[s], val, initV, g) {
			changed = append(changed, s)
		}
	}
	sort.Slice(changed, func(i, j int) bool { return t.Vars[changed[i]] < t.Vars[changed[j]] })

	// Rename map: references to changed variables inside final values must
	// read the entry snapshot (@var), since the assignments in a CFG lack
	// atomicity (§3.3's srcPort/dstPort example).
	ren := make(map[expr.Var]expr.Var, len(changed))
	for _, s := range changed {
		ren[t.Vars[s]] = names.of(t.Vars[s]).aux
	}

	// Saves: @v ← v for every changed variable.
	for _, s := range changed {
		v := t.Vars[s]
		w, n := g.Vars[v], names.of(v)
		g.Vars[n.aux] = w
		appendNode(g.AddAction(n.aux, expr.V(v, w), region.Name, n.save))
	}
	// Re-emit deferred hash/checksum obligations as opaque nodes, before
	// the guard predicate and the assignments that consume their outputs,
	// so the final full-program execution re-evaluates them (possibly
	// concretely, if the outer context fixes their inputs).
	for _, ob := range t.HashObligations {
		inputs := make([]expr.Arith, len(ob.Inputs))
		for i, in := range ob.Inputs {
			inputs[i] = expr.RenameArith(in, ren)
		}
		if ob.Kind == cfg.Hash {
			appendNode(g.AddHash(ob.Var, ob.Width, inputs, region.Name, "summary hash"))
		} else {
			appendNode(g.AddChecksum(ob.Var, ob.Width, inputs, region.Name, "summary checksum"))
		}
	}
	// Guard: the conjunction of the constraints collected inside the
	// pipeline, stripped of the seeded public pre-conditions (the first
	// len(initC) entries). Entry-value references to changed variables go
	// through the @ snapshots.
	inner := t.Constraints[len(initC):]
	pred := expr.RenameBool(expr.AndAll(inner), ren)
	appendNode(g.AddPredicate(pred, region.Name, fmt.Sprintf("summary path %d of %s", t.ID, region.Name)))
	// Assignments: v ← final value with changed references renamed to
	// their @ snapshots.
	for _, s := range changed {
		v := t.Vars[s]
		appendNode(g.AddAction(v, expr.RenameArith(t.Final[s], ren), region.Name, names.of(v).assign))
	}
	return head, tail
}

// changedFrom reports whether a chain leaves v at a final value val that
// differs from v's entry value: initV[v] when public, else the free symbol
// v. Auxiliaries from earlier summaries never change: they are chain-local
// temporaries, which each chain saves before reading, so they carry no live
// value across pipelines.
func changedFrom(v expr.Var, val expr.Arith, initV expr.Subst, g *cfg.Graph) bool {
	if v.IsAux() {
		return false
	}
	if entry, public := initV[v]; public {
		return !expr.EqualArith(val, entry)
	}
	r, ok := val.(expr.Ref)
	return !ok || r.Var != v || r.W != g.Vars[v]
}
