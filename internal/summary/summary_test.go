package summary

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/expr"
	"repro/internal/p4"
	"repro/internal/rules"
	"repro/internal/sym"
)

// twoPipeSrc is a two-pipeline program: the ingress classifies on protocol
// and sets an egress port; the egress rewrites a MAC keyed on the port.
// The ingress establishes proto == TCP on every path to the egress
// (Figure 8's public pre-condition), and the port/MAC chain is the
// Figure 7 correlated-table structure.
const twoPipeSrc = `
header ip { bit<8> proto; bit<32> dst; }
header eth { bit<48> mac; }
metadata { bit<9> port; }
parser prs { state start { extract(ip); transition accept; } }
action set_port(bit<9> p) { meta.port = p; }
action set_mac(bit<48> m) { eth.mac = m; }
action nop() { }
table route {
  key = { ip.dst : exact; }
  actions = { set_port; }
  default_action = nop();
}
table mac_rewrite {
  key = { meta.port : exact; }
  actions = { set_mac; }
  default_action = nop();
}
control cin {
  apply {
    if (ip.proto == 6) {
      route.apply();
    } else {
      mark_drop();
    }
  }
}
control cout {
  apply {
    if (ip.proto == 6) {
      mac_rewrite.apply();
    } else {
      if (ip.proto == 17) {
        eth.mac = 0xdead;
      }
    }
  }
}
pipeline ig { parser = prs; control = cin; }
pipeline eg { control = cout; kind = egress; }
topology {
  entry ig;
  ig -> eg;
  eg -> exit;
}
`

func twoPipeRules(n int) *rules.Set {
	rs := rules.NewSet()
	for i := 1; i <= n; i++ {
		rs.Add("route", rules.Rule("set_port", []uint64{uint64(i)}, rules.E("ip.dst", 0x01010100+uint64(i))))
		rs.Add("mac_rewrite", rules.Rule("set_mac", []uint64{0x1000 + uint64(i)}, rules.E("meta.port", uint64(i))))
	}
	return rs
}

func buildTwoPipe(t *testing.T, n int) *cfg.Graph {
	t.Helper()
	prog := p4.MustParse(twoPipeSrc)
	g, err := cfg.Build(prog, twoPipeRules(n))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func exploreAll(t *testing.T, g *cfg.Graph) *sym.Result {
	t.Helper()
	res, err := sym.Explore(sym.Config{Graph: g, Options: sym.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// finalOf is v's final value on tm's path, nil where the path leaves it a
// free input.
func finalOf(tm *sym.Template, v expr.Var) expr.Arith {
	for s, val := range tm.Final {
		if tm.Vars[s] == v {
			return val
		}
	}
	return nil
}

func TestSummaryPreservesValidPathCount(t *testing.T) {
	const n = 8
	plain := buildTwoPipe(t, n)
	before := exploreAll(t, plain)

	summarized := buildTwoPipe(t, n)
	stats, err := Summarize(summarized, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	after := exploreAll(t, summarized)

	if len(before.Templates) != len(after.Templates) {
		t.Fatalf("valid path count changed: %d before, %d after summary",
			len(before.Templates), len(after.Templates))
	}
	if len(stats.Pipelines) != 2 {
		t.Fatalf("pipeline stats = %d", len(stats.Pipelines))
	}
}

func TestSummaryModelsStillSatisfyOriginal(t *testing.T) {
	// Every model produced on the summarized graph must drive a valid
	// concrete execution of the ORIGINAL graph — the essence of the §3.4
	// loop invariant.
	const n = 5
	orig := buildTwoPipe(t, n)
	summarized := buildTwoPipe(t, n)
	if _, err := Summarize(summarized, defaultOptions()); err != nil {
		t.Fatal(err)
	}
	after := exploreAll(t, summarized)
	if len(after.Templates) == 0 {
		t.Fatal("no templates after summary")
	}
	for _, tm := range after.Templates {
		st := completeModel(orig, tm.Model)
		// Concretely execute the original graph with the model.
		final, ok := run(t, orig, st)
		if !ok {
			t.Fatalf("template %d model does not execute on original graph", tm.ID)
		}
		// The final concrete state must agree with the template's final
		// symbolic state on every variable the template specifies.
		for s, valExpr := range tm.Final {
			v := tm.Vars[s]
			if valExpr == nil {
				continue
			}
			want, err := expr.EvalArith(valExpr, st)
			if err != nil {
				continue // references a free/hash variable not in the model
			}
			got, has := final[v]
			if !has {
				continue
			}
			if got != want {
				t.Errorf("template %d: %s = %d on original, template predicts %d", tm.ID, v, got, want)
			}
		}
	}
}

// completeModel extends a model with zero for every graph variable so
// concrete execution never hits unbound variables.
func completeModel(g *cfg.Graph, m expr.State) expr.State {
	st := expr.State{}
	for v := range g.Vars {
		st[v] = 0
	}
	for v, val := range m {
		st[v] = val
	}
	return st
}

// run concretely executes a CFG under a state, following the Figure 4
// semantics: predicates gate execution, actions update state. Returns the
// final state and whether a complete path was executed.
func run(t *testing.T, g *cfg.Graph, st expr.State) (expr.State, bool) {
	t.Helper()
	cur := st.Clone()
	id := g.Entry
	for steps := 0; steps < 100000; steps++ {
		n := g.Node(id)
		switch n.Kind {
		case cfg.Predicate:
			ok, err := expr.EvalBool(n.Pred, cur)
			if err != nil || !ok {
				return nil, false
			}
		case cfg.Action:
			v, err := expr.EvalArith(n.Val, cur)
			if err != nil {
				return nil, false
			}
			cur[n.Var] = v
		case cfg.Hash, cfg.Checksum:
			// Concrete run of the original graph: evaluate inputs.
			cur[n.Var] = 0 // placeholder; tests avoid hash paths here
		}
		if n.IsLeaf() {
			return cur, true
		}
		// Deterministic concrete execution: exactly one successor must be
		// enabled. Try each successor; the predicate check above rejects
		// wrong branches on the next step, so pick the first whose subtree
		// accepts. For simplicity walk the first enabled predicate.
		next := cfg.None
		for _, s := range n.Succs {
			sn := g.Node(s)
			if sn.Kind == cfg.Predicate {
				ok, err := expr.EvalBool(sn.Pred, cur)
				if err == nil && ok {
					next = s
					break
				}
			} else {
				next = s
				break
			}
		}
		if next == cfg.None {
			return nil, false
		}
		id = next
	}
	return nil, false
}

func TestSummaryReducesPossiblePaths(t *testing.T) {
	const n = 12
	g := buildTwoPipe(t, n)
	before := g.PossiblePathsLog10()
	stats, err := Summarize(g, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	after := g.PossiblePathsLog10()
	if after >= before {
		t.Errorf("summary did not reduce possible paths: %.2f -> %.2f", before, after)
	}
	for _, ps := range stats.Pipelines {
		if ps.PossibleAfter > ps.PossibleBefore {
			t.Errorf("pipeline %s grew: %.2f -> %.2f", ps.Name, ps.PossibleBefore, ps.PossibleAfter)
		}
	}
}

func TestPublicPreconditionFiltersFig8(t *testing.T) {
	// All paths into the egress have proto == 6 (non-TCP is dropped in the
	// ingress), so the egress branches for proto 17 must be filtered —
	// exactly Figure 8.
	const n = 3
	g := buildTwoPipe(t, n)
	stats, err := Summarize(g, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	eg := stats.Pipelines[1]
	if eg.Name != "eg" {
		t.Fatalf("pipeline order: %+v", stats.Pipelines)
	}
	// Egress valid paths: n mac hits + 1 miss. Without pre-condition
	// filtering the proto==17 branch would add one more.
	if eg.ValidPaths != n+1 {
		t.Errorf("egress summary has %d paths, want %d (proto==17 branch filtered)", eg.ValidPaths, n+1)
	}
	if eg.PublicConstraints == 0 {
		t.Error("no public pre-conditions computed for the egress pipeline")
	}

	// Ablation: without pre-condition filtering, the dead branch survives.
	g2 := buildTwoPipe(t, n)
	opts := defaultOptions()
	opts.UsePreconditions = false
	stats2, err := Summarize(g2, opts)
	if err != nil {
		t.Fatal(err)
	}
	eg2 := stats2.Pipelines[1]
	if eg2.ValidPaths <= eg.ValidPaths {
		t.Errorf("ablation: expected more paths without filtering (got %d vs %d)", eg2.ValidPaths, eg.ValidPaths)
	}
}

func TestSummaryAtomicityAuxVars(t *testing.T) {
	// The §3.3 swap example: srcPort <- 10000; dstPort <- srcPort + 1
	// must be one simultaneous assignment, so that dstPort gets the ENTRY
	// srcPort — without the @srcPort snapshot a chain of CFG assignments
	// needed.
	src := `
header tcp { bit<16> srcPort; bit<16> dstPort; }
control c {
  apply {
    tcp.dstPort = tcp.srcPort + 1;
    tcp.srcPort = 10000;
  }
}
pipeline p { control = c; }
`
	prog := p4.MustParse(src)
	g, err := cfg.Build(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Summarize(g, defaultOptions()); err != nil {
		t.Fatal(err)
	}
	res := exploreAll(t, g)
	if len(res.Templates) != 1 {
		t.Fatalf("templates = %d", len(res.Templates))
	}
	tm := res.Templates[0]
	// Concretize: entry srcPort = 7 → dstPort must be 8, srcPort 10000.
	st := expr.State{"hdr.tcp.srcPort": 7, "hdr.tcp.dstPort": 0}
	dst, err := expr.EvalArith(finalOf(tm, "hdr.tcp.dstPort"), st)
	if err != nil {
		t.Fatal(err)
	}
	if dst != 8 {
		t.Errorf("dstPort = %d, want 8 (entry srcPort + 1)", dst)
	}
	srcv, err := expr.EvalArith(finalOf(tm, "hdr.tcp.srcPort"), st)
	if err != nil {
		t.Fatal(err)
	}
	if srcv != 10000 {
		t.Errorf("srcPort = %d, want 10000", srcv)
	}
	noAuxiliaries(t, g, res.Templates)
}

// noAuxiliaries fails if the graph or a template holds an @ variable, the
// entry snapshots summary chains once saved.
func noAuxiliaries(t *testing.T, g *cfg.Graph, ts []*sym.Template) {
	t.Helper()
	aux := func(v expr.Var) bool { return strings.HasPrefix(string(v), "@") }
	for v := range g.Vars {
		if aux(v) {
			t.Errorf("graph holds %s", v)
		}
	}
	for _, tm := range ts {
		for _, v := range tm.Vars {
			if aux(v) {
				t.Errorf("template %d holds %s", tm.ID, v)
			}
		}
		for _, c := range tm.Constraints {
			if strings.Contains(c.String(), "@") {
				t.Errorf("template %d condition %s reads an @ variable", tm.ID, c)
			}
		}
	}
}

func TestSummaryUnreachablePipeline(t *testing.T) {
	// A pipeline whose guard is statically false must be severed.
	src := `
header h { bit<8> x; }
metadata { bit<9> port; }
control a { apply { meta.port = 1; } }
control b { apply { h.x = 99; } }
pipeline p1 { control = a; }
pipeline p2 { control = b; }
topology {
  entry p1;
  p1 -> p2 when meta.port == 2;
  p1 -> exit when meta.port == 1;
}
`
	prog := p4.MustParse(src)
	g, err := cfg.Build(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Summarize(g, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pipelines[1].ValidPaths != 0 {
		t.Errorf("unreachable pipeline p2 should have no paths: %+v", stats.Pipelines[1])
	}
	res := exploreAll(t, g)
	for _, tm := range res.Templates {
		if v := finalOf(tm, "hdr.h.x"); v != nil {
			if c, isC := v.(expr.Const); isC && c.Val == 99 {
				t.Error("a path still executes the unreachable pipeline")
			}
		}
	}
}

func TestSummarySMTCallReduction(t *testing.T) {
	// Fig. 11b: code summary reduces the number of SMT calls for the
	// full test generation run.
	const n = 10
	plain := buildTwoPipe(t, n)
	resPlain := exploreAll(t, plain)

	g := buildTwoPipe(t, n)
	stats, err := Summarize(g, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	resSumm := exploreAll(t, g)
	totalWith := stats.SMT.Checks + resSumm.SMT.Checks
	totalWithout := resPlain.SMT.Checks
	t.Logf("SMT calls: with summary %d (summarize %d + final %d), without %d",
		totalWith, stats.SMT.Checks, resSumm.SMT.Checks, totalWithout)
	// On a two-pipeline toy the absolute win is modest; just require the
	// final-generation phase to be cheaper than the unsummarized run.
	if resSumm.SMT.Checks > totalWithout {
		t.Errorf("final generation on summarized graph used more SMT calls (%d) than full run (%d)",
			resSumm.SMT.Checks, totalWithout)
	}
}

// defaultOptions is what a generation summarizes with: no models, the
// preconditions applied.
func defaultOptions() Options {
	o := sym.DefaultOptions()
	o.WantModels = false // summaries need conditions, not witnesses
	return Options{Sym: o, UsePreconditions: true}
}

// TestChainTagOnHeadOnly: a summarized path is one row, which leads
// straight to its pipeline's exit and carries the path's dependency tags.
func TestChainTagOnHeadOnly(t *testing.T) {
	g := buildTwoPipe(t, 3)
	if _, err := Summarize(g, defaultOptions()); err != nil {
		t.Fatal(err)
	}
	tagged := 0
	for _, r := range g.Pipelines {
		for _, id := range g.Node(r.Entry).Succs {
			row := g.Node(id)
			if row.Kind != cfg.Summary || !slices.Equal(row.Succs, []cfg.NodeID{r.Exit}) {
				t.Errorf("%s: path %d is a %s leading to %v, want a summary row leading to the exit %d", r.Name, id, row.Kind, row.Succs, r.Exit)
			}
			for k := 1; k < row.Span(); k++ {
				if g.Node(id+cfg.NodeID(k)) != row {
					t.Errorf("%s: ID %d of row %d's span resolves to another node", r.Name, id+cfg.NodeID(k), id)
				}
			}
			if row.Deps != nil && row.Span() > 1 {
				tagged++
			}
		}
	}
	if tagged == 0 {
		t.Fatal("no row of more than one ID carries tags")
	}
	noAuxiliaries(t, g, exploreAll(t, g).Templates)
}
