package summary

import (
	"fmt"
	"maps"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/cfg"
	"repro/internal/expr"
	"repro/internal/programs"
	"repro/internal/sym"
)

// The summarization code this package shipped before its fixed cost was cut,
// kept as the oracle (TestSummarizationMatchesReference): a region's
// out-facts as the meet, chain by chain, of a clone of the entry facts
// updated by each chain; and region path counts in big.Int throughout.

// refSetRegionOut is setRegionOut as it was: a facts.clone, markModified and
// addCond per chain, folded with refMeetFacts.
func refSetRegionOut(in *facts, templates []*sym.Template, initC []expr.Bool, initV expr.Subst, g *cfg.Graph) *facts {
	var out *facts
	for _, t := range templates {
		if t.Dropped {
			continue
		}
		f := in.clone()
		for s, val := range t.Final {
			v := t.Vars[s]
			if val == nil {
				continue
			}
			entryVal, wasPublic := initV[v]
			if !wasPublic {
				entryVal = expr.V(v, g.Vars[v])
			}
			if expr.EqualArith(val, entryVal) {
				continue
			}
			refMarkModified(f, v)
			if c, ok := val.(expr.Const); ok {
				f.values[v] = c
			}
		}
		for _, c := range t.Constraints[len(initC):] {
			for _, cj := range expr.AppendConjuncts(nil, c) {
				refAddCond(f, cj)
			}
		}
		out = refMeetFacts(out, f)
	}
	return out
}

// refMarkModified is facts.markModified as it was.
func refMarkModified(f *facts, v expr.Var) {
	f.modified[v] = true
	delete(f.values, v)
	for k, c := range f.conds {
		vars := map[expr.Var]expr.Width{}
		expr.VarsOfBool(c, vars)
		if _, ok := vars[v]; ok {
			delete(f.conds, k)
		}
	}
}

// refAddCond is facts.addCond as it was.
func refAddCond(f *facts, c expr.Bool) {
	vars := map[expr.Var]expr.Width{}
	expr.VarsOfBool(c, vars)
	for v := range vars {
		if f.modified[v] {
			return
		}
	}
	f.conds[c.String()] = c
}

// refMeetFacts is meet as it was, with a variable map per condition.
func refMeetFacts(a, b *facts) *facts {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := newFacts()
	for v, val := range a.values {
		if bv, ok := b.values[v]; ok && expr.EqualArith(val, bv) {
			out.values[v] = val
		}
	}
	for k, c := range a.conds {
		if _, ok := b.conds[k]; ok {
			out.conds[k] = c
		}
	}
	for v := range a.modified {
		out.modified[v] = true
	}
	for v := range b.modified {
		out.modified[v] = true
	}
	for k, c := range out.conds {
		vars := map[expr.Var]expr.Width{}
		expr.VarsOfBool(c, vars)
		for v := range vars {
			if out.modified[v] {
				delete(out.conds, k)
				break
			}
		}
	}
	return out
}

// refRegionPaths is cfg.Graph.RegionPaths as it was: big.Int at every node.
func refRegionPaths(g *cfg.Graph, r *cfg.Region) *big.Int {
	memo := map[cfg.NodeID]*big.Int{}
	var count func(id cfg.NodeID) *big.Int
	count = func(id cfg.NodeID) *big.Int {
		if id == r.Exit {
			return big.NewInt(1)
		}
		if c, ok := memo[id]; ok {
			return c
		}
		res := new(big.Int)
		for _, s := range g.Nodes[id].Succs {
			res.Add(res, count(s))
		}
		memo[id] = res
		return res
	}
	return count(r.Entry)
}

// refPossiblePaths is cfg.Graph.PossiblePaths as it was.
func refPossiblePaths(g *cfg.Graph) *big.Int {
	memo := make([]*big.Int, len(g.Nodes))
	var count func(id cfg.NodeID) *big.Int
	count = func(id cfg.NodeID) *big.Int {
		if memo[id] != nil {
			return memo[id]
		}
		n := g.Nodes[id]
		res := new(big.Int)
		if n.IsLeaf() {
			res.SetInt64(1)
		} else {
			for _, s := range n.Succs {
				res.Add(res, count(s))
			}
		}
		memo[id] = res
		return res
	}
	if g.Entry == cfg.None {
		return big.NewInt(0)
	}
	return count(g.Entry)
}

// TestSummarizationMatchesReference runs summarization on every corpus
// program and on gw-1..4 under rule sets 1..4, and holds what was cut
// against the references above: every region's out-facts (values,
// condition keys and conditions, modified set) against refSetRegionOut over
// the same chains, and every region's path count, and the graph's, raw and
// summarized, against the big.Int walks.
func TestSummarizationMatchesReference(t *testing.T) {
	ps := []*programs.Program{programs.Router(), programs.MTag(), programs.ACL(), programs.SwitchP4()}
	names := []string{"Router", "mTag", "ACL", "switch.p4"}
	for n := 1; n <= 4; n++ {
		for _, set := range []programs.RuleScale{programs.Set1, programs.Set2, programs.Set3, programs.Set4} {
			ps, names = append(ps, programs.GW(n, set)), append(names, fmt.Sprintf("gw-%d/%v", n, set))
		}
	}
	var name string
	regions := 0
	regionOutObserver = func(in *facts, templates []*sym.Template, initC []expr.Bool, initV expr.Subst, g *cfg.Graph, out *facts) {
		regions++
		if d := diffFacts(out, refSetRegionOut(in, templates, initC, initV, g)); d != "" {
			t.Errorf("%s: region out-facts differ from the reference: %s", name, d)
		}
	}
	defer func() { regionOutObserver = nil }()
	for i, p := range ps {
		g, err := cfg.Build(p.Prog, p.Rules)
		if err != nil {
			t.Fatal(err)
		}
		name = names[i]
		checkPathCounts(t, name+"/raw", g)
		if _, err := Summarize(g, defaultOptions()); err != nil {
			t.Fatal(err)
		}
		checkPathCounts(t, name+"/summarized", g)
	}
	t.Logf("%d programs, %d region out-facts compared", len(ps), regions)
}

func checkPathCounts(t *testing.T, name string, g *cfg.Graph) {
	t.Helper()
	if got, want := g.PossiblePaths(), refPossiblePaths(g); got.Cmp(want) != 0 {
		t.Errorf("%s: PossiblePaths %s, reference %s", name, got, want)
	}
	for _, r := range g.Pipelines {
		if got, want := g.RegionPaths(r), refRegionPaths(g, r); got.Cmp(want) != 0 {
			t.Errorf("%s: RegionPaths(%s) %s, reference %s", name, r.Name, got, want)
		}
	}
}

// diffFacts describes how two fact sets differ, "" for not at all.
func diffFacts(got, want *facts) string {
	if got == nil || want == nil {
		if got != want {
			return fmt.Sprintf("got %v, want %v", got, want)
		}
		return ""
	}
	if len(got.values) != len(want.values) {
		return fmt.Sprintf("%d values, want %d", len(got.values), len(want.values))
	}
	for v, val := range want.values {
		if !expr.EqualArith(got.values[v], val) {
			return fmt.Sprintf("value of %s %v, want %v", v, got.values[v], val)
		}
	}
	if len(got.conds) != len(want.conds) {
		return fmt.Sprintf("conditions %v, want %v", got.sortedConds(), want.sortedConds())
	}
	for k, c := range want.conds {
		if gc, ok := got.conds[k]; !ok || !expr.EqualBool(gc, c) {
			return fmt.Sprintf("condition %s is %v", k, gc)
		}
	}
	if !maps.Equal(got.modified, want.modified) {
		return fmt.Sprintf("modified %v, want %v", got.modified, want.modified)
	}
	return ""
}

// TestRegionPathsOverflow: a region of n diamonds in a row has 2^n paths;
// at 64 and beyond the count no longer fits a uint64 and is counted again
// in big.Int.
func TestRegionPathsOverflow(t *testing.T) {
	for _, n := range []int{1, 63, 64, 70} {
		g := cfg.NewGraph()
		entry := g.AddPredicate(expr.True, "r", "entry")
		g.Entry = entry.ID
		at := entry.ID
		for i := 0; i < n; i++ {
			join := g.AddPredicate(expr.True, "r", "join")
			for side := 0; side < 2; side++ {
				arm := g.AddAction("x", expr.C(uint64(side), 8), "r", "arm")
				g.Link(at, arm.ID)
				g.Link(arm.ID, join.ID)
			}
			at = join.ID
		}
		exit := g.AddPredicate(expr.True, "r", "exit")
		g.Link(at, exit.ID)
		g.Link(exit.ID, g.AddAction("y", expr.C(1, 8), "", "after").ID)
		r := &cfg.Region{Name: "r", Entry: entry.ID, Exit: exit.ID}
		g.Pipelines = append(g.Pipelines, r)
		want := new(big.Int).Lsh(big.NewInt(1), uint(n))
		if got := g.RegionPaths(r); got.Cmp(want) != 0 || got.Cmp(refRegionPaths(g, r)) != 0 {
			t.Errorf("%d diamonds: RegionPaths %s, want %s", n, got, want)
		}
		if got := g.PossiblePaths(); got.Cmp(want) != 0 || got.Cmp(refPossiblePaths(g)) != 0 {
			t.Errorf("%d diamonds: PossiblePaths %s, want %s", n, got, want)
		}
	}
}

// TestSetRegionOutMatchesReferenceRandom holds meet and setRegionOut to
// the references on random facts and chains — chains that leave a
// variable as it was or unbound, set it to one of a few constants or to a
// symbolic value, collect conjuncts from a small pool (so that some are
// common to every chain) or are dropped — where the corpus has few regions
// whose entry conditions mention what the chains change. A round's chains
// share one variable table, as the templates of one exploration do.
func TestSetRegionOutMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	g := cfg.NewGraph()
	vars := []expr.Var{"a", "b", "c", "d", "e", "f"}
	for _, v := range vars {
		g.Vars[v] = 8
	}
	table := []expr.Var{"c", "a", "f", "b", "e", "d"}
	slot := map[expr.Var]int{}
	for s, v := range table {
		slot[v] = s
	}
	ref := func() expr.Ref { v := vars[rng.Intn(len(vars))]; return expr.V(v, 8) }
	cond := func() expr.Bool {
		c := expr.Bool(expr.Eq(ref(), expr.C(uint64(rng.Intn(3)), 8)))
		if rng.Intn(3) == 0 {
			c = expr.And(c, expr.Cmp{Op: expr.CmpNe, L: ref(), R: ref()})
		}
		return c
	}
	randomFacts := func() *facts {
		f := newFacts()
		for _, v := range vars {
			switch rng.Intn(4) {
			case 0:
				f.values[v] = expr.C(uint64(rng.Intn(3)), 8)
			case 1:
				f.modified[v] = true
			}
		}
		for i := rng.Intn(4); i > 0; i-- {
			f.addCond(cond())
		}
		return f
	}
	for round := 0; round < 2000; round++ {
		in, other := randomFacts(), randomFacts()
		if d := diffFacts(meet(in, other), refMeetFacts(in, other)); d != "" {
			t.Fatalf("round %d: meet: %s", round, d)
		}
		initV := maps.Clone(in.values)
		initC := in.sortedConds()
		var templates []*sym.Template
		for i := rng.Intn(5); i > 0; i-- {
			tm := &sym.Template{Final: make(expr.Env, len(table)), Vars: table, Dropped: rng.Intn(5) == 0, Constraints: initC}
			for _, v := range vars {
				switch rng.Intn(5) {
				case 0:
					tm.Final[slot[v]] = expr.V(v, 8)
				case 1:
					tm.Final[slot[v]] = expr.C(uint64(rng.Intn(3)), 8)
				case 2:
					tm.Final[slot[v]] = expr.Bin{Op: expr.OpAdd, L: ref(), R: expr.C(1, 8)}
				}
				if iv, public := initV[v]; public && rng.Intn(2) == 0 {
					tm.Final[slot[v]] = iv
				}
			}
			for j := rng.Intn(4); j > 0; j-- {
				tm.Constraints = append(tm.Constraints, cond())
			}
			templates = append(templates, tm)
		}
		fl := &flow{regionOut: map[string]*facts{}}
		r := &cfg.Region{Name: "r"}
		fl.setRegionOut(r, in, templates, initC, initV, g)
		if d := diffFacts(fl.regionOut["r"], refSetRegionOut(in, templates, initC, initV, g)); d != "" {
			t.Fatalf("round %d: %s", round, d)
		}
	}
}
