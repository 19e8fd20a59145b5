package sym_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/cfg"
	"repro/internal/expr"
	"repro/internal/hashfn"
	"repro/internal/programs"
	"repro/internal/sym"
)

// peekLog is what sym.ObservePeeks reported over some explorations.
type peekLog struct {
	mu                sync.Mutex
	pruned, descended int
	// hashPruned and hashWalked count the peeks at rows with obligations:
	// the ones a conjunct test pruned, and the ones left to be run.
	hashPruned, hashWalked int
	mismatches             []string
}

// report checks one peek at row in g: a peeked condition is the one the
// row's frame computes, a row with obligations is only ever pruned (False)
// or left to be run (nil), and only such a row is left to be run.
func (l *peekLog) report(g *cfg.Graph, row cfg.NodeID, peeked, walked expr.Bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	hashed := len(g.Node(row).Row.Obligations) > 0
	var bad string
	switch {
	case peeked == nil:
		l.descended++
		l.hashWalked++
		if !hashed {
			bad = "left a row without obligations to be run"
		}
	case expr.EqualBool(peeked, expr.False):
		l.pruned++
		if hashed {
			l.hashPruned++
		}
	default:
		l.descended++
		if hashed {
			bad = "substituted a guard before its obligations"
		}
	}
	if peeked != nil && !expr.EqualBool(peeked, walked) {
		bad = "peeked condition is not the row's"
	}
	if bad != "" && len(l.mismatches) < 5 {
		l.mismatches = append(l.mismatches, fmt.Sprintf("row %d: %s: peeked %v, walked %s", row, bad, peeked, walked))
	}
}

// exploreModes runs c sequentially, with four workers, and as frontier
// units, and returns the sequential result.
func exploreModes(t *testing.T, c sym.Config) *sym.Result {
	t.Helper()
	c.Options.Parallelism = 1
	seq, err := sym.Explore(c)
	if err != nil {
		t.Fatal(err)
	}
	par := c
	par.Options.Parallelism = 4
	if _, err := sym.Explore(par); err != nil {
		t.Fatal(err)
	}
	if err := sym.ExploreUnits(c, 4, 1, func(int, int, *sym.Result) {}); err != nil {
		t.Fatal(err)
	}
	return seq
}

// TestPeekEqualsWalk pins that deciding a row's guard from the parent's
// frame is exact: whatever the parent reads under the value stack before
// the row is the condition the row's frame computes once its obligations
// have run — for the rows that are pruned and for the ones that are not,
// however the executor got to the parent (sequential descent, a parallel
// worker's task snapshot, a frontier unit). A row with obligations is pruned
// only where its guard is False.
func TestPeekEqualsWalk(t *testing.T) {
	graphs := graphsOf(t, programs.Router(), programs.GW(1, programs.Set1), programs.GW(2, programs.Set2),
		programs.GW(3, programs.Set1), programs.GW(4, programs.Set2))
	var summarized peekLog
	for name, g := range graphs {
		var log peekLog
		restore := sym.ObservePeeks(func(row cfg.NodeID, peeked, walked expr.Bool) {
			log.report(g, row, peeked, walked)
			if strings.HasSuffix(name, "/summarized") {
				summarized.report(g, row, peeked, walked)
			}
		})
		exploreModes(t, sym.Config{Graph: g, Options: sym.DefaultOptions()})
		restore()
		t.Logf("%s: %d peeks pruned in the parent's frame (%d with obligations), %d descended (%d with obligations)",
			name, log.pruned, log.hashPruned, log.descended, log.hashWalked)
		for _, m := range log.mismatches {
			t.Errorf("%s: %s", name, m)
		}
	}
	if summarized.pruned == 0 || summarized.descended == 0 || summarized.hashPruned == 0 || summarized.hashWalked == 0 {
		t.Errorf("summary rows: %d peeks pruned (%d with obligations), %d descended (%d with obligations); want all four, or the test says nothing about them",
			summarized.pruned, summarized.hashPruned, summarized.descended, summarized.hashWalked)
	}
}

// peekFixture is a branch node with a summary row below one successor,
// whose guard reads x, or x and the hash of it:
//
//	[x ← 7]? → branch ─┬─ row{[h ← hash(x)]?; assume x == 5 | x == 7 && h == k; y ← 1}
//	                   └─ y ← 2
//
// k is one more than hash(7), so a guard on the hash folds to False once the
// hash has run over a bound x, and only then.
func peekFixture(bindSource, hashBeforeGuard, guardOnHash bool) *cfg.Graph {
	g := cfg.NewGraph()
	x := expr.V("x", 8)
	branch := g.AddPredicate(expr.True, "", "branch")
	g.Entry = branch.ID
	if bindSource {
		set := g.AddAction("x", expr.C(7, 8), "", "x ← 7")
		g.Entry = set.ID
		g.Link(set.ID, branch.ID)
	}
	var obs []cfg.Obligation
	if hashBeforeGuard {
		obs = []cfg.Obligation{{Var: "h", Kind: cfg.Hash, Inputs: []expr.Arith{x}, Width: 8}}
	}
	pred := expr.Eq(x, expr.C(5, 8))
	if guardOnHash {
		k := hashfn.Hash([]uint64{7}, []expr.Width{8}, 8) + 1
		pred = expr.And(expr.Eq(x, expr.C(7, 8)), expr.Eq(expr.V("h", 8), expr.C(k, 8)))
	}
	row := g.AddSummary(pred, obs, []cfg.Assign{{Var: "y", Val: expr.C(1, 8)}}, "", "row")
	g.Link(branch.ID, row.ID)
	g.Link(branch.ID, g.AddAction("y", expr.C(2, 8), "", "y ← 2").ID)
	return g
}

func TestPeekHandBuiltChains(t *testing.T) {
	for _, tc := range []struct {
		name                                     string
		bindSource, hashBeforeGuard, guardOnHash bool
		// peeked is the condition the parent reads, "walk" where it leaves
		// the row to be run.
		peeked                           string
		paths, pruned, templates, frames uint64
	}{
		// x is a free input: the guard reads as it is (branch, the row,
		// y ← 2: three frames).
		{name: "unbound source", peeked: "x == 5", paths: 2, templates: 2, frames: 3},
		// x is bound: the guard folds to False and the row is never entered
		// (set, branch, y ← 2: three frames).
		{name: "bound source", bindSource: true, peeked: "False", paths: 2, pruned: 1, templates: 1, frames: 3},
		// A hash obligation the guard does not read: the conjunct test sees
		// x == 5 read 7, and the row is never entered either.
		{name: "hash before guard", bindSource: true, hashBeforeGuard: true, peeked: "False", paths: 2, pruned: 1, templates: 1, frames: 3},
		// The guard dies on the hash's output, which only running the hash
		// tells (its conjunct on x holds): the row's frame is entered and
		// finds its guard False.
		{name: "guard on hash", bindSource: true, hashBeforeGuard: true, guardOnHash: true, peeked: "walk", paths: 2, pruned: 1, templates: 1, frames: 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := peekFixture(tc.bindSource, tc.hashBeforeGuard, tc.guardOnHash)
			var log peekLog
			var conds []string
			restore := sym.ObservePeeks(func(row cfg.NodeID, peeked, walked expr.Bool) {
				log.report(g, row, peeked, walked)
				log.mu.Lock()
				defer log.mu.Unlock()
				if peeked == nil {
					conds = append(conds, "walk")
				} else {
					conds = append(conds, peeked.String())
				}
			})
			defer restore()
			res := exploreModes(t, sym.Config{Graph: g, Start: cfg.None, Options: sym.DefaultOptions()})
			for _, m := range log.mismatches {
				t.Error(m)
			}
			for _, c := range conds {
				if c != tc.peeked {
					t.Errorf("peeked %s, want %s", c, tc.peeked)
				}
			}
			if len(conds) == 0 {
				t.Error("row was not peeked")
			}
			if res.PathsExplored != tc.paths || res.PrunedPaths != tc.pruned || uint64(len(res.Templates)) != tc.templates || res.Frames != tc.frames {
				t.Errorf("paths %d pruned %d templates %d frames %d, want %d %d %d %d",
					res.PathsExplored, res.PrunedPaths, len(res.Templates), res.Frames,
					tc.paths, tc.pruned, tc.templates, tc.frames)
			}
		})
	}
}

// TestMaxPathsExactWithParentPrunes: a descent the parent prunes from its
// own frame is still one budget check and one counted descent, so MaxPaths
// cuts a sequential exploration at exactly k descents, wherever k falls.
// (gw-4's summarized graph is the one whose rows are pruned by peeking.)
func TestMaxPathsExactWithParentPrunes(t *testing.T) {
	for name, g := range graphsOf(t, programs.GW(1, programs.Set1), programs.GW(2, programs.Set2), programs.GW(4, programs.Set2)) {
		if name == "gw-4/raw" {
			continue
		}
		opts := sym.DefaultOptions()
		opts.Parallelism = 1
		full, err := sym.Explore(sym.Config{Graph: g, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		total := full.PathsExplored
		want := renderAll(full.Templates)
		ks := []uint64{total - 1, total, total + 1}
		for k := uint64(1); k < total; k += max(1, total/40) {
			ks = append(ks, k)
		}
		for _, k := range ks {
			opts.MaxPaths = k
			res, err := sym.Explore(sym.Config{Graph: g, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			if res.PathsExplored != min(k, total) || res.Truncated != (k < total) {
				t.Fatalf("%s: MaxPaths %d of %d: explored %d, truncated %v", name, k, total, res.PathsExplored, res.Truncated)
			}
			got := renderAll(res.Templates)
			if len(got) > len(want) || want[:len(got)] != got {
				t.Fatalf("%s: MaxPaths %d: the %d templates are not a prefix of the full run's", name, k, len(res.Templates))
			}
		}
	}
}

func renderAll(ts []*sym.Template) string {
	var out []byte
	for _, tm := range ts {
		out = fmt.Appendf(out, "#%d %v %v\n", tm.ID, tm.Path, tm.Constraints)
	}
	return string(out)
}
