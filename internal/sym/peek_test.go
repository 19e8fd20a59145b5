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
	// hashPruned and hashWalked count the peeks at runs through a hash: the
	// ones a conjunct test pruned, and the ones left to be walked.
	hashPruned, hashWalked int
	mismatches             []string
}

// report checks one peek at the run from head in g: a peeked condition is
// the walked one, a run through a hash is only ever pruned (False) or left
// to be walked (nil), and only such a run is left to be walked.
func (l *peekLog) report(g *cfg.Graph, head cfg.NodeID, peeked, walked expr.Bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	hashed := throughHash(g, head)
	var bad string
	switch {
	case peeked == nil:
		l.descended++
		l.hashWalked++
		if !hashed {
			bad = "left a run without a hash to be walked"
		}
	case expr.EqualBool(peeked, expr.False):
		l.pruned++
		if hashed {
			l.hashPruned++
		}
	default:
		l.descended++
		if hashed {
			bad = "substituted a guard through a hash"
		}
	}
	if peeked != nil && !expr.EqualBool(peeked, walked) {
		bad = "peeked condition is not the walked one"
	}
	if bad != "" && len(l.mismatches) < 5 {
		l.mismatches = append(l.mismatches, fmt.Sprintf("run at node %d: %s: peeked %v, walked %s", head, bad, peeked, walked))
	}
}

// throughHash reports whether the run from head passes a hash or checksum
// before its guard.
func throughHash(g *cfg.Graph, head cfg.NodeID) bool {
	for n := g.Node(head); n.Kind != cfg.Predicate; n = g.Node(n.Succs[0]) {
		if n.Kind == cfg.Hash || n.Kind == cfg.Checksum {
			return true
		}
	}
	return false
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
	fr, err := sym.SplitFrontier(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	runner := fr.NewRunner(fr.Options())
	for i := range fr.Units {
		if _, err := runner.Explore(i); err != nil {
			t.Fatal(err)
		}
	}
	return seq
}

// TestPeekEqualsWalk pins that deciding a guard from the parent's frame is
// exact: whatever the parent reads through the plan's re-pointed slots is
// the condition the guard's own frame computes once the copies and hashes
// before it have run — for the chains that are pruned and for the ones that
// are not, however the executor got to the parent (sequential descent, a
// parallel worker's task snapshot, a frontier unit). A run through a hash
// (an obligation chain) is pruned only where its guard is False.
func TestPeekEqualsWalk(t *testing.T) {
	graphs := graphsOf(t, programs.Router(), programs.GW(1, programs.Set1), programs.GW(2, programs.Set2),
		programs.GW(3, programs.Set1), programs.GW(4, programs.Set2))
	var summarized peekLog
	for name, g := range graphs {
		var log peekLog
		restore := sym.ObservePeeks(func(head cfg.NodeID, peeked, walked expr.Bool) {
			log.report(g, head, peeked, walked)
			if strings.HasSuffix(name, "/summarized") {
				summarized.report(g, head, peeked, walked)
			}
		})
		exploreModes(t, sym.Config{Graph: g, Options: sym.DefaultOptions()})
		restore()
		t.Logf("%s: %d peeks pruned in the parent's frame (%d through a hash), %d descended (%d through a hash)",
			name, log.pruned, log.hashPruned, log.descended, log.hashWalked)
		for _, m := range log.mismatches {
			t.Errorf("%s: %s", name, m)
		}
	}
	if summarized.pruned == 0 || summarized.descended == 0 || summarized.hashPruned == 0 || summarized.hashWalked == 0 {
		t.Errorf("summary chains: %d peeks pruned (%d through a hash), %d descended (%d through a hash); want all four, or the test says nothing about them",
			summarized.pruned, summarized.hashPruned, summarized.descended, summarized.hashWalked)
	}
}

// peekFixture is a branch node with one run below each of its two
// successors, both ending at a guard over the copied variable, or over the
// hash of it:
//
//	[x ← 7]? → branch ─┬─ @x ← x ─ [@h ← hash(@x)]? ─ guard(@x == 5 | @x == 7 && @h == k) ─ y ← 1
//	                   └─ y ← 2
//
// k is one more than hash(7), so a guard on the hash folds to False once the
// hash has run over a bound source, and only then.
func peekFixture(bindSource, hashBeforeGuard, guardOnHash bool) *cfg.Graph {
	g := cfg.NewGraph()
	x, ax := expr.V("x", 8), expr.V("@x", 8)
	branch := g.AddPredicate(expr.True, "", "branch")
	g.Entry = branch.ID
	if bindSource {
		set := g.AddAction("x", expr.C(7, 8), "", "x ← 7")
		g.Entry = set.ID
		g.Link(set.ID, branch.ID)
	}
	save := g.AddAction("@x", x, "", "save")
	g.Link(branch.ID, save.ID)
	tail := save
	if hashBeforeGuard {
		tail = g.AddHash("@h", 8, []expr.Arith{ax}, "", "obligation")
		g.Link(save.ID, tail.ID)
	}
	pred := expr.Eq(ax, expr.C(5, 8))
	if guardOnHash {
		k := hashfn.Hash([]uint64{7}, []expr.Width{8}, 8) + 1
		pred = expr.And(expr.Eq(ax, expr.C(7, 8)), expr.Eq(expr.V("@h", 8), expr.C(k, 8)))
	}
	guard := g.AddPredicate(pred, "", "guard")
	g.Link(tail.ID, guard.ID)
	g.Link(guard.ID, g.AddAction("y", expr.C(1, 8), "", "y ← 1").ID)
	g.Link(branch.ID, g.AddAction("y", expr.C(2, 8), "", "y ← 2").ID)
	return g
}

func TestPeekHandBuiltChains(t *testing.T) {
	for _, tc := range []struct {
		name                                     string
		bindSource, hashBeforeGuard, guardOnHash bool
		// peeked is the condition the parent reads, "walk" where it leaves
		// the run to be walked.
		peeked                           string
		paths, pruned, templates, frames uint64
	}{
		// The copy's source is a free input: the reference to @x reads the
		// copy's own right-hand side, as the copy's frame would have bound.
		{name: "unbound source", peeked: "x == 5", paths: 2, templates: 2, frames: 5},
		// The source is bound: the guard folds to False and its chain is
		// never entered (set, branch, y ← 2: three frames).
		{name: "bound source", bindSource: true, peeked: "False", paths: 2, pruned: 1, templates: 1, frames: 3},
		// A hash obligation between the copy and the guard, which does not
		// read it: the conjunct test sees @x == 5 read 7 through the copy, and
		// the chain is never entered either.
		{name: "hash before guard", bindSource: true, hashBeforeGuard: true, peeked: "False", paths: 2, pruned: 1, templates: 1, frames: 3},
		// The guard dies on the hash's output, which only running the hash
		// tells (its conjunct on @x holds): every frame down to the guard's
		// own False is entered.
		{name: "guard on hash", bindSource: true, hashBeforeGuard: true, guardOnHash: true, peeked: "walk", paths: 2, pruned: 1, templates: 1, frames: 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := peekFixture(tc.bindSource, tc.hashBeforeGuard, tc.guardOnHash)
			var log peekLog
			var conds []string
			restore := sym.ObservePeeks(func(head cfg.NodeID, peeked, walked expr.Bool) {
				log.report(g, head, peeked, walked)
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
				t.Error("run was not peeked")
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
// (gw-4's summarized graph is the one whose chains are pruned by peeking.)
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
