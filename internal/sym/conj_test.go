package sym

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cfg"
	"repro/internal/expr"
)

// TestConjunctTestImpliesFalse is the oracle for the conjunct dispatch: a
// guard's conjunct test may only ever report a guard dead that substitution
// folds to False. Guards are conjunctions of `Ref op Const` under all six
// operators, the constant on either side, widths 1–48 with truncated
// constants, mixed with Or, Not and comparisons the test does not read; each
// is the guard of a random summary row below a branch node, with hashes and
// checksums before it and assignments after, and is read under random value
// stacks — constants of any width, symbolic values, unbound slots, and hash
// outputs that differ from what the slot held before the row. Where the
// peek's test reports dead, the guard run the way the row's frame runs it is
// False, and where a guard's own test does, SubstBool is.
func TestConjunctTestImpliesFalse(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var peeks, dead, missed, nodeDead, nodeMissed, hashed int
	for round := 0; round < 3000; round++ {
		g, row := randomRowGraph(rng)
		c := Config{Graph: g, Options: DefaultOptions()}
		p := newPlan(c, g.Entry)
		e := newExecutor(c, c.Options, p, 0, &sharedState{})
		n := g.Node(row)
		guard := row + cfg.NodeID(n.Row.GuardAt())
		refs := p.nodeRefs(guard)
		for trial := 0; trial < 20; trial++ {
			for s := range e.vals {
				e.vals[s] = randomValue(rng, p.vars)
			}
			walked := walkRow(e, row)
			if n.Span() > 1 {
				peeks++
				if len(n.Row.Obligations) > 0 {
					hashed++
				}
				switch {
				case e.contradicts(p.nodeConjs(row), refs):
					dead++
					if !expr.EqualBool(walked, expr.False) {
						t.Fatalf("peek reports %s dead, walked to %s\n%s", n.Pred, walked, describe(e, g, row))
					}
				case expr.EqualBool(walked, expr.False):
					missed++
				}
			}
			sub, _ := e.vals.SubstBool(n.Pred, refs)
			switch {
			case e.contradicts(p.nodeConjs(guard), refs):
				nodeDead++
				if !expr.EqualBool(sub, expr.False) {
					t.Fatalf("guard test reports %s dead, SubstBool gives %s\n%s", n.Pred, sub, describe(e, g, row))
				}
			case expr.EqualBool(sub, expr.False):
				nodeMissed++
			}
		}
	}
	t.Logf("peeks: %d read (%d before obligations), %d reported dead, %d run to False unreported", peeks, hashed, dead, missed)
	t.Logf("guards: %d reported dead, %d substituted to False unreported", nodeDead, nodeMissed)
	if dead == 0 || nodeDead == 0 || hashed == 0 {
		t.Fatal("the generator never exercised a dead guard, or a row with obligations")
	}
}

// randomRowGraph builds branch → row → leaf, beside branch → leaf, over
// variables v0..v5 of random widths. The row has up to three hashes or
// checksums vi ← hash(vj, vk), a random guard, and up to two copies vi ← vj.
func randomRowGraph(rng *rand.Rand) (g *cfg.Graph, row cfg.NodeID) {
	g = cfg.NewGraph()
	vars := make([]expr.Ref, 6)
	for i := range vars {
		vars[i] = expr.V(expr.Var(fmt.Sprintf("v%d", i)), expr.Width(1+rng.Intn(48)))
	}
	pick := func() expr.Ref { return vars[rng.Intn(len(vars))] }
	branch := g.AddPredicate(expr.True, "", "branch")
	g.Entry = branch.ID
	var obs []cfg.Obligation
	for n := rng.Intn(4); n > 0; n-- {
		dst := pick()
		if rng.Intn(2) == 0 {
			obs = append(obs, cfg.Obligation{Var: dst.Var, Kind: cfg.Hash, Inputs: []expr.Arith{pick(), pick()}, Width: dst.W})
		} else {
			obs = append(obs, cfg.Obligation{Var: dst.Var, Kind: cfg.Checksum, Inputs: []expr.Arith{pick()}, Width: dst.W})
		}
	}
	var assigns []cfg.Assign
	for n := rng.Intn(3); n > 0; n-- {
		dst := pick()
		assigns = append(assigns, cfg.Assign{Var: dst.Var, Val: pick()})
	}
	r := g.AddSummary(randomGuard(rng, pick, 3), obs, assigns, "", "row")
	g.Link(branch.ID, r.ID)
	g.Link(r.ID, g.AddAction("y", expr.C(1, 8), "", "leaf").ID)
	g.Link(branch.ID, g.AddAction("y", expr.C(2, 8), "", "leaf").ID)
	return g, r.ID
}

// randomGuard is a conjunction of `Ref op Const` conjuncts, the constant
// truncated to the Ref's width and on either side, and noise the conjunct
// test does not read.
func randomGuard(rng *rand.Rand, pick func() expr.Ref, depth int) expr.Bool {
	if depth > 0 && rng.Intn(3) > 0 {
		return expr.Logic{Op: expr.LAnd, L: randomGuard(rng, pick, depth-1), R: randomGuard(rng, pick, depth-1)}
	}
	r := pick()
	k := expr.C(randomConst(rng), r.W)
	op := expr.CmpOp(rng.Intn(int(expr.CmpLe) + 1))
	leaf := expr.Bool(expr.Cmp{Op: op, L: r, R: k})
	if rng.Intn(2) == 0 {
		leaf = expr.Cmp{Op: op, L: k, R: r}
	}
	switch rng.Intn(8) {
	case 0:
		return expr.Logic{Op: expr.LOr, L: leaf, R: randomGuard(rng, pick, 0)}
	case 1:
		return expr.Not{X: leaf}
	case 2:
		return expr.Cmp{Op: op, L: r, R: pick()}
	case 3:
		return expr.Cmp{Op: op, L: expr.Bin{Op: expr.OpAdd, L: r, R: expr.C(1, r.W)}, R: k}
	}
	return leaf
}

// randomConst favours the small values a value stack holds most, so that
// conjuncts hold as often as they fail; expr.C truncates it to a width.
func randomConst(rng *rand.Rand) uint64 {
	if rng.Intn(2) == 0 {
		return uint64(rng.Intn(4))
	}
	return rng.Uint64()
}

// randomValue is what a slot may hold: nothing, a constant (of the slot's
// variable's width or another), or a symbolic value.
func randomValue(rng *rand.Rand, vars []expr.Var) expr.Arith {
	switch rng.Intn(6) {
	case 0, 1:
		return nil
	case 2:
		return expr.V(vars[rng.Intn(len(vars))], 16)
	case 3:
		return expr.Bin{Op: expr.OpAdd, L: expr.V(vars[rng.Intn(len(vars))], 8), R: expr.C(1, 8)}
	}
	w := expr.Width(1 + rng.Intn(48))
	return expr.C(randomConst(rng), w)
}

// describe renders a failing case: the row and the value stack.
func describe(e *executor, g *cfg.Graph, row cfg.NodeID) string {
	s := g.Node(row).StmtString() + "\n"
	for i, v := range e.vals {
		s += fmt.Sprintf("%s = %v\n", e.p.vars[i], v)
	}
	return s
}
