package smt

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/expr"
)

// FuzzConjunctMemo holds the conjunct-keyed assert memo to the whole-
// condition path it replaces. It asserts a sequence of conjunctions drawn
// from a pool of progGen conditions on two solvers: one through Assert and
// AssertCondition, one that normalizes every condition whole (normalize,
// appendHints) on every Assert. The conjunctions share and repeat conjuncts,
// nest them left- and right-deep, and mix in conjuncts that fold to False
// or True, that lower to atomFalse without folding, and that simplify into
// conjunctions themselves. After each assert the two solvers must hold the
// same atoms (every field, slot lists included), defines, masked atoms,
// hints and variable numbering, and the memo must count the entries its
// buckets hold. The seeds added here run in every `go test`.
func FuzzConjunctMemo(f *testing.F) {
	for seed := int64(1); seed <= 24; seed++ {
		f.Add(seed, uint8(seed*7))
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint8) {
		g := newProgGen(seed)
		pool := make([]expr.Bool, 0, 24)
		for i := 0; i < 4+int(size%12); i++ {
			pool = append(pool, g.cond())
		}
		v, u := g.vars[0], g.vars[1]
		pool = append(pool,
			expr.Cmp{Op: expr.CmpNe, L: v, R: v},                // folds to False
			expr.Cmp{Op: expr.CmpEq, L: u, R: u},                // folds to True
			expr.Cmp{Op: expr.CmpEq, L: expr.C(300, 16), R: v},  // atomFalse, not folded
			expr.Not{X: expr.Or(pool[0], pool[1])},              // simplifies to a conjunction
			expr.Logic{Op: expr.LAnd, L: expr.True, R: pool[2]}, // a conjunction with a True leaf
		)
		pick := func() expr.Bool {
			if g.rng.Intn(40) == 0 {
				return expr.False
			}
			return pool[g.rng.Intn(len(pool))]
		}
		var asserted []expr.Bool
		build := func() expr.Bool {
			if len(asserted) > 0 && g.rng.Intn(4) == 0 {
				return asserted[g.rng.Intn(len(asserted))] // whole again
			}
			n := 1 + g.rng.Intn(6)
			b := pick()
			for i := 1; i < n; i++ {
				if g.rng.Intn(3) == 0 {
					b = expr.Logic{Op: expr.LAnd, L: pick(), R: b}
				} else {
					b = expr.Logic{Op: expr.LAnd, L: b, R: pick()}
				}
			}
			return b
		}

		opts := DefaultOptions()
		s, ref := New(opts), New(opts)
		var table []expr.Bool
		for step := 0; step < 160; step++ {
			switch k := g.rng.Intn(10); {
			case k < 2 && s.Depth() < 8:
				s.Push()
				ref.Push()
				continue
			case k < 3 && s.Depth() > 0:
				s.Pop()
				ref.Pop()
				continue
			case k < 4 && len(asserted) > 0:
				// By number: a table of what was asserted so far.
				if len(table) != len(asserted) {
					table = append([]expr.Bool(nil), asserted...)
					s.SetConditions(table)
				}
				i := g.rng.Intn(len(table))
				s.AssertCondition(i)
				refAssert(ref, table[i])
			default:
				b := build()
				asserted = append(asserted, b)
				s.Assert(b)
				refAssert(ref, b)
			}
			if diff := sameAssertState(s, ref); diff != "" {
				t.Fatalf("seed %d, step %d: %s", seed, step, diff)
			}
		}
	})
}

// refAssert asserts b on ref the way the solver did before the memo was
// keyed by conjunct: the whole condition normalized, its hints extracted.
func refAssert(ref *Solver, b expr.Bool) {
	atoms, _ := ref.normalize(b)
	ref.assert(&assertMemo{cond: b, atoms: atoms, hints: appendHints(nil, atoms)})
}

// sameAssertState compares what an assert leaves in two solvers, and
// counts s's memo entries against memoLen. It returns "" when they agree.
func sameAssertState(s, ref *Solver) string {
	if len(s.atoms) != len(ref.atoms) {
		return fmt.Sprintf("%d atoms, the reference %d", len(s.atoms), len(ref.atoms))
	}
	for i := range s.atoms {
		if got, want := atomView(s.atoms[i]), atomView(ref.atoms[i]); !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("atom %d\n got  %+v\n want %+v", i, got, want)
		}
	}
	if !reflect.DeepEqual(s.defines, ref.defines) || !reflect.DeepEqual(s.masked, ref.masked) {
		return fmt.Sprintf("defines %v masked %v, the reference %v %v", s.defines, s.masked, ref.defines, ref.masked)
	}
	if !reflect.DeepEqual(s.hintLog, ref.hintLog) {
		return fmt.Sprintf("hint log %v, the reference %v", s.hintLog, ref.hintLog)
	}
	if len(s.vars) != len(ref.vars) {
		return fmt.Sprintf("%d variables, the reference %d", len(s.vars), len(ref.vars))
	}
	for i := range s.vars {
		a, b := &s.vars[i], &ref.vars[i]
		if a.name != b.name || len(a.hints) != len(b.hints) || len(a.hints) > 0 && !reflect.DeepEqual(a.hints, b.hints) {
			return fmt.Sprintf("slot %d: %s hints %v, the reference %s %v", i, a.name, a.hints, b.name, b.hints)
		}
	}
	n := 0
	for _, m := range s.memo {
		for ; m != nil; m = m.next {
			n++
		}
	}
	if n != s.memoLen {
		return fmt.Sprintf("the memo's buckets hold %d entries, memoLen says %d", n, s.memoLen)
	}
	return ""
}

// atomView is a with its empty slot lists nil, so that DeepEqual compares
// their contents only.
func atomView(a atom) atom {
	if len(a.orefs) == 0 {
		a.orefs = nil
	}
	if len(a.erefs) == 0 {
		a.erefs = nil
	}
	if len(a.tvars) == 0 {
		a.tvars = nil
	}
	return a
}
