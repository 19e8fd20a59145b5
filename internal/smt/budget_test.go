package smt

import (
	"testing"

	"repro/internal/expr"
)

// TestStepBudgetUnknown checks that exhausting the per-query step budget
// yields Unknown (never a wrong Unsat), counted as budget-exhausted and not
// as a truncated search.
func TestStepBudgetUnknown(t *testing.T) {
	opts := DefaultOptions()
	opts.SearchBudget = 1
	s := New(opts)
	// Satisfiable, but undecidable in one backtracking step.
	s.Assert(expr.Eq(
		expr.Bin{Op: expr.OpAdd, L: expr.V("a", 16), R: expr.V("b", 16)},
		expr.C(7, 16)))
	if r := s.Check(); r != Unknown {
		t.Fatalf("Check = %v, want Unknown", r)
	}
	if st := s.Stats(); st.Unknowns != 1 || st.BudgetExhausted != 1 || st.TruncatedUnknown != 0 {
		t.Errorf("stats = %+v, want Unknowns=1 BudgetExhausted=1 TruncatedUnknown=0", st)
	}
}

// TestBudgetUnknownAllocatesNothing: a query that exhausts its step
// budget carries its reason to the counters as a value, so answering it
// Unknown allocates nothing once the solver's scratch has grown.
func TestBudgetUnknownAllocatesNothing(t *testing.T) {
	opts := DefaultOptions()
	opts.SearchBudget = 1
	s := New(opts)
	s.Assert(expr.Eq(
		expr.Bin{Op: expr.OpAdd, L: expr.V("a", 16), R: expr.V("b", 16)},
		expr.C(7, 16)))
	s.Check()
	if allocs := testing.AllocsPerRun(100, func() { s.Check() }); allocs != 0 {
		t.Errorf("a budget-exhausted check allocates %.1f times, want 0", allocs)
	}
	if st := s.Stats(); st.Unknowns != 102 || st.BudgetExhausted != 102 {
		t.Errorf("stats = %+v, want 102 Unknowns, each budget-exhausted", st)
	}
}

// TestDecidedCheckAfterUnknown checks that a budget-exhausted query's
// reason is not counted again by a later, decided one.
func TestDecidedCheckAfterUnknown(t *testing.T) {
	opts := DefaultOptions()
	opts.SearchBudget = 1
	s := New(opts)
	s.Push()
	s.Assert(expr.Eq(
		expr.Bin{Op: expr.OpAdd, L: expr.V("a", 16), R: expr.V("b", 16)},
		expr.C(7, 16)))
	if r := s.Check(); r != Unknown {
		t.Fatalf("setup Check = %v, want Unknown", r)
	}
	before := s.Stats()
	s.Pop()
	s.Assert(expr.Eq(expr.V("x", 16), expr.C(3, 16)))
	if r := s.Check(); r != Sat {
		t.Fatalf("Check = %v, want Sat", r)
	}
	if st := s.Stats(); st.Unknowns != before.Unknowns || st.BudgetExhausted != before.BudgetExhausted || st.SatResults != before.SatResults+1 {
		t.Errorf("stats after a decided check %+v, before it %+v; want one more Sat and nothing else", st, before)
	}
}

// TestBudgetNeverUnsat fuzz-lite: over a spread of tiny budgets, a
// satisfiable constraint set must never come back Unsat — budget
// exhaustion degrades to Unknown only.
func TestBudgetNeverUnsat(t *testing.T) {
	sat := []expr.Bool{
		expr.Eq(expr.Bin{Op: expr.OpAdd, L: expr.V("a", 16), R: expr.V("b", 16)}, expr.C(7, 16)),
		expr.Eq(expr.V("c", 16), expr.V("d", 16)),
	}
	for budget := 1; budget <= 64; budget *= 2 {
		opts := DefaultOptions()
		opts.SearchBudget = budget
		s := New(opts)
		for _, b := range sat {
			s.Assert(b)
		}
		if r := s.Check(); r == Unsat {
			t.Fatalf("budget %d: satisfiable set reported Unsat", budget)
		}
	}
}

// TestTruncatedSearchAnswersUnknown: with a 5-bit c, (c + 5) >= (c + 7)
// holds for c = 25 and 26, where c + 7 wraps, but the search tries 24 of
// c's 32 values and neither of those. Having cut c's candidate list short,
// it has proved nothing: it answers Unknown, counted in TruncatedUnknown,
// never Unsat.
func TestTruncatedSearchAnswersUnknown(t *testing.T) {
	c := expr.V("c", 5)
	q := expr.Cmp{Op: expr.CmpGe,
		L: expr.Bin{Op: expr.OpAdd, L: c, R: expr.C(5, 5)},
		R: expr.Bin{Op: expr.OpAdd, L: c, R: expr.C(7, 5)}}
	var models []uint64
	for x := uint64(0); x < 32; x++ {
		if ok, err := expr.EvalBool(q, expr.State{"c": x}); err == nil && ok {
			models = append(models, x)
		}
	}
	if len(models) != 2 || models[0] != 25 || models[1] != 26 {
		t.Fatalf("brute force: %v satisfy %s, want [25 26]", models, q)
	}
	s := New(DefaultOptions())
	s.Assert(q)
	res := s.Check()
	st := s.Stats()
	if res != Unknown || st.Unknowns != 1 || st.TruncatedUnknown != 1 || st.UnsatResults != 0 || st.BudgetExhausted != 0 {
		t.Fatalf("%s: %v with stats %+v; want one Unknown, counted as a truncated search", q, res, st)
	}
}

// TestWrappedSumNeverUnsat: u + 20 == k has a model for an 8-bit u and any
// k (u = k - 20, wrapped), and v == u + 20 does for a 4-bit v, but a
// search that tries a cut list of u's values finds none of them. It must
// not answer Unsat: each query answers Sat or Unknown.
func TestWrappedSumNeverUnsat(t *testing.T) {
	u := expr.V("u", 8)
	sum := expr.Bin{Op: expr.OpAdd, L: u, R: expr.C(20, 8)}
	for _, q := range []expr.Bool{
		expr.Eq(sum, expr.C(0, 8)),
		expr.Eq(sum, expr.C(4, 8)),
		expr.Eq(expr.V("v", 4), sum),
	} {
		s := New(DefaultOptions())
		s.Assert(q)
		if res := s.Check(); res == Unsat {
			t.Errorf("%s: Unsat, but it has a model", q)
		}
	}
}
