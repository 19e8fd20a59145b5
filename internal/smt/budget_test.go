package smt

import (
	"errors"
	"testing"

	"repro/internal/expr"
)

// TestStepBudgetUnknown checks that exhausting the per-query step budget
// yields Unknown (never a wrong Unsat) with a typed *BudgetError carrying
// the budget, unwrappable to ErrBudget.
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
	err := s.LastUnknown()
	if err == nil {
		t.Fatal("LastUnknown = nil after a budget-exhausted check")
	}
	if !errors.Is(err, ErrBudget) {
		t.Errorf("error %v does not unwrap to ErrBudget", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %T is not a *BudgetError", err)
	}
	if be.Steps != 1 {
		t.Errorf("BudgetError = %+v, want Steps=1", be)
	}
	st := s.Stats()
	if st.Unknowns != 1 || st.BudgetExhausted != 1 {
		t.Errorf("stats = %+v, want Unknowns=1 BudgetExhausted=1", st)
	}
}

// TestLastUnknownResetOnDecidedCheck checks the error does not leak into
// later, decided queries.
func TestLastUnknownReset(t *testing.T) {
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
	s.Pop()
	s.Assert(expr.Eq(expr.V("x", 16), expr.C(3, 16)))
	if r := s.Check(); r != Sat {
		t.Fatalf("Check = %v, want Sat", r)
	}
	if err := s.LastUnknown(); err != nil {
		t.Errorf("LastUnknown = %v after a decided check, want nil", err)
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
// it has proved nothing: it answers Unknown, explained by ErrTruncated and
// counted in TruncatedUnknown, never Unsat.
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
	if res != Unknown || s.LastUnknown() != ErrTruncated || st.Unknowns != 1 || st.TruncatedUnknown != 1 || st.UnsatResults != 0 || st.BudgetExhausted != 0 {
		t.Fatalf("%s: %v (%v) with stats %+v; want one Unknown explained by ErrTruncated", q, res, s.LastUnknown(), st)
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
