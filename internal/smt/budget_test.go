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
