package smt

// LastUnknown explains the most recent Check/Model that returned
// Unknown: a *BudgetError (errors.Is(err, ErrBudget)) when a budget was
// the cause, ErrTruncated when a cut candidate list was, nil when the
// last query did not end Unknown. The value is overwritten by every check.
func (s *Solver) LastUnknown() error { return s.lastUnknown }

// ResetStats zeroes the counters.
func (s *Solver) ResetStats() { s.stats = Stats{} }
