package smt

// ResetStats zeroes the counters.
func (s *Solver) ResetStats() { s.stats = Stats{} }
