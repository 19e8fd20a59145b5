package smt

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/expr"
)

func TestVerdictCacheStoreLookup(t *testing.T) {
	c := NewVerdictCache()
	k1 := condKey{sum: 1, xor: 2, n: 3}
	k2 := condKey{sum: 4, xor: 5, n: 6}
	if _, ok := c.lookup(k1); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.store(k1, Sat)
	c.store(k2, Unsat)
	if r, ok := c.lookup(k1); !ok || r != Sat {
		t.Errorf("lookup(k1) = %v,%v want Sat,true", r, ok)
	}
	if r, ok := c.lookup(k2); !ok || r != Unsat {
		t.Errorf("lookup(k2) = %v,%v want Unsat,true", r, ok)
	}
	// Unknown verdicts depend on the search budget and must not be cached.
	k3 := condKey{sum: 7, xor: 8, n: 9}
	c.store(k3, Unknown)
	if _, ok := c.lookup(k3); ok {
		t.Error("Unknown verdict was cached")
	}
	if c.Len() != 2 {
		t.Errorf("Len() = %d, want 2", c.Len())
	}
}

// TestVerdictCacheOrderIndependentKey checks that the same constraint set
// asserted in different orders and different Push/Pop partitionings hashes
// to the same key, so replayed prefixes hit across workers.
func TestVerdictCacheOrderIndependentKey(t *testing.T) {
	a := expr.Eq(expr.V("x", 16), expr.C(1, 16))
	b := expr.Eq(expr.V("y", 16), expr.C(2, 16))
	c := expr.Eq(expr.V("z", 16), expr.C(3, 16))

	opts := DefaultOptions()
	opts.Cache = NewVerdictCache()

	s1 := New(opts)
	s1.Assert(a)
	s1.Push()
	s1.Assert(b)
	s1.Push()
	s1.Assert(c)
	k1 := s1.condKey()

	s2 := New(opts)
	s2.Push()
	s2.Assert(c)
	s2.Assert(b)
	s2.Assert(a)
	k2 := s2.condKey()

	if k1 != k2 {
		t.Errorf("keys differ across assertion order/frames: %+v vs %+v", k1, k2)
	}

	s3 := New(opts)
	s3.Assert(a)
	s3.Assert(b)
	if k3 := s3.condKey(); k3 == k1 {
		t.Error("different constraint sets collided")
	}
}

// TestSolverSharedCacheHits runs two solvers over the same constraints:
// the second answers from the cache without counting a check.
func TestSolverSharedCacheHits(t *testing.T) {
	opts := DefaultOptions()
	opts.Cache = NewVerdictCache()
	conj := []expr.Bool{
		expr.Eq(expr.V("p", 16), expr.C(80, 16)),
		expr.Eq(expr.V("q", 16), expr.C(443, 16)),
	}
	contradiction := expr.Eq(expr.V("p", 16), expr.C(22, 16))

	s1 := New(opts)
	for _, b := range conj {
		s1.Assert(b)
	}
	if r := s1.Check(); r != Sat {
		t.Fatalf("Check = %v, want Sat", r)
	}
	s1.Push()
	s1.Assert(contradiction)
	if r := s1.Check(); r != Unsat {
		t.Fatalf("Check = %v, want Unsat", r)
	}
	s1.Pop()
	st1 := s1.Stats()
	if st1.CacheHits != 0 {
		t.Fatalf("first solver should miss, got %d hits", st1.CacheHits)
	}

	s2 := New(opts)
	for _, b := range conj {
		s2.Assert(b)
	}
	if r := s2.Check(); r != Sat {
		t.Fatalf("cached Check = %v, want Sat", r)
	}
	s2.Push()
	s2.Assert(contradiction)
	if r := s2.Check(); r != Unsat {
		t.Fatalf("cached Check = %v, want Unsat", r)
	}
	s2.Pop()
	st2 := s2.Stats()
	if st2.CacheHits != 2 {
		t.Errorf("CacheHits = %d, want 2", st2.CacheHits)
	}
	if st2.Checks != 0 {
		t.Errorf("cache hits must not count as checks; Checks = %d", st2.Checks)
	}
}

// TestVerdictCacheConcurrent hammers one cache from many goroutines (run
// under -race in CI).
func TestVerdictCacheConcurrent(t *testing.T) {
	cache := NewVerdictCache()
	opts := DefaultOptions()
	opts.Cache = cache
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := New(opts)
			for i := 0; i < 200; i++ {
				v := expr.Var(fmt.Sprintf("v%d", i%17))
				s.Push()
				s.Assert(expr.Eq(expr.V(v, 16), expr.C(uint64(i%13), 16)))
				s.Check()
				if i%3 == 0 {
					s.Push()
					s.Assert(expr.Eq(expr.V(v, 16), expr.C(uint64(i%13+1), 16)))
					s.Check() // contradiction with the outer frame: Unsat
					s.Pop()
				}
				s.Pop()
			}
		}(w)
	}
	wg.Wait()
	if cache.Len() == 0 {
		t.Error("concurrent solvers cached nothing")
	}
	// The shared counters are atomics; under -race this test fails if any
	// increment is a bare read-modify-write. Consistency: every lookup is
	// a hit or a miss, every store was preceded by a miss, and the
	// resident entry count never exceeds the successful stores.
	st := cache.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("hammer produced no hits or no misses: %+v", st)
	}
	if st.Stores < uint64(cache.Len()) {
		t.Errorf("stores %d < resident entries %d", st.Stores, cache.Len())
	}
	if st.Misses < st.Stores {
		t.Errorf("stores %d without matching misses %d", st.Stores, st.Misses)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Checks: 1, SatResults: 2, UnsatResults: 3, Unknowns: 4, Propagations: 5, Backtracks: 6, Models: 7, CacheHits: 8}
	b := Stats{Checks: 10, SatResults: 20, UnsatResults: 30, Unknowns: 40, Propagations: 50, Backtracks: 60, Models: 70, CacheHits: 80}
	a.Add(b)
	want := Stats{Checks: 11, SatResults: 22, UnsatResults: 33, Unknowns: 44, Propagations: 55, Backtracks: 66, Models: 77, CacheHits: 88}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}
