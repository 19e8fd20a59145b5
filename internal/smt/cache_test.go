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
	c.store(k1, Sat, nil)
	c.store(k2, Unsat, nil)
	if r, ok := c.lookup(k1); !ok || r != Sat {
		t.Errorf("lookup(k1) = %v,%v want Sat,true", r, ok)
	}
	if r, ok := c.lookup(k2); !ok || r != Unsat {
		t.Errorf("lookup(k2) = %v,%v want Unsat,true", r, ok)
	}
	// Unknown verdicts depend on the search budget and must not be cached.
	k3 := condKey{sum: 7, xor: 8, n: 9}
	c.store(k3, Unknown, nil)
	if _, ok := c.lookup(k3); ok {
		t.Error("Unknown verdict was cached")
	}
	if c.Len() != 2 {
		t.Errorf("Len() = %d, want 2", c.Len())
	}
}

// TestVerdictCacheInvalidate stores verdicts under dependency tags and
// checks that Invalidate evicts exactly the tagged entries, counts them in
// CacheStats.Invalidated, and leaves untagged entries untouched.
func TestVerdictCacheInvalidate(t *testing.T) {
	c := NewVerdictCache()
	tagA := TagID("acl#0011223344556677")
	tagB := TagID("acl#miss")
	tagTbl := TagID("acl")
	k1 := condKey{sum: 1, xor: 2, n: 3}
	k2 := condKey{sum: 4, xor: 5, n: 6}
	k3 := condKey{sum: 7, xor: 8, n: 9}
	c.store(k1, Sat, []uint64{tagA, tagTbl})
	c.store(k2, Unsat, []uint64{tagB, tagTbl})
	c.store(k3, Sat, nil) // no deps: survives every invalidation

	if n := c.Invalidate([]uint64{TagID("other")}); n != 0 {
		t.Fatalf("Invalidate(unrelated) removed %d, want 0", n)
	}
	if n := c.Invalidate([]uint64{tagA}); n != 1 {
		t.Fatalf("Invalidate(tagA) removed %d, want 1", n)
	}
	if _, ok := c.lookup(k1); ok {
		t.Error("k1 survived its tag's invalidation")
	}
	if _, ok := c.lookup(k2); !ok {
		t.Error("k2 evicted by an unrelated tag")
	}
	// Whole-table tag still lists k1 (already gone) and k2: tolerant of
	// stale keys, removes only the present one.
	if n := c.Invalidate([]uint64{tagTbl}); n != 1 {
		t.Fatalf("Invalidate(table) removed %d, want 1", n)
	}
	if _, ok := c.lookup(k3); !ok {
		t.Error("untagged entry evicted")
	}
	if st := c.Stats(); st.Invalidated != 2 {
		t.Errorf("Stats.Invalidated = %d, want 2", st.Invalidated)
	}
	if c.Len() != 1 {
		t.Errorf("Len() = %d, want 1", c.Len())
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

// exportedKeys collects what one ExportPending visits, as sum → tags.
func exportedKeys(c *VerdictCache) (map[uint64][]uint64, func()) {
	got := map[uint64][]uint64{}
	persisted := c.ExportPending(func(sum, _ uint64, _ uint32, _ Result, tags []uint64) bool {
		got[sum] = tags
		return true
	})
	return got, persisted
}

// TestExportPendingVisitsOnlyWhatNoStoreHas: the contract a store commit
// relies on. Seeded verdicts are never exported; a solver's are, until an
// export that visited them is marked persisted; an export that is not
// (its transaction aborted) leaves them pending; a verdict stored between
// an export and its persisted call is not marked by it; an invalidated
// verdict is gone.
func TestExportPendingVisitsOnlyWhatNoStoreHas(t *testing.T) {
	c := NewVerdictCache()
	key := func(i uint64) condKey { return condKey{sum: i, xor: i << 8, n: 1} }
	for i := uint64(1); i <= 3; i++ {
		if !c.Seed(key(i).sum, key(i).xor, key(i).n, Unsat, []uint64{100}) {
			t.Fatal("seed rejected")
		}
	}
	if got, _ := exportedKeys(c); len(got) != 0 {
		t.Fatalf("a seeded cache exports %v", got)
	}

	c.store(key(4), Sat, []uint64{100, 200})
	c.store(key(5), Unsat, []uint64{300})
	// Seeding a verdict a solver stored must not hide it from the export.
	c.Seed(key(4).sum, key(4).xor, key(4).n, Sat, []uint64{100, 200})
	got, _ := exportedKeys(c) // persisted not called: an aborted commit
	if len(got) != 2 || len(got[4]) != 2 || len(got[5]) != 1 {
		t.Fatalf("export = %v, want keys 4 (two tags) and 5 (one)", got)
	}

	got, persisted := exportedKeys(c)
	if len(got) != 2 {
		t.Fatalf("export after an aborted commit = %v, want keys 4 and 5 again", got)
	}
	c.store(key(6), Sat, []uint64{200}) // lands before the commit is durable
	persisted()
	if got, _ = exportedKeys(c); len(got) != 1 || got[6] == nil {
		t.Fatalf("export after a commit = %v, want key 6 alone", got)
	}

	if n := c.Invalidate([]uint64{200}); n != 2 {
		t.Fatalf("invalidated %d, want keys 4 and 6", n)
	}
	if got, _ = exportedKeys(c); len(got) != 0 {
		t.Fatalf("export after invalidating the pending verdict = %v", got)
	}
	if c.Stats().Stores != 3 {
		t.Errorf("Stores = %d: seeding must stay stats-neutral", c.Stats().Stores)
	}
}
