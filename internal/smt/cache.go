package smt

import (
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
)

// VerdictCache memoizes satisfiability verdicts across the solvers of one
// generation: an in-memory memo that lives as long as the run that made it
// and is never persisted (a verdict that outlives a run is a journal
// record). It is keyed by a normalized hash of the asserted condition set,
// so solvers replaying the same path-prefix conjunction in any assertion
// order (and any Push/Pop frame partitioning) hit the same entry. The
// parallel exploration engine shares one cache among all workers and
// passes: sibling path suffixes re-derive the same infeasible prefixes, and
// the cache turns those repeated Unsat proofs into lookups (counted in
// Stats.CacheHits).
//
// The cache is sharded and lock-striped: the key's low bits select one of
// cacheShards independently-locked maps, so concurrent workers rarely
// contend on the same mutex.
//
// Soundness: a cached verdict is valid for any solver deciding the same
// conjunction, because verdicts depend only on the constraint set. Unknown
// verdicts are never cached (they depend on the per-check search budget).
// Callers must not share a cache between solvers with different
// SearchBudget/CandidatesPerVar configurations: a Sat proved under a large
// budget could mask an Unknown under a small one, which is sound but
// perturbs ablation counters.
// Counter discipline: per-solver Stats live on each worker's private
// Solver and need no synchronization; the CACHE-level counters below are
// the only counters shared across workers, and they are atomics — never
// bare increments — because every worker's hot path bumps them
// concurrently outside the shard locks.
type VerdictCache struct {
	shards [cacheShards]cacheShard

	hits    atomic.Uint64
	misses  atomic.Uint64
	stores  atomic.Uint64
	rejects atomic.Uint64
}

// CacheStats is a snapshot of the cross-worker cache counters.
type CacheStats struct {
	// Hits / Misses count lookups by outcome.
	Hits, Misses uint64
	// Stores counts verdicts inserted; Rejects counts verdicts dropped
	// because the shard was at capacity (or the verdict was Unknown).
	Stores, Rejects uint64
}

// Stats returns a snapshot of the shared counters. Safe to call
// concurrently with lookups and stores; the fields are read individually
// so the snapshot is only per-counter consistent (fine for reporting).
func (c *VerdictCache) Stats() CacheStats {
	return CacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Stores:  c.stores.Load(),
		Rejects: c.rejects.Load(),
	}
}

const cacheShards = 64

// cacheShardCap bounds each shard's map so a pathological exploration
// cannot grow the cache without limit (~64 shards × 1<<14 entries).
const cacheShardCap = 1 << 14

type cacheShard struct {
	mu sync.Mutex
	m  map[condKey]Result
}

// condKey is an order-independent digest of a constraint multiset: the sum
// and xor of the per-constraint FNV-1a hashes plus the multiset size.
// Collisions require two different constraint sets to agree on all three
// components of 160 bits of accumulated state — negligible in practice.
type condKey struct {
	sum, xor uint64
	n        uint32
}

// NewVerdictCache returns an empty cache safe for concurrent use.
func NewVerdictCache() *VerdictCache {
	c := &VerdictCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[condKey]Result)
	}
	return c
}

func (c *VerdictCache) shard(k condKey) *cacheShard {
	return &c.shards[(k.sum^k.xor)%cacheShards]
}

func (c *VerdictCache) lookup(k condKey) (Result, bool) {
	sh := c.shard(k)
	sh.mu.Lock()
	r, ok := sh.m[k]
	sh.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return r, ok
}

func (c *VerdictCache) store(k condKey, r Result) {
	if r == Unknown {
		c.rejects.Add(1)
		return
	}
	sh := c.shard(k)
	sh.mu.Lock()
	stored := len(sh.m) < cacheShardCap
	if stored {
		sh.m[k] = r
	}
	sh.mu.Unlock()
	if stored {
		c.stores.Add(1)
	} else {
		c.rejects.Add(1)
	}
}

// Len returns the number of cached verdicts (for tests and debugging).
func (c *VerdictCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// boolHash returns the FNV-1a hash of the constraint's rendering (Assert
// memoizes it per constraint value).
func boolHash(b expr.Bool) uint64 {
	f := fnv.New64a()
	f.Write([]byte(b.String()))
	return f.Sum64()
}

// condKey digests the currently-asserted constraint multiset across all
// frames. Frame counts are path-depth-sized, so summing per-frame
// accumulators on demand is cheaper than subtract-on-Pop bookkeeping.
func (s *Solver) condKey() condKey {
	var k condKey
	for _, fr := range s.frames {
		k.sum += fr.hsum
		k.xor ^= fr.hxor
		k.n += fr.hn
	}
	return k
}
