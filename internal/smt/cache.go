package smt

import (
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
)

// VerdictCache memoizes satisfiability verdicts across solvers. It is
// keyed by a normalized hash of the asserted condition set, so solvers
// replaying the same path-prefix conjunction in any assertion order (and
// any Push/Pop frame partitioning) hit the same entry. The parallel
// exploration engine shares one cache among all workers: sibling path
// suffixes re-derive the same infeasible prefixes, and the cache turns
// those repeated Unsat proofs into lookups (counted in Stats.CacheHits).
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

	hits        atomic.Uint64
	misses      atomic.Uint64
	stores      atomic.Uint64
	rejects     atomic.Uint64
	invalidated atomic.Uint64
}

// CacheStats is a snapshot of the cross-worker cache counters.
type CacheStats struct {
	// Hits / Misses count lookups by outcome.
	Hits, Misses uint64
	// Stores counts verdicts inserted; Rejects counts verdicts dropped
	// because the shard was at capacity (or the verdict was Unknown).
	Stores, Rejects uint64
	// Invalidated counts verdicts evicted by tag (Invalidate) — the
	// rule-update invalidation path of incremental regression runs.
	Invalidated uint64
}

// Stats returns a snapshot of the shared counters. Safe to call
// concurrently with lookups and stores; the fields are read individually
// so the snapshot is only per-counter consistent (fine for reporting).
func (c *VerdictCache) Stats() CacheStats {
	return CacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Stores:      c.stores.Load(),
		Rejects:     c.rejects.Load(),
		Invalidated: c.invalidated.Load(),
	}
}

const cacheShards = 64

// cacheShardCap bounds each shard's map so a pathological exploration
// cannot grow the cache without limit (~64 shards × 1<<14 entries).
const cacheShardCap = 1 << 14

type cacheShard struct {
	mu sync.Mutex
	m  map[condKey]cached
	// byTag is the inverse dependency index: tag ID → keys stored under
	// that tag, making Invalidate O(affected entries) instead of a full
	// scan. Lists may hold keys already evicted (rejects never index, but
	// two tags can list one key); Invalidate tolerates missing keys.
	byTag map[uint64][]condKey
}

// cached is one verdict and whether a persistent store still lacks it:
// pending is set by store, never by Seed, and cleared once an export has
// been committed (ExportPending).
type cached struct {
	r       Result
	pending bool
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
		c.shards[i].m = make(map[condKey]cached)
	}
	return c
}

func (c *VerdictCache) shard(k condKey) *cacheShard {
	return &c.shards[(k.sum^k.xor)%cacheShards]
}

func (c *VerdictCache) lookup(k condKey) (Result, bool) {
	sh := c.shard(k)
	sh.mu.Lock()
	e, ok := sh.m[k]
	sh.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
		mCacheMisses.Inc()
	}
	return e.r, ok
}

func (c *VerdictCache) store(k condKey, r Result, tags []uint64) {
	if r == Unknown {
		c.rejects.Add(1)
		mCacheReject.Inc()
		return
	}
	sh := c.shard(k)
	sh.mu.Lock()
	stored := len(sh.m) < cacheShardCap
	if stored {
		sh.m[k] = cached{r: r, pending: true}
		if len(tags) > 0 {
			if sh.byTag == nil {
				sh.byTag = make(map[uint64][]condKey)
			}
			for _, t := range tags {
				sh.byTag[t] = append(sh.byTag[t], k)
			}
		}
	}
	sh.mu.Unlock()
	if stored {
		c.stores.Add(1)
		mCacheStores.Inc()
	} else {
		c.rejects.Add(1)
		mCacheReject.Inc()
	}
}

// TagID hashes a dependency tag name (a table name or a rules.DepTag
// string) to the cache's tag-ID space (FNV-1a).
func TagID(name string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(name))
	return f.Sum64()
}

// Invalidate evicts every cached verdict stored under any of the given
// tag IDs, returning the number of entries removed. Cost is proportional
// to the affected entries (each shard consults only its inverse index),
// not to the cache size — the O(affected) property a one-entry rule
// update needs. Safe for concurrent use, but callers normally quiesce
// exploration first: invalidating mid-run only loses cache hits.
func (c *VerdictCache) Invalidate(tags []uint64) int {
	removed := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, t := range tags {
			keys, ok := sh.byTag[t]
			if !ok {
				continue
			}
			for _, k := range keys {
				if _, present := sh.m[k]; present {
					delete(sh.m, k)
					removed++
				}
			}
			delete(sh.byTag, t)
		}
		sh.mu.Unlock()
	}
	if removed > 0 {
		c.invalidated.Add(uint64(removed))
		mCacheInvalidated.Add(uint64(removed))
	}
	return removed
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
