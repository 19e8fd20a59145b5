package smt

// Persistence bridge for the disk-backed verdict store (internal/store):
// ExportPending walks what a post-run commit has to write, Seed refills the
// cache from a store snapshot before a warm run. Both speak in raw
// (sum, xor, n) condKey components so the store never imports solver
// internals.

// ExportPending visits every verdict the cache holds that no store has yet:
// those stored by a solver since the cache was made, and not yet covered by
// an export whose persisted was called. Seeded verdicts came from a store
// and are never visited, so a warm run with nothing new to say exports
// nothing. Each verdict comes with the dependency-tag IDs it is indexed
// under (nil for an entry stored without tags; persisting those is unsound
// against rule updates, so store commits skip them). Entries are visited
// shard by shard, in no particular order within one; returning false from
// fn stops the walk.
//
// The caller calls persisted once the transaction holding what fn was given
// is durable: it marks exactly the visited verdicts, so one stored
// meanwhile stays pending. After an aborted transaction the caller does not
// call it, and the next export visits them again.
func (c *VerdictCache) ExportPending(fn func(sum, xor uint64, n uint32, r Result, tags []uint64) bool) (persisted func()) {
	var visited []condKey
	persisted = func() {
		for _, k := range visited {
			sh := c.shard(k)
			sh.mu.Lock()
			if e, ok := sh.m[k]; ok {
				e.pending = false
				sh.m[k] = e
			}
			sh.mu.Unlock()
		}
	}
	type entry struct {
		k    condKey
		r    Result
		tags []uint64
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		var entries []entry
		for k, e := range sh.m {
			if e.pending {
				entries = append(entries, entry{k: k, r: e.r})
			}
		}
		if len(entries) > 0 {
			at := make(map[condKey]int, len(entries))
			for j, e := range entries {
				at[e.k] = j
			}
			for t, keys := range sh.byTag {
				for _, k := range keys {
					if j, ok := at[k]; ok {
						entries[j].tags = append(entries[j].tags, t)
					}
				}
			}
		}
		sh.mu.Unlock()
		for _, e := range entries {
			if !fn(e.k.sum, e.k.xor, e.k.n, e.r, e.tags) {
				return persisted
			}
			visited = append(visited, e.k)
		}
	}
	return persisted
}

// Seed inserts one verdict recovered from a persistent store. Unlike
// store it is stats-neutral — a warm start must not inflate the Stores
// counter the differential tests compare against a cold run — and it never
// makes a verdict pending: the store has it. A verdict the cache already
// holds (a solver's, or an earlier seed's: a resident cache is seeded again
// by every warm run) is left as it is, its tags already indexed. The shard
// capacity cap still applies (a full shard rejects the seed, returning
// false); Unknown verdicts are never seeded, mirroring the live path.
func (c *VerdictCache) Seed(sum, xor uint64, n uint32, r Result, tags []uint64) bool {
	if r == Unknown {
		return false
	}
	k := condKey{sum: sum, xor: xor, n: n}
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, present := sh.m[k]; present {
		return true
	}
	if len(sh.m) >= cacheShardCap {
		return false
	}
	sh.m[k] = cached{r: r}
	if len(tags) > 0 {
		if sh.byTag == nil {
			sh.byTag = make(map[uint64][]condKey)
		}
		for _, t := range tags {
			sh.byTag[t] = append(sh.byTag[t], k)
		}
	}
	return true
}
