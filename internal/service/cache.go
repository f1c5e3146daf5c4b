package service

import (
	"strconv"
	"sync"

	"repro/internal/telemetry"
)

// cached is one content-addressed analysis result: its canonical JSON
// encoding, which the single-estimate endpoints write verbatim and
// /v1/batch splices into its items. It is immutable once stored; every
// cache consumer shares it read-only.
type cached struct {
	body []byte
}

const (
	// maxCacheShards bounds the shard fan-out; canonical keys are SHA-256
	// hex, so their prefixes spread uniformly and 16 ways is plenty to
	// take lock contention off the hit path at wcetd's concurrency limits.
	maxCacheShards = 16
	// minShardCapacity keeps sharding from fragmenting a small cache into
	// slivers whose CLOCK rings are too short to hold a working set: the
	// shard count only doubles while every shard would still hold at
	// least this many entries.
	minShardCapacity = 32
)

// resultCache is an N-way sharded result cache keyed by canonical request
// hash. Identical provider submissions — the common case when many
// integration runs re-check the same task set — cost one map lookup
// instead of an ILP solve.
//
// Each shard is independently locked and replaces entries with a
// CLOCK-style second-chance sweep instead of a linked LRU list: a read
// marks the entry's reference bit (one bool store) rather than splicing
// it to the front of a list, so the hit path — the path concurrent
// clients hammer — does no structural mutation at all. Keys route to
// shards by a hash of their prefix; canonical keys are content hashes, so
// the prefix alone distributes uniformly. Accounting lands directly on
// the server's telemetry counters, so /v1/stats and /metrics read the
// same numbers; per-shard lock contention is counted (a failed TryLock)
// into the shard-labeled contention vector.
type resultCache struct {
	shards []cacheShard
	mask   uint32
	cap    int
}

// cacheShard is one independently locked slice of the key space.
type cacheShard struct {
	mu    sync.Mutex
	cap   int
	items map[string]*clockEntry
	ring  []*clockEntry // CLOCK ring; grows to cap, then slots are reused
	hand  int

	hits       *telemetry.Counter
	evictions  *telemetry.Counter
	contention *telemetry.Counter
}

// clockEntry is one resident result with its CLOCK reference bit. The bit
// is only touched under the shard lock; reads set it, the eviction sweep
// clears it and evicts entries found unreferenced.
type clockEntry struct {
	key string
	val *cached
	ref bool
}

// newResultCache builds a cache reporting into the given counters; nil
// counters (standalone/test use) are replaced with private ones. The
// cache counts no misses: whether an absent key becomes a miss is the
// server's call (admission may reject the request), so the server counts
// them. A capacity <= 0 disables the cache entirely: every put is a no-op
// and every lookup misses, rather than the historical behaviour of
// inserting and then immediately self-evicting (with a bogus eviction
// count) on each put.
func newResultCache(capacity int, hits, evictions *telemetry.Counter, contention *telemetry.CounterVec) *resultCache {
	if hits == nil {
		hits = &telemetry.Counter{}
	}
	if evictions == nil {
		evictions = &telemetry.Counter{}
	}
	if contention == nil {
		contention = telemetry.NewRegistry().CounterVec(
			"wcetd_cache_shard_contention_total", "private", "shard")
	}
	if capacity < 0 {
		capacity = 0
	}
	nshards := 1
	for nshards < maxCacheShards && capacity/(nshards*2) >= minShardCapacity {
		nshards *= 2
	}
	c := &resultCache{
		shards: make([]cacheShard, nshards),
		mask:   uint32(nshards - 1),
		cap:    capacity,
	}
	base, extra := capacity/nshards, capacity%nshards
	for i := range c.shards {
		sh := &c.shards[i]
		sh.cap = base
		if i < extra {
			sh.cap++
		}
		sh.items = make(map[string]*clockEntry, sh.cap)
		sh.hits = hits
		sh.evictions = evictions
		sh.contention = contention.With(strconv.Itoa(i))
	}
	return c
}

// shard routes a key by FNV-1a over its prefix. Canonical keys are
// SHA-256 hex renderings, so the first bytes are uniformly distributed;
// hashing only the prefix keeps routing O(1) in the key length (table-
// scoped keys share a long common suffix).
func (c *resultCache) shard(key string) *cacheShard {
	const prefixLen = 16
	n := len(key)
	if n > prefixLen {
		n = prefixLen
	}
	h := uint32(2166136261)
	for i := 0; i < n; i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &c.shards[h&c.mask]
}

// lock takes the shard lock, counting the acquisitions that actually had
// to wait — the contention signal the shard count exists to minimize.
func (sh *cacheShard) lock() {
	if sh.mu.TryLock() {
		return
	}
	sh.contention.Inc()
	sh.mu.Lock()
}

// get returns the cached result for key, marking its reference bit and
// counting the hit. A lookup that misses mutates nothing — recency order
// is untouched whether or not the request is subsequently admitted.
func (c *resultCache) get(key string) (*cached, bool) {
	sh := c.shard(key)
	sh.lock()
	defer sh.mu.Unlock()
	e, ok := sh.items[key]
	if !ok {
		return nil, false
	}
	e.ref = true
	sh.hits.Inc()
	return e.val, true
}

// put stores a result. Below capacity the shard's ring grows; at capacity
// the CLOCK hand sweeps, clearing reference bits and evicting the first
// unreferenced entry it finds — entries read since the last sweep get a
// second chance. New entries start unreferenced: only an actual read
// earns recency protection.
func (c *resultCache) put(key string, val *cached) {
	sh := c.shard(key)
	sh.lock()
	defer sh.mu.Unlock()
	if e, ok := sh.items[key]; ok {
		e.val = val
		e.ref = true
		return
	}
	if sh.cap <= 0 {
		return
	}
	if len(sh.ring) < sh.cap {
		e := &clockEntry{key: key, val: val}
		sh.ring = append(sh.ring, e)
		sh.items[key] = e
		return
	}
	for {
		e := sh.ring[sh.hand]
		sh.hand++
		if sh.hand == len(sh.ring) {
			sh.hand = 0
		}
		if e.ref {
			e.ref = false
			continue
		}
		delete(sh.items, e.key)
		sh.evictions.Inc()
		e.key, e.val = key, val // reuse the evicted slot and entry
		sh.items[key] = e
		return
	}
}

// len reports the current entry count across all shards.
func (c *resultCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}
