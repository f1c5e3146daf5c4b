package wcet

import (
	"container/list"
	"sync"
)

// estimateCache is a mutex-guarded LRU of model estimates keyed by model
// name and canonical input digest — the Analyzer-level analogue of the
// serving layer's response cache, for callers (experiment grids, repeated
// integration runs) that re-evaluate identical cells.
type estimateCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[estimateKey]*list.Element

	hits, misses int64
}

type estimateEntry struct {
	key estimateKey
	est Estimate
}

func newEstimateCache(capacity int) *estimateCache {
	return &estimateCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[estimateKey]*list.Element, capacity),
	}
}

func (c *estimateCache) get(key estimateKey) (Estimate, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return Estimate{}, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return el.Value.(*estimateEntry).est, true
}

func (c *estimateCache) put(key estimateKey, est Estimate) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*estimateEntry).est = est
		return
	}
	c.items[key] = c.order.PushFront(&estimateEntry{key: key, est: est})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*estimateEntry).key)
	}
}

// stats returns cumulative hit and miss counts.
func (c *estimateCache) stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
