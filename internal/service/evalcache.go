package service

import (
	"container/list"
	"sync"

	"mindmappings/internal/costmodel"
)

// EvalCache is a bounded LRU memoization of reference-cost-model
// evaluations, shared by every job the service runs. Keys are the
// costmodel cache middleware's fingerprint-prefixed canonical mapping
// encodings, so two jobs searching the same problem with the same backend — a common pattern when many clients tune the same layer — reuse
// each other's cost-model work instead of recomputing it. It implements
// costmodel.Cache and is safe for concurrent use.
type EvalCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits   uint64
	misses uint64
}

type cacheEntry struct {
	key  string
	cost costmodel.Cost
}

// DefaultEvalCacheCapacity bounds the cache when the caller passes a
// non-positive capacity. At ~1KB per cached Cost this keeps the cache
// around 64MB worst case.
const DefaultEvalCacheCapacity = 1 << 16

// NewEvalCache returns an empty cache holding at most capacity entries
// (DefaultEvalCacheCapacity if capacity <= 0).
func NewEvalCache(capacity int) *EvalCache {
	if capacity <= 0 {
		capacity = DefaultEvalCacheCapacity
	}
	return &EvalCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Get returns the cached cost for key, marking the entry most recently
// used. The returned Cost is shared: callers must not mutate it.
func (c *EvalCache) Get(key string) (costmodel.Cost, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return costmodel.Cost{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).cost, true
}

// GetBytes is Get keyed by the raw binary key bytes (costmodel.BytesCache):
// the map index with string(key) compiles to an allocation-free lookup, so
// the shared-cache hit path costs zero allocations — the key string is
// only ever built to store a miss. key is not retained.
func (c *EvalCache) GetBytes(key []byte) (costmodel.Cost, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(key)]
	if !ok {
		c.misses++
		return costmodel.Cost{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).cost, true
}

// Put stores a cost under key, evicting the least recently used entry when
// the cache is full.
func (c *EvalCache) Put(key string, cost costmodel.Cost) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).cost = cost
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, cost: cost})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// CacheStats is a point-in-time snapshot of cache effectiveness, read by
// the eval_cache_* series.
type CacheStats struct {
	Hits     uint64
	Misses   uint64
	Entries  int
	Capacity int
	// Utilization is Entries/Capacity in [0,1]: how full the bounded LRU
	// is, the signal for retuning serve -evalcache-cap.
	Utilization float64
}

// Stats snapshots the hit/miss counters and occupancy.
func (c *EvalCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.ll.Len(), Capacity: c.capacity}
	if st.Capacity > 0 {
		st.Utilization = float64(st.Entries) / float64(st.Capacity)
	}
	return st
}
