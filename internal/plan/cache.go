package plan

import (
	"slices"
	"sync"
)

// Cached is one memoized join-order decision: the order (driver
// first), its estimated cost and output cardinality, and the search
// that chose it. The executor re-derives everything else (hash tables,
// bitmaps, filter closures) per execution, and the star-vs-hash choice
// is made on each execution by ChooseCost from the cached cost; only
// the join order is worth caching. Order is published by Cache.Put and
// must not be mutated afterwards.
type Cached struct {
	Order   []int
	Cost    float64
	EstRows float64
	Source  string
}

// Version is the state of one catalog table a plan was made from: the
// instance id and data epoch that storage.Table reports (ID, Epoch).
type Version struct{ ID, Epoch uint64 }

type cacheEntry struct {
	plan Cached
	// reads are the versions of the catalog tables the plan's
	// statistics came from. CTE-backed tables are never among them:
	// every execution materializes a CTE afresh, under a fresh id, so
	// the plan would miss every time.
	reads []Version
}

// Cache memoizes planning decisions across executions of the same
// statement shape. Keys are built by the executor from the shape
// fingerprint plus everything else the decision depends on (engine
// mode, greedy baseline order, free-set classification), which makes
// entries self-validating: if statistics shift enough to change the
// baseline, the key changes and the stale entry is simply never hit
// again. Safe for concurrent use; the executor calls it from every
// query stream.
type Cache struct {
	mu     sync.Mutex
	m      map[string]cacheEntry
	hits   int64
	misses int64
}

// NewCache returns an empty plan cache.
func NewCache() *Cache {
	return &Cache{m: make(map[string]cacheEntry)}
}

// Get looks up the plan cached under key and counts the hit or miss.
// reads are the versions of the catalog tables the caller reads now; a
// plan made from other versions is a miss, and the Put that follows
// replaces it.
func (c *Cache) Get(key string, reads []Version) (Cached, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok && slices.Equal(e.reads, reads) {
		c.hits++
		return e.plan, true
	}
	c.misses++
	return Cached{}, false
}

// Put stores a plan under key, with the versions of the catalog tables
// it was made from. Put publishes p and reads: the moment it returns,
// Get hands the plan to concurrent readers unlocked, so the caller must
// not modify either afterwards (the -race stream tests report a later
// write).
func (c *Cache) Put(key string, p Cached, reads []Version) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = cacheEntry{plan: p, reads: reads}
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len reports the number of cached plans (tests and diagnostics).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
