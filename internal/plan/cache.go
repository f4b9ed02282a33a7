package plan

import (
	"sort"
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

type cacheEntry struct {
	plan Cached
	// deps are the base-table names the plan's statistics came from;
	// mutating any of them invalidates the entry. CTE-backed tables are
	// never deps — their identity is already part of the key.
	deps []string
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

// Get looks up a cached plan and counts the hit or miss.
func (c *Cache) Get(key string) (Cached, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if ok {
		c.hits++
		return e.plan, true
	}
	c.misses++
	return Cached{}, false
}

// Put stores a plan under key, recording the base tables it depends on.
// Put publishes p and deps: the moment it returns, Get hands them to
// concurrent readers unlocked, so the caller must not modify either
// afterwards (the -race stream tests report a later write).
func (c *Cache) Put(key string, p Cached, deps []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = cacheEntry{plan: p, deps: deps}
}

// InvalidateTable drops every cached plan that depends on the named
// base table. The maintenance layer calls this (via the engine's index
// invalidation) after refresh runs mutate a table.
func (c *Cache) InvalidateTable(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []string
	for k := range c.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, d := range c.m[k].deps {
			if d == name {
				delete(c.m, k)
				break
			}
		}
	}
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
