// Package memo is the concurrent memo behind the process's host-side
// caches: jit.Cache (compiled code), xicl.FVCache (feature vectors) and
// the harness's Default-baseline memo. Each memoizes a pure function of
// its key, and each key set is bounded by data the process already holds
// in full — a program's functions × four levels, a corpus's inputs,
// those inputs × collector configs — so a memo has no capacity and never
// evicts. Whether an entry exists changes only host work, never a
// virtual observable, because a recomputation is deterministic.
package memo

import (
	"sync"
	"sync/atomic"
)

// Stats counts a memo's lookups and its entries. Hits and Misses are
// exact once the memo's users quiesce. A miss means the caller computed
// the value: when every miss is followed by LoadOrStore, Misses equals
// the number of values stored.
type Stats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// Map is a map under a read-write lock with atomic hit and miss counters.
// Its zero value is an empty memo; a Map must not be copied after first
// use.
type Map[K comparable, V any] struct {
	mu     sync.RWMutex
	m      map[K]V
	hits   atomic.Int64
	misses atomic.Int64
}

// Lookup returns the value stored under key, counting a hit or a miss.
func (c *Map[K, V]) Lookup(key K) (V, bool) {
	c.mu.RLock()
	v, ok := c.m[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Store stores v under key, replacing any value there.
func (c *Map[K, V]) Store(key K, v V) {
	c.mu.Lock()
	c.storeLocked(key, v)
	c.mu.Unlock()
}

// LoadOrStore returns the value already stored under key, or stores and
// returns v; loaded reports which. Call it only after a Lookup of key
// missed: that Lookup counted a miss, which a load turns into a hit,
// because another caller stored the value in between and this caller
// computes nothing.
func (c *Map[K, V]) LoadOrStore(key K, v V) (actual V, loaded bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.m[key]; ok {
		c.misses.Add(-1)
		c.hits.Add(1)
		return old, true
	}
	c.storeLocked(key, v)
	return v, false
}

func (c *Map[K, V]) storeLocked(key K, v V) {
	if c.m == nil {
		c.m = make(map[K]V)
	}
	c.m[key] = v
}

// Delete removes key's entry, if any.
func (c *Map[K, V]) Delete(key K) {
	c.mu.Lock()
	delete(c.m, key)
	c.mu.Unlock()
}

// Stats returns the counters and the number of entries.
func (c *Map[K, V]) Stats() Stats {
	c.mu.RLock()
	n := len(c.m)
	c.mu.RUnlock()
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}
