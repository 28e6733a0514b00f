// Package stripe provides the lock-striped, read-mostly bounded cache
// that backs every process-wide cache on the serving hot path
// (jit.Cache, xicl.FVCache, the harness baseline-outcome memo).
//
// The previous generation of those caches were plain-mutex LRUs: a
// *lookup* mutated the recency list, so even a 100% hit workload
// serialized all readers behind one lock. This cache removes both
// serialization points:
//
//   - Striping: entries are sharded by key hash across N independent
//     shards, so requests for different keys contend only 1/N as often,
//     and a miss in one shard never blocks a hit in another.
//   - CLOCK recency: instead of an LRU list, each entry carries a
//     reference bit. A hit takes only the shard's read lock for the map
//     probe and sets the bit with a single atomic store (skipped when
//     already set, so hot entries stay read-only in cache-coherence
//     terms). Only misses, inserts, and evictions take the shard's
//     write lock; eviction sweeps a clock hand that gives referenced
//     entries a second chance — the classic one-bit approximation of
//     LRU.
//
// The capacity bound is exact: shard capacities partition the total, so
// the cache never holds more than its configured entry count. What is
// deliberately *not* preserved from the LRU implementation is the exact
// eviction order — CLOCK approximates it, and a skewed key distribution
// can evict a different victim than a global LRU would. That is safe for
// every cache built on this package because eviction is unobservable in
// virtual terms: a re-miss re-runs a deterministic computation (see
// DESIGN.md §14 for the determinism-boundary argument).
//
// Hit/miss/eviction counters are per-shard atomics aggregated on read,
// so Stats never blocks the hot path.
package stripe

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// defaultShards is the stripe width. Contention drops linearly with it
// while per-shard capacity (and therefore recency quality) drops too;
// 16 is far above any core count this repo targets without making the
// per-shard clocks degenerate.
const defaultShards = 16

// hashSeed randomizes shard assignment per process. Shard choice is a
// host-side detail — never a virtual observable — so a random seed costs
// nothing and hardens the stripe against adversarial key sets.
var hashSeed = maphash.MakeSeed()

// Stats reports a cache's effectiveness and occupancy, aggregated over
// all shards. The counter fields are exact (atomic per-shard counters
// summed); Entries is a consistent-per-shard sum, momentarily stale by
// design.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Capacity  int // 0 = unbounded
}

// entry is one cached key/value pair. key and v are immutable after
// publication — overwriting a key replaces the whole entry under the
// shard write lock — so readers holding an entry never race a writer.
// ref is the CLOCK reference bit: set on hit, cleared (second chance)
// by the sweeping hand, evicted when found clear.
type entry[K comparable, V any] struct {
	key  K
	v    V
	slot int // index in the shard ring; -1 when unbounded
	ref  atomic.Bool
}

type shard[K comparable, V any] struct {
	mu       sync.RWMutex
	m        map[K]*entry[K, V]
	ring     []*entry[K, V] // fixed eviction slots (bounded shards only)
	free     []int          // unoccupied ring slots
	hand     int            // CLOCK hand position in ring
	capacity int            // 0 = unbounded

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// Cache is a bounded key/value cache, striped across shards with CLOCK
// eviction. The zero value is not usable; construct with New.
type Cache[K comparable, V any] struct {
	shards   []shard[K, V]
	capacity int
}

// New returns a cache holding at most capacity entries across all shards
// (capacity <= 0 means unbounded). The shard count adapts downward so
// every shard can hold at least one entry.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	n := defaultShards
	if capacity > 0 && capacity < n {
		n = capacity
	}
	c := &Cache[K, V]{shards: make([]shard[K, V], n), capacity: capacity}
	for i := range c.shards {
		sh := &c.shards[i]
		if capacity > 0 {
			// Partition the capacity exactly: the first capacity%n shards
			// take the remainder, so shard capacities sum to capacity.
			sh.capacity = capacity / n
			if i < capacity%n {
				sh.capacity++
			}
			sh.ring = make([]*entry[K, V], sh.capacity)
			sh.free = make([]int, sh.capacity)
			for s := range sh.free {
				sh.free[s] = sh.capacity - 1 - s // pop slots in ascending order
			}
		}
		sh.m = make(map[K]*entry[K, V])
	}
	return c
}

func (c *Cache[K, V]) shard(key K) *shard[K, V] {
	h := maphash.Comparable(hashSeed, key)
	return &c.shards[h%uint64(len(c.shards))]
}

// Lookup returns the value cached under key. A hit touches only the
// shard read lock and the entry's reference bit; it never reorders any
// shared structure.
func (c *Cache[K, V]) Lookup(key K) (V, bool) {
	sh := c.shard(key)
	sh.mu.RLock()
	e := sh.m[key]
	sh.mu.RUnlock()
	if e == nil {
		sh.misses.Add(1)
		var zero V
		return zero, false
	}
	if !e.ref.Load() {
		e.ref.Store(true)
	}
	sh.hits.Add(1)
	return e.v, true
}

// Store caches v under key, evicting via the shard's clock when the
// shard is full. Overwriting an existing key replaces its entry in
// place (same slot, fresh reference bit) without an eviction.
func (c *Cache[K, V]) Store(key K, v V) {
	sh := c.shard(key)
	sh.mu.Lock()
	sh.store(key, v)
	sh.mu.Unlock()
}

// LoadOrStore returns the value already cached under key, or caches and
// returns v. Like the load-side of a double-checked memo it touches no
// hit/miss counters — the caller's preceding Lookup already accounted
// the miss. The boolean reports whether an existing value was kept.
func (c *Cache[K, V]) LoadOrStore(key K, v V) (V, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.m[key]; ok {
		if !e.ref.Load() {
			e.ref.Store(true)
		}
		return e.v, true
	}
	sh.store(key, v)
	return v, false
}

// store inserts or replaces under the shard write lock (held by caller).
func (sh *shard[K, V]) store(key K, v V) {
	if old, ok := sh.m[key]; ok {
		e := &entry[K, V]{key: key, v: v, slot: old.slot}
		e.ref.Store(true)
		if old.slot >= 0 {
			sh.ring[old.slot] = e
		}
		sh.m[key] = e
		return
	}
	e := &entry[K, V]{key: key, v: v, slot: -1}
	e.ref.Store(true)
	if sh.capacity > 0 {
		var slot int
		if n := len(sh.free); n > 0 {
			slot = sh.free[n-1]
			sh.free = sh.free[:n-1]
		} else {
			slot = sh.evict()
		}
		e.slot = slot
		sh.ring[slot] = e
	}
	sh.m[key] = e
}

// evict advances the clock hand until it finds an entry whose reference
// bit is clear, removing it and returning its freed slot. Referenced
// entries get their bit cleared and survive the pass — the second
// chance. The sweep terminates: after one full revolution every bit has
// been cleared, so the second revolution must evict.
func (sh *shard[K, V]) evict() int {
	for {
		slot := sh.hand
		sh.hand++
		if sh.hand == len(sh.ring) {
			sh.hand = 0
		}
		e := sh.ring[slot]
		if e == nil {
			continue
		}
		if e.ref.CompareAndSwap(true, false) {
			continue
		}
		delete(sh.m, e.key)
		sh.ring[slot] = nil
		sh.evictions.Add(1)
		return slot
	}
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Stats aggregates the per-shard counters and occupancy.
func (c *Cache[K, V]) Stats() Stats {
	st := Stats{Capacity: c.capacity}
	for i := range c.shards {
		sh := &c.shards[i]
		st.Hits += sh.hits.Load()
		st.Misses += sh.misses.Load()
		st.Evictions += sh.evictions.Load()
		sh.mu.RLock()
		st.Entries += len(sh.m)
		sh.mu.RUnlock()
	}
	return st
}
