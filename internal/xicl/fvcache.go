package xicl

import (
	"evolvevm/internal/stripe"
)

// DefaultFVCacheCapacity bounds a feature-vector cache. Vectors are a few
// dozen floats plus a signature string, so the bound keeps a cache to a
// couple of megabytes while still covering any realistic input corpus —
// the same sizing philosophy as jit.DefaultCacheCapacity. Long sessions
// that stream unbounded distinct inputs evict (approximately) the least
// recently used vector instead of growing without limit.
const DefaultFVCacheCapacity = 4096

// FVCache memoizes feature-vector extraction by input signature, bounded
// with lock-striped CLOCK eviction (internal/stripe): a hit takes only a
// per-shard read lock plus one atomic reference-bit touch, so concurrent
// serving requests extracting features for the same inputs never
// serialize behind a recency-list update. Feature extraction is a pure
// function of the input (command line plus files), so a learner that
// sees the same input many times across a production sequence can reuse
// the vector and its extraction cost instead of re-materializing both —
// the virtual extraction charge is still paid by every run, exactly as
// if the translator had run again. Eviction (CLOCK-approximate LRU)
// cannot change virtual results: a re-miss merely re-runs the
// deterministic extractor.
//
// Cached vectors are shared: callers (and anything they hand the vector
// to, such as training examples) must treat them as immutable. A
// translator with runtime constructs mutates its vector through UpdateV
// and must not be memoized; the cache is for the static BuildFVector
// path.
type FVCache struct {
	c *stripe.Cache[string, *fvEntry]
}

// fvEntry is immutable once stored.
type fvEntry struct {
	vec  Vector
	cost int64
}

// NewFVCache returns an empty cache bounded at DefaultFVCacheCapacity.
func NewFVCache() *FVCache { return NewFVCacheCap(DefaultFVCacheCapacity) }

// NewFVCacheCap returns an empty cache holding at most capacity entries
// (capacity <= 0 means unbounded).
func NewFVCacheCap(capacity int) *FVCache {
	return &FVCache{c: stripe.New[string, *fvEntry](capacity)}
}

// Get returns the memoized vector and extraction cost for the signature.
func (c *FVCache) Get(sig string) (Vector, int64, bool) {
	e, ok := c.c.Lookup(sig)
	if !ok {
		return nil, 0, false
	}
	return e.vec, e.cost, true
}

// Put memoizes a vector and its extraction cost under the signature. The
// cache takes shared ownership of vec; it must not be mutated afterwards.
func (c *FVCache) Put(sig string, vec Vector, cost int64) {
	c.c.Store(sig, &fvEntry{vec: vec, cost: cost})
}

// Len returns the number of memoized signatures.
func (c *FVCache) Len() int { return c.c.Len() }

// Stats returns a snapshot of the cache's counters and occupancy.
func (c *FVCache) Stats() stripe.Stats { return c.c.Stats() }
