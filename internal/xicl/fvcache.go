package xicl

import "evolvevm/internal/memo"

// FVCache memoizes feature-vector extraction by input signature
// (internal/memo). A runner and its forks share one per input corpus, so
// it holds at most one vector per input of that corpus and needs no
// capacity. Feature extraction is a pure function of the input (command
// line plus files), so a learner that sees the same input many times
// across a production sequence can reuse the vector and its extraction
// cost instead of re-materializing both — the virtual extraction charge
// is still paid by every run, exactly as if the translator had run
// again.
//
// Cached vectors are shared: callers (and anything they hand the vector
// to, such as training examples) must treat them as immutable. A
// translator with runtime constructs mutates its vector through UpdateV
// and must not be memoized; the cache is for the static BuildFVector
// path.
type FVCache struct {
	m memo.Map[string, *fvEntry]
}

// fvEntry is immutable once stored.
type fvEntry struct {
	vec  Vector
	cost int64
}

// NewFVCache returns an empty cache.
func NewFVCache() *FVCache { return &FVCache{} }

// Get returns the memoized vector and extraction cost for the signature.
func (c *FVCache) Get(sig string) (Vector, int64, bool) {
	e, ok := c.m.Lookup(sig)
	if !ok {
		return nil, 0, false
	}
	return e.vec, e.cost, true
}

// Put memoizes a vector and its extraction cost under the signature. The
// cache takes shared ownership of vec; it must not be mutated afterwards.
func (c *FVCache) Put(sig string, vec Vector, cost int64) {
	c.m.Store(sig, &fvEntry{vec: vec, cost: cost})
}

// Stats returns the cache's hit and miss counters and its entry count.
func (c *FVCache) Stats() memo.Stats { return c.m.Stats() }
