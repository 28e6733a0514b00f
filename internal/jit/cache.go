package jit

import "evolvevm/internal/stripe"

// CacheKey identifies one compiled code form across runs: the content
// fingerprint of the program the function lives in (optimization of a
// function may consult the whole program — inlining does), the function
// index, the level, and the full tier table. Two runs with equal keys
// would compile byte-identical code, so sharing the host-side work is
// unobservable in virtual terms.
type CacheKey struct {
	ProgFP uint64
	FnIdx  int
	Level  int
	Cfg    Config
}

// DefaultCacheCapacity bounds the process-wide code cache. At roughly a
// few kilobytes per compiled form this caps resident code in the tens of
// megabytes — far above any single experiment's working set, so steady
// state evicts only when a long-lived session cycles through many
// programs or configurations.
const DefaultCacheCapacity = 4096

// CacheStats reports cache effectiveness and occupancy.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Capacity  int // 0 = unbounded
}

// Cache is a bounded cross-run compiled-code cache. It is lock-striped
// with CLOCK (second-chance) eviction — see internal/stripe — so a hit
// takes only a per-shard read lock plus one atomic reference-bit touch;
// the serving hot path never serializes concurrent readers the way the
// previous plain-mutex LRU did (every lookup mutated recency order).
// Every run that hits still charges its own full virtual compile cycles
// (stored alongside the code); only the host-side optimization work is
// reused. interp.Code is immutable after construction, so one form may
// be executed by many engines — including concurrently running ones —
// without copying. The host execution plans a form accumulates (fused
// segments, register-converted loop traces) live on
// the Code itself, so a cache hit hands later runs an already-warmed
// form — one conversion serves every subsequent run of the same code.
// Eviction order is a CLOCK approximation of LRU rather than exact, and
// neither order nor eviction can change virtual results: a re-miss
// merely re-runs the host-side optimizer, which is deterministic.
type Cache struct {
	c *stripe.Cache[CacheKey, *compiled]
}

// NewCache returns an empty cache bounded at DefaultCacheCapacity.
func NewCache() *Cache { return NewCacheCap(DefaultCacheCapacity) }

// NewCacheCap returns an empty cache holding at most capacity entries
// (capacity <= 0 means unbounded).
func NewCacheCap(capacity int) *Cache {
	return &Cache{c: stripe.New[CacheKey, *compiled](capacity)}
}

func (c *Cache) lookup(key CacheKey) (*compiled, bool) {
	return c.c.Lookup(key)
}

func (c *Cache) store(key CacheKey, v *compiled) {
	c.c.Store(key, v)
}

// Stats returns a snapshot of the cache's counters and occupancy. The
// counters are per-shard atomics aggregated here, so reading them never
// blocks a concurrent lookup.
func (c *Cache) Stats() CacheStats {
	st := c.c.Stats()
	return CacheStats{
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		Entries:   st.Entries,
		Capacity:  st.Capacity,
	}
}

// sharedGet consults the shared cache for the compiler's program.
func (c *Compiler) sharedGet(fnIdx, level int) (*compiled, bool) {
	if c.shared == nil {
		return nil, false
	}
	return c.shared.lookup(CacheKey{
		ProgFP: c.prog.Fingerprint(), FnIdx: fnIdx, Level: level, Cfg: c.cfg})
}

func (c *Compiler) sharedPut(fnIdx, level int, v *compiled) {
	if c.shared == nil {
		return
	}
	c.shared.store(CacheKey{
		ProgFP: c.prog.Fingerprint(), FnIdx: fnIdx, Level: level, Cfg: c.cfg}, v)
}

// UseShared attaches a cross-run cache to the compiler. Call before the
// run starts; per-run charge accounting (full charge on the run's first
// request, zero on re-requests) is unchanged by sharing.
func (c *Compiler) UseShared(cache *Cache) { c.shared = cache }
