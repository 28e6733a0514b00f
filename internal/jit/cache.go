package jit

import "evolvevm/internal/memo"

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

// Cache is the cross-run compiled-code cache: a memo (internal/memo) of
// every form compiled in the process. It holds at most a program's
// functions × 4 levels per program and tier table, so it needs no
// capacity. Every run that hits still charges its own full virtual
// compile cycles (stored alongside the code); only the host-side
// optimization work is reused. interp.Code is immutable after
// construction, so one form may be executed by many engines — including
// concurrently running ones — without copying. The host execution plans
// a form accumulates (fused segments, register-converted loop traces)
// live on the Code itself, so a cache hit hands later runs an
// already-warmed form — one conversion serves every subsequent run of
// the same code.
type Cache struct {
	m memo.Map[CacheKey, *compiled]
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{} }

// Stats returns the cache's hit and miss counters and its entry count.
func (c *Cache) Stats() memo.Stats { return c.m.Stats() }

// sharedGet consults the shared cache for the compiler's program.
func (c *Compiler) sharedGet(fnIdx, level int) (*compiled, bool) {
	if c.shared == nil {
		return nil, false
	}
	return c.shared.m.Lookup(CacheKey{
		ProgFP: c.prog.Fingerprint(), FnIdx: fnIdx, Level: level, Cfg: c.cfg})
}

func (c *Compiler) sharedPut(fnIdx, level int, v *compiled) {
	if c.shared == nil {
		return
	}
	c.shared.m.Store(CacheKey{
		ProgFP: c.prog.Fingerprint(), FnIdx: fnIdx, Level: level, Cfg: c.cfg}, v)
}

// UseShared attaches a cross-run cache to the compiler. Call before the
// run starts; per-run charge accounting (full charge on the run's first
// request, zero on re-requests) is unchanged by sharing.
func (c *Compiler) UseShared(cache *Cache) { c.shared = cache }
