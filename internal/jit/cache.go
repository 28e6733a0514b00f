package jit

import (
	"errors"
	"sync/atomic"

	"evolvevm/internal/memo"
)

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

	// builds counts the forms built for the cache: one per key, unless a
	// build failed.
	builds atomic.Int64

	// afterMiss, when set, runs after every lookup miss and before the
	// missing compiler publishes its in-flight entry: the window in which
	// another compiler can miss the same key. Tests step a second
	// compiler through it.
	afterMiss func()
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{} }

// Stats returns the cache's hit and miss counters and its entry count.
func (c *Cache) Stats() memo.Stats { return c.m.Stats() }

func (c *Compiler) sharedKey(fnIdx, level int) CacheKey {
	return CacheKey{ProgFP: c.prog.Fingerprint(), FnIdx: fnIdx, Level: level, Cfg: c.cfg}
}

// errBuildAbandoned is the failure of a build that ended without
// returning (a panic), as the compilers waiting for it see it.
var errBuildAbandoned = errors.New("jit: shared compile abandoned")

// form returns the form of fnIdx at level that build fills in. Without a
// shared cache every call builds. With one, each key is built once: a
// compiler that misses publishes an in-flight entry before building, and
// a compiler that finds an entry still building waits for it, so every
// compiler continues with the one form and the execution plans runs
// build on it are never dropped with a twin. A failed build is withdrawn
// before its waiters wake; they return its error, and a later compiler
// builds again.
func (c *Compiler) form(fnIdx, level int, build func(*compiled) error) (*compiled, error) {
	if c.shared == nil {
		v := &compiled{}
		return v, build(v)
	}
	key := c.sharedKey(fnIdx, level)
	held, ok := c.shared.m.Lookup(key)
	if !ok {
		if c.shared.afterMiss != nil {
			c.shared.afterMiss()
		}
		v, p := &compiled{}, &pendingBuild{done: make(chan struct{})}
		v.building.Store(p)
		if held, ok = c.shared.m.LoadOrStore(key, v); !ok {
			return v, c.shared.build(key, v, p, build)
		}
	}
	if p := held.building.Load(); p != nil {
		<-p.done
		if p.err != nil {
			return nil, p.err
		}
	}
	return held, nil
}

// build runs the one build of entry v, which key holds, and wakes the
// compilers waiting for it. A successful build clears v.building, so a
// finished entry keeps nothing of it.
func (cc *Cache) build(key CacheKey, v *compiled, p *pendingBuild, build func(*compiled) error) error {
	defer func() {
		if p.err != nil {
			cc.m.Delete(key)
		}
		close(p.done)
	}()
	cc.builds.Add(1)
	p.err = errBuildAbandoned // what the waiters see if build panics
	if p.err = build(v); p.err == nil {
		v.building.Store(nil)
	}
	return p.err
}

// UseShared attaches a cross-run cache to the compiler. Call before the
// run starts; per-run charge accounting (full charge on the run's first
// request, zero on re-requests) is unchanged by sharing.
func (c *Compiler) UseShared(cache *Cache) { c.shared = cache }
