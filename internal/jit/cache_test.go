package jit

import (
	"maps"
	"sync"
	"sync/atomic"
	"testing"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/interp"
)

func key(i int) CacheKey {
	return CacheKey{ProgFP: 7, FnIdx: i, Level: 1}
}

func put(c *Cache, i int) { c.m.Store(key(i), &compiled{}) }

func TestCacheHitMissCounters(t *testing.T) {
	c := NewCache()
	if _, ok := c.m.Lookup(key(1)); ok {
		t.Fatal("hit in empty cache")
	}
	put(c, 1)
	if _, ok := c.m.Lookup(key(1)); !ok {
		t.Fatal("miss after store")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				put(c, (w*500+i)%64)
				c.m.Lookup(key(i % 64))
			}
		}(w)
	}
	wg.Wait()
	if s := c.Stats(); s.Entries != 64 || s.Hits+s.Misses != 8*500 {
		t.Errorf("stats = %+v, want 64 entries and %d lookups", s, 8*500)
	}
}

// TestCacheCarriesTracePlans proves that host-side execution plans built
// on a cached Code travel with it: a run that register-converts the hot
// loop leaves the trace plan on the interp.Code stored in the shared
// cache, so every later run resolving the same key starts with the
// register tier already built — the cross-run analogue of the fused
// plans the cache has always carried.
func TestCacheCarriesTracePlans(t *testing.T) {
	prog := testProg(t)
	shared := NewCache()
	c1 := NewCompiler(prog, Config{})
	c1.UseShared(shared)
	hotIdx, ok := prog.FuncIndex("hot")
	if !ok {
		t.Fatal("no hot function")
	}
	code, _, err := c1.Compile(hotIdx, MaxLevel)
	if err != nil {
		t.Fatal(err)
	}
	if code.TraceReady() {
		t.Fatal("fresh compile already had a trace plan")
	}

	// Execute the form with the register tier forced on; the run converts
	// the loop and stores the plan on the shared Code.
	e := interp.NewEngine(prog)
	e.EagerRegTier = true
	base := e.Provider
	e.Provider = func(fn int) *interp.Code {
		if fn == hotIdx {
			return code
		}
		return base(fn)
	}
	if err := e.SetGlobal("n", bytecode.Int(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !code.TraceReady() {
		t.Fatal("run with EagerRegTier built no trace plan")
	}

	// A second compiler resolving from the shared cache receives the same
	// form, register plans included.
	c2 := NewCompiler(prog, Config{})
	c2.UseShared(shared)
	code2, _, err := c2.Compile(hotIdx, MaxLevel)
	if err != nil {
		t.Fatal(err)
	}
	if code2 != code {
		t.Fatal("shared cache returned a different code form")
	}
	if !code2.TraceReady() {
		t.Fatal("cached form lost its trace plan")
	}
}

// TestCacheCarriesOSRAndInlineGuards extends the round trip to a
// baseline form with a branchy loop: a run that builds its trace plan
// leaves it on the shared Code, and a second compiler resolving the same
// key receives the identical plan, head traces included. (The name is
// older than the plan's present shape: plans once also carried OSR entry
// maps and inline guards.)
func TestCacheCarriesOSRAndInlineGuards(t *testing.T) {
	src := `
global n
func main() locals acc
  const 0
  call hot 1
  store acc
  load acc
  ret
end
func hot(x) locals i s
  const 0
  store s
  const 0
  store i
loop:
  load i
  gload n
  ige
  jnz done
  load s
  load i
  load i
  imul
  const 1
  iadd
  iadd
  store s
  load i
  const 3
  imod
  jz skip
  iinc i 1
  jmp loop
skip:
  load s
  const 1
  iadd
  store s
  iinc i 1
  jmp loop
done:
  load s
  ret
end
`
	prog, err := bytecode.Assemble("cachetest", src)
	if err != nil {
		t.Fatal(err)
	}
	shared := NewCache()
	c1 := NewCompiler(prog, Config{})
	c1.UseShared(shared)
	hotIdx, ok := prog.FuncIndex("hot")
	if !ok {
		t.Fatal("no hot function")
	}
	codes := make([]*interp.Code, len(prog.Funcs))
	for i := range prog.Funcs {
		codes[i], _ = c1.Baseline(i)
	}

	e := interp.NewEngine(prog)
	e.EagerRegTier = true
	e.Provider = func(fn int) *interp.Code { return codes[fn] }
	if err := e.SetGlobal("n", bytecode.Int(60)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	heads := codes[hotIdx].HeadTraceLens()
	if len(heads) == 0 {
		t.Fatalf("run built head traces %v; want the loop's", heads)
	}

	// Second compiler, same shared cache: identical Code, identical plan.
	c2 := NewCompiler(prog, Config{})
	c2.UseShared(shared)
	code2, _ := c2.Baseline(hotIdx)
	if code2 != codes[hotIdx] {
		t.Fatal("shared cache returned a different code form")
	}
	if h2 := code2.HeadTraceLens(); !maps.Equal(h2, heads) {
		t.Fatalf("cached form's trace plan changed: head traces %v, want %v", h2, heads)
	}
}

// TestCodeCompiledOnce steps two compilers on one shared cache through
// the race the cache must absorb: both miss a key before either has
// published it. The second compiler runs in its own goroutine and misses
// inside the first one's miss window; whichever then publishes its
// in-flight entry first builds, and the other waits for that build. The
// key must be built once, and both compilers must continue with its one
// form, or the trace plans runs built on a twin would be dropped with it.
func TestCodeCompiledOnce(t *testing.T) {
	prog := testProg(t)
	for _, level := range []int{MinLevel, MaxLevel} {
		shared := NewCache()
		c1 := NewCompiler(prog, DefaultConfig())
		c2 := NewCompiler(prog, DefaultConfig())
		c1.UseShared(shared)
		c2.UseShared(shared)
		var code2 *interp.Code
		var err2 error
		done2, missed2 := make(chan struct{}), make(chan struct{})
		var misses atomic.Int32
		shared.afterMiss = func() {
			if misses.Add(1) > 1 {
				close(missed2) // the second compiler's miss
				return
			}
			// The first compiler's miss: hold its window open until the
			// second compiler has missed too.
			go func() {
				defer close(done2)
				code2, _, err2 = c2.Compile(1, level)
			}()
			<-missed2
		}
		code1, _, err := c1.Compile(1, level)
		<-done2
		if err != nil || err2 != nil {
			t.Fatal(err, err2)
		}
		if n := misses.Load(); n != 2 {
			t.Fatalf("level %d: %d misses, want both compilers to miss", level, n)
		}
		if n := shared.builds.Load(); n != 1 {
			t.Errorf("level %d: the key was built %d times, want once", level, n)
		}
		if code1 != code2 {
			t.Errorf("level %d: the compilers ended with two forms of one key", level)
		}
		if held, ok := shared.m.Lookup(c1.sharedKey(1, level)); !ok || held.code != code1 {
			t.Errorf("level %d: the cache holds another form than the compilers returned", level)
		}
		// The waiting compiler's miss turned into a hit: misses count
		// builds, not lookups that found nothing yet.
		if s := shared.Stats(); s.Entries != 1 || s.Misses != 1 {
			t.Errorf("level %d: %d entries and %d misses for %d builds, want 1 each", level, s.Entries, s.Misses, shared.builds.Load())
		}
	}
}
