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

// branchyHotSrc is testSrc with a data-dependent arm in hot's loop, so
// its head trace side-exits on one iteration of three.
const branchyHotSrc = `
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

// TestCacheCarriesTracePlans proves that the register plans a run builds
// on a cached Code travel with it: the run leaves the trace plan on the
// interp.Code stored in the shared cache, so every later run resolving
// the same key starts with the register tier already built. It checks an
// optimized form and the baseline form of a branchy loop, each run once
// under the zero Substrate, and compares the cached form's head traces
// with those of an independent build: a compiler without the shared
// cache that compiles and runs the same key.
func TestCacheCarriesTracePlans(t *testing.T) {
	for _, tc := range []struct {
		name  string
		src   string
		level int
		n     int64
	}{
		{"optimized", testSrc, MaxLevel, 100},
		{"baseline", branchyHotSrc, MinLevel, 60},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := bytecode.Assemble("cachetest", tc.src)
			if err != nil {
				t.Fatal(err)
			}
			hotIdx, ok := prog.FuncIndex("hot")
			if !ok {
				t.Fatal("no hot function")
			}
			// runHot compiles hot with c, runs the program once with that
			// form, and returns it.
			runHot := func(c *Compiler) *interp.Code {
				code, _, err := c.Compile(hotIdx, tc.level)
				if err != nil {
					t.Fatal(err)
				}
				if code.TraceReady() {
					t.Fatal("fresh compile already had a trace plan")
				}
				e := interp.NewEngine(prog)
				base := e.Provider
				e.Provider = func(fn int) *interp.Code {
					if fn == hotIdx {
						return code
					}
					return base(fn)
				}
				if err := e.SetGlobal("n", bytecode.Int(tc.n)); err != nil {
					t.Fatal(err)
				}
				if _, err := e.Run(); err != nil {
					t.Fatal(err)
				}
				if !code.TraceReady() {
					t.Fatal("run built no trace plan")
				}
				return code
			}

			shared := NewCache()
			c1 := NewCompiler(prog, Config{})
			c1.UseShared(shared)
			code := runHot(c1)

			// A second compiler resolving from the shared cache receives
			// the same form, register plans included.
			c2 := NewCompiler(prog, Config{})
			c2.UseShared(shared)
			cached, _, err := c2.Compile(hotIdx, tc.level)
			if err != nil {
				t.Fatal(err)
			}
			if cached != code {
				t.Fatal("shared cache returned a different code form")
			}

			fresh := runHot(NewCompiler(prog, Config{}))
			heads, want := cached.HeadTraceLens(), fresh.HeadTraceLens()
			if len(want) == 0 {
				t.Fatal("independent build traced no loop head")
			}
			if !maps.Equal(heads, want) {
				t.Fatalf("cached form's head traces %v, want the independent build's %v", heads, want)
			}
		})
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
