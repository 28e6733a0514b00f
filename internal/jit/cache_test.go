package jit

import (
	"sync"
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

// TestCacheCarriesOSRAndInlineGuards extends the round trip to the OSR
// and inlining machinery: a run that builds a trace plan with mid-loop
// OSR entry points and guarded inlined call sites leaves them on the
// shared Code, and a second compiler resolving the same key receives the
// identical plan — entry maps and inline guards included. The guards
// re-validate against each run's own code table, so carrying them across
// runs is safe by construction.
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
  call leaf 1
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
func leaf(x)
  load x
  load x
  imul
  const 1
  iadd
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
	e.PeekCode = func(fn int) *interp.Code { return codes[fn] }
	if err := e.SetGlobal("n", bytecode.Int(60)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	heads, osr, inlined := codes[hotIdx].TraceInfo(true)
	if heads == 0 || osr == 0 || inlined == 0 {
		t.Fatalf("run built heads=%d osr=%d inlined=%d; want all nonzero", heads, osr, inlined)
	}

	// Second compiler, same shared cache: identical Code, identical plan.
	c2 := NewCompiler(prog, Config{})
	c2.UseShared(shared)
	code2, _ := c2.Baseline(hotIdx)
	if code2 != codes[hotIdx] {
		t.Fatal("shared cache returned a different code form")
	}
	h2, o2, i2 := code2.TraceInfo(true)
	if h2 != heads || o2 != osr || i2 != inlined {
		t.Fatalf("cached form's trace plan changed: heads=%d osr=%d inlined=%d, want %d/%d/%d",
			h2, o2, i2, heads, osr, inlined)
	}
}
