package memo

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestLookupStore(t *testing.T) {
	var c Map[string, int]
	if _, ok := c.Lookup("a"); ok {
		t.Fatal("lookup on empty memo hit")
	}
	c.Store("a", 1)
	v, ok := c.Lookup("a")
	if !ok || v != 1 {
		t.Fatalf("got %d,%v want 1,true", v, ok)
	}
	c.Store("a", 2)
	if v, _ := c.Lookup("a"); v != 2 {
		t.Fatalf("overwrite: got %d want 2", v)
	}
	if st := c.Stats(); st != (Stats{Hits: 2, Misses: 1, Entries: 1}) {
		t.Fatalf("stats %+v, want 2 hits 1 miss 1 entry", st)
	}
	c.Delete("a")
	if _, ok := c.Lookup("a"); ok {
		t.Fatal("lookup hit after Delete")
	}
}

// TestUnbounded: a memo keeps every key it is given.
func TestUnbounded(t *testing.T) {
	var c Map[int, int]
	for i := 0; i < 10000; i++ {
		c.Store(i, i)
	}
	if n := c.Stats().Entries; n != 10000 {
		t.Fatalf("memo holds %d entries, want 10000", n)
	}
	for i := 0; i < 10000; i++ {
		if v, ok := c.Lookup(i); !ok || v != i {
			t.Fatalf("key %d: got %d,%v", i, v, ok)
		}
	}
}

// TestLoadOrStore: two callers miss one key; the first caller's value
// wins, the later caller observes it, and its miss becomes a hit, so
// misses count stored values.
func TestLoadOrStore(t *testing.T) {
	var c Map[string, int]
	for range 2 {
		if _, ok := c.Lookup("k"); ok {
			t.Fatal("lookup on empty memo hit")
		}
	}
	v, loaded := c.LoadOrStore("k", 1)
	if loaded || v != 1 {
		t.Fatalf("first LoadOrStore got %d,%v", v, loaded)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("a storing LoadOrStore moved the counters: %+v, want 0 hits 2 misses", st)
	}
	v, loaded = c.LoadOrStore("k", 2)
	if !loaded || v != 1 {
		t.Fatalf("second LoadOrStore got %d,%v want 1,true", v, loaded)
	}
	if st := c.Stats(); st != (Stats{Hits: 1, Misses: 1, Entries: 1}) {
		t.Fatalf("stats %+v, want the loading caller's miss moved to a hit: 1 hit 1 miss 1 entry", st)
	}
}

// TestConcurrentHammer drives every operation from 4×GOMAXPROCS
// goroutines and checks that each key keeps the first value stored, that
// the memo ends holding exactly the keys used, that hits plus misses
// equal lookups, and that misses equal the values stored — the
// package-level slice of the serving contention battery (see
// internal/serve for the end-to-end one).
func TestConcurrentHammer(t *testing.T) {
	const keys = 256
	var c Map[int, *int]
	workers := runtime.GOMAXPROCS(0) * 4
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := (w*31 + i) % keys
				if v, ok := c.Lookup(key); ok {
					if *v != key {
						panic(fmt.Sprintf("key %d holds value %d", key, *v))
					}
					continue
				}
				v := key
				if got, _ := c.LoadOrStore(key, &v); *got != key {
					panic(fmt.Sprintf("key %d stored as %d", key, *got))
				}
				if i%97 == 0 {
					_ = c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries != keys {
		t.Fatalf("final entries %d, want %d", st.Entries, keys)
	}
	if st.Hits+st.Misses != int64(workers*perWorker) {
		t.Fatalf("hits %d + misses %d != lookups %d", st.Hits, st.Misses, workers*perWorker)
	}
	if st.Misses != keys {
		t.Fatalf("%d misses for %d stored keys", st.Misses, keys)
	}
}
