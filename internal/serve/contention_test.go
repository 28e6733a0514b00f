package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"evolvevm/internal/memo"
	"evolvevm/internal/xicl"
)

// TestServeContentionBattery is the serving-path slice of the race
// battery: a multi-worker replay runs to completion while GOMAXPROCS
// hammer goroutines pound the same kinds of shared structures the
// servers use — a memo.Map standing in for the code and baseline memos,
// a feature-vector cache, the server's atomic stat counters, and its
// histogram snapshots. Under -race this proves the hot path is free of
// data races; the serial oracle proves the concurrency is unobservable
// in virtual terms; and the memo stats prove that hits plus misses
// equal lookups and that no memo holds more than the keys it was given.
func TestServeContentionBattery(t *testing.T) {
	tr := testTrace(t, 96, 4)
	ref := runTrace(t, testConfig(1), tr)
	defer ref.Close()
	refSums := ref.TenantChecksums()
	refOut := ref.Outcomes()

	cfg := testConfig(runtime.GOMAXPROCS(0))
	cfg.Record = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const keys = 256
	var mc memo.Map[int, int]
	fv := xicl.NewFVCache()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var lookups int64
	hammers := runtime.GOMAXPROCS(0)
	for w := 0; w < hammers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := int64(0)
			for i := 0; ; i++ {
				select {
				case <-stop:
					// Fold this hammer's lookup count in for the conservation
					// check below.
					atomic.AddInt64(&lookups, n)
					return
				default:
				}
				key := (w*31 + i) % keys
				if _, ok := mc.Lookup(key); !ok {
					mc.Store(key, key)
				}
				n++
				sig := fmt.Sprintf("sig-%d", key)
				if _, _, ok := fv.Get(sig); !ok {
					fv.Put(sig, nil, int64(key))
				}
				if i%64 == 0 {
					// Stat reads ride the same atomic state the request
					// path updates.
					_ = s.StatsNow()
					_ = s.vhist.Snapshot()
					_ = s.retryAfter()
				}
			}
		}(w)
	}

	err = s.Run(context.Background(), tr)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	// Virtual observables: byte-identical to the serial oracle.
	sums := s.TenantChecksums()
	for tenant, want := range refSums {
		if got := sums[tenant]; got != want {
			t.Errorf("tenant %s checksum %#x, want %#x", tenant, got, want)
		}
	}
	out := s.Outcomes()
	if len(out) != len(refOut) {
		t.Fatalf("completed %d outcomes, want %d", len(out), len(refOut))
	}
	for i, o := range out {
		if o != refOut[i] {
			t.Fatalf("outcome %d = %+v, want %+v", i, o, refOut[i])
		}
	}
	if err := s.LedgerBalanced(); err != nil {
		t.Error(err)
	}

	// Memo invariants: counter conservation, and no entry beyond the
	// keys used.
	for name, st := range map[string]memo.Stats{"memo": mc.Stats(), "fv cache": fv.Stats()} {
		if st.Hits+st.Misses != lookups {
			t.Errorf("%s hits %d + misses %d != lookups %d", name, st.Hits, st.Misses, lookups)
		}
		if st.Entries > keys {
			t.Errorf("%s holds %d entries for %d keys", name, st.Entries, keys)
		}
	}
}
