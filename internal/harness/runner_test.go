package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"evolvevm/internal/aos"
	"evolvevm/internal/gc"
	"evolvevm/internal/programs"
	"evolvevm/internal/vm"
	"evolvevm/internal/xicl"
)

// TestDefaultSpeedupFollowsGCConfig: a Default-scenario run is its own
// baseline, so its speedup over Default is exactly 1 whatever collector
// the runner has switched to since its last run, as the GC-selection
// experiment's learned runner does every run.
func TestDefaultSpeedupFollowsGCConfig(t *testing.T) {
	r, err := NewRunner(programs.Server(), 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	in := r.Inputs[0]
	for _, policy := range []gc.Policy{gc.MarkSweep, gc.Copying, gc.MarkSweep} {
		r.GC = gc.Config{Policy: policy, BudgetCells: GCBudgetCells}
		res, err := r.RunOne(testCtx, ScenarioDefault, in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Speedup != 1 {
			t.Errorf("%s under %v: speedup over Default %.5f, want 1", in.ID, policy, res.Speedup)
		}
	}
}

// TestForksShareFeatureMemo: every fork and reset of a runner keeps the
// one feature-vector memo of its corpus.
func TestForksShareFeatureMemo(t *testing.T) {
	r := newRunner(t, "compress", 4)
	fv := r.State.FVCache()
	if r.Fork().State.FVCache() != fv {
		t.Error("Fork built its own feature-vector memo")
	}
	r.ResetState()
	if r.State.FVCache() != fv {
		t.Error("ResetState built its own feature-vector memo")
	}
}

var forkSink *Runner

// TestForkAllocatesLittle pins what a new serving chain costs: fresh
// learners and nothing sized by the corpus's memos.
func TestForkAllocatesLittle(t *testing.T) {
	r := newRunner(t, "compress", 4)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			forkSink = r.Fork()
		}
	})
	t.Logf("Runner.Fork: %d B/op, %d allocs/op", res.AllocedBytesPerOp(), res.AllocsPerOp())
	if got := res.AllocedBytesPerOp(); got > 8<<10 {
		t.Errorf("Runner.Fork allocates %d B/op, want at most %d", got, 8<<10)
	}
}

// TestWarmRequestAllocatesLittle bounds what a warm serving request on
// a compress chain allocates. Its input array is built in the arrays the
// pooled machine's previous run left behind, so what remains is the
// learner's and the result's bookkeeping.
func TestWarmRequestAllocatesLittle(t *testing.T) {
	r, err := NewRunner(programs.ByName("compress"), 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	request := func(i int) {
		r.State.BeginRun()
		defer r.State.EndRun()
		res, err := r.RunRequest(testCtx, ScenarioEvolve, r.Inputs[i%len(r.Inputs)])
		if err != nil {
			t.Fatal(err)
		}
		if res.Trap != "" {
			t.Fatalf("%s trapped: %s", res.InputID, res.Trap)
		}
	}
	// Warm the code cache, the machine pool, the Default baselines and
	// the learner, as a chain that has served a hundred requests.
	i := 0
	for ; i < 100; i++ {
		request(i)
	}
	const n, bound = 40, 16 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for end := i + n; i < end; i++ {
		request(i)
	}
	runtime.ReadMemStats(&after)
	perReq := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("warm compress RunRequest: %d B/request", perReq)
	if !raceEnabled && perReq > bound {
		t.Errorf("warm compress RunRequest allocates %d B, want at most %d", perReq, bound)
	}
}

// TestForksExtractFeaturesConcurrently: forks extracting features for
// the same inputs at once, through their shared memo, see exactly the
// vectors and costs the translator extracts serially without a memo.
func TestForksExtractFeaturesConcurrently(t *testing.T) {
	const workers, rounds = 8, 100
	proto := newRunner(t, "search", 8)
	type extracted struct {
		vec  xicl.Vector
		cost int64
	}
	want := make([]extracted, len(proto.Inputs))
	for i, in := range proto.Inputs {
		tr := xicl.NewTranslator(proto.Spec, proto.Reg, in.Files)
		vec, err := tr.BuildFVector(in.Args)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = extracted{vec, tr.Cost()}
	}

	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := proto.Fork()
			for round := 0; round < rounds; round++ {
				for i, in := range r.Inputs {
					vec, cost, err := r.Features(in)
					if err != nil {
						errs <- err.Error()
						return
					}
					if cost != want[i].cost || !reflect.DeepEqual(vec, want[i].vec) {
						errs <- fmt.Sprintf("%s: %v (cost %d), want %v (cost %d)", in.ID, vec, cost, want[i].vec, want[i].cost)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// baselineSeeds gives every runner built by the baseline tests a corpus
// seed no other runner in the process uses, so none of its Default
// baselines is in the process-wide memo yet, even under -count.
var baselineSeeds atomic.Int64

// baselineRunner returns a compress runner on a fresh corpus seed and a
// counter of the Default runs it executes.
func baselineRunner(t *testing.T) (*Runner, *atomic.Int64) {
	t.Helper()
	r, err := NewRunner(programs.ByName("compress"), 8, 1<<40+baselineSeeds.Add(1))
	if err != nil {
		t.Fatal(err)
	}
	defaults := new(atomic.Int64)
	r.Inspect = func(m *vm.Machine) {
		if _, ok := m.Controller.(*aos.Reactive); ok {
			defaults.Add(1)
		}
	}
	return r, defaults
}

// TestBaselineMeasuredOnce: Evolve and Rep sequences over one order on
// one runner, run concurrently as Figure 10 runs them, measure each
// input's Default baseline once between them.
func TestBaselineMeasuredOnce(t *testing.T) {
	r, defaults := baselineRunner(t)
	misses := BaselineCacheStats().Misses
	order := r.Order(rand.New(rand.NewSource(1)), 16)
	distinct := make(map[int]bool)
	for _, idx := range order {
		distinct[idx] = true
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, scenario := range []Scenario{ScenarioEvolve, ScenarioRep} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = r.RunSequence(testCtx, scenario, order)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if got := defaults.Load(); got != int64(len(distinct)) {
		t.Errorf("%d Default runs for %d distinct inputs, want one each", got, len(distinct))
	}
	// A sequence that finds the other's measurement in flight waits for
	// it and counts a hit: the memo's misses are its Default runs.
	if got := BaselineCacheStats().Misses - misses; got != defaults.Load() {
		t.Errorf("%d baseline memo misses for %d Default runs, want equal", got, defaults.Load())
	}

	t.Run("canceled", func(t *testing.T) {
		r, defaults := baselineRunner(t)
		in := r.Inputs[0]
		ctx, cancel := context.WithCancel(testCtx)
		cancel()
		entries := BaselineCacheStats().Entries
		if _, err := r.DefaultCycles(ctx, in); !errors.Is(err, context.Canceled) {
			t.Fatalf("DefaultCycles under a canceled context: err %v, want context.Canceled", err)
		}
		if got := BaselineCacheStats().Entries; got != entries {
			t.Fatalf("canceled measurement left %d entries, want %d", got, entries)
		}
		before := defaults.Load()
		for range 2 {
			if c, err := r.DefaultCycles(testCtx, in); err != nil || c <= 0 {
				t.Fatalf("DefaultCycles = %d, %v", c, err)
			}
		}
		if got := defaults.Load() - before; got != 1 {
			t.Errorf("%d Default runs after the canceled call, want 1", got)
		}
	})
}
