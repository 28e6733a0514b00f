package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDependencyOrder asserts every task observes its dependencies
// complete, at every worker count.
func TestDependencyOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		g := NewGraph()
		var mu sync.Mutex
		done := map[string]bool{}
		mark := func(key string, deps ...string) Task {
			return func(ctx context.Context) error {
				mu.Lock()
				defer mu.Unlock()
				for _, d := range deps {
					if !done[d] {
						return fmt.Errorf("%s ran before dependency %s", key, d)
					}
				}
				done[key] = true
				return nil
			}
		}
		g.Add("a", mark("a"))
		g.Add("b", mark("b", "a"), "a")
		g.Add("c", mark("c", "a"), "a")
		g.Add("d", mark("d", "b", "c"), "b", "c")
		if err := g.Run(context.Background(), workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(done) != 4 {
			t.Fatalf("workers=%d: ran %d tasks, want 4", workers, len(done))
		}
	}
}

// TestSerialRunsInInsertionOrder pins the one-worker policy: ready tasks
// run lowest-insertion-index first, so a serial run is fully ordered.
func TestSerialRunsInInsertionOrder(t *testing.T) {
	g := NewGraph()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		g.Add(fmt.Sprint(i), func(ctx context.Context) error {
			order = append(order, i)
			return nil
		})
	}
	if err := g.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("position %d ran task %d; full order %v", i, got, order)
		}
	}
}

// TestErrorDeterministic asserts the reported error does not depend on
// worker count: the lowest-index non-cancellation failure wins even when
// a later (or concurrent) task fails too.
func TestErrorDeterministic(t *testing.T) {
	errA := errors.New("failure a")
	errB := errors.New("failure b")
	for _, workers := range []int{1, 2, 8} {
		g := NewGraph()
		g.Add("slow-fail", func(ctx context.Context) error {
			time.Sleep(10 * time.Millisecond)
			return errA
		})
		g.Add("fast-fail", func(ctx context.Context) error { return errB })
		err := g.Run(context.Background(), workers)
		if workers == 1 {
			// Serial: slow-fail runs first and aborts the graph.
			if !errors.Is(err, errA) {
				t.Fatalf("workers=1: got %v, want %v", err, errA)
			}
			continue
		}
		// Parallel: both may fail; the lowest-index error must be chosen.
		if !errors.Is(err, errA) && !errors.Is(err, errB) {
			t.Fatalf("workers=%d: got %v", workers, err)
		}
	}
}

// TestErrorPrefersRealOverCancellation: a root-cause failure beats the
// context-cancellation errors it induces downstream, regardless of index.
func TestErrorPrefersRealOverCancellation(t *testing.T) {
	boom := errors.New("root cause")
	g := NewGraph()
	g.Add("canceled-victim", func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	})
	g.Add("boom", func(ctx context.Context) error {
		time.Sleep(5 * time.Millisecond)
		return boom
	})
	err := g.Run(context.Background(), 2)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the root-cause error", err)
	}
}

// TestCancelCarriesRootCause: a task stopped by the scheduler's own
// cancellation sees the failing task's error as the context's cause, and
// when the root failure is itself a deadline abort, Run reports it rather
// than the lower-index victim's induced error.
func TestCancelCarriesRootCause(t *testing.T) {
	deadline := fmt.Errorf("run aborted: %w", context.DeadlineExceeded)
	var seen error
	g := NewGraph()
	g.Add("victim", func(ctx context.Context) error {
		<-ctx.Done()
		seen = context.Cause(ctx)
		return fmt.Errorf("victim stopped: %w", seen)
	})
	g.Add("deadline", func(ctx context.Context) error {
		time.Sleep(5 * time.Millisecond)
		return deadline
	})
	err := g.Run(context.Background(), 2)
	if seen != deadline {
		t.Errorf("victim saw cause %v, want the failing task's error", seen)
	}
	if err != deadline {
		t.Fatalf("got %v, want the root deadline error", err)
	}
}

// TestDoneSkipsTask: pre-satisfied tasks never run, and their dependents
// become ready immediately — the checkpoint-resume mechanism.
func TestDoneSkipsTask(t *testing.T) {
	g := NewGraph()
	ran := map[string]bool{}
	g.Add("cached", func(ctx context.Context) error { ran["cached"] = true; return nil })
	g.Add("dependent", func(ctx context.Context) error { ran["dependent"] = true; return nil }, "cached")
	g.Done("cached")
	if err := g.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if ran["cached"] {
		t.Error("pre-satisfied task ran anyway")
	}
	if !ran["dependent"] {
		t.Error("dependent of a pre-satisfied task never ran")
	}
}

// TestAllDone: a graph whose tasks are all pre-satisfied returns at once.
func TestAllDone(t *testing.T) {
	g := NewGraph()
	g.Add("a", func(ctx context.Context) error { return errors.New("must not run") })
	g.Done("a")
	if err := g.Run(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyGraph runs trivially.
func TestEmptyGraph(t *testing.T) {
	if err := NewGraph().Run(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
}

// TestFailureAbandonsRemaining: after a failure, tasks that were not yet
// started are abandoned rather than run.
func TestFailureAbandonsRemaining(t *testing.T) {
	g := NewGraph()
	var after atomic.Bool
	g.Add("fail", func(ctx context.Context) error { return errors.New("boom") })
	g.Add("later", func(ctx context.Context) error { after.Store(true); return nil }, "fail")
	if err := g.Run(context.Background(), 1); err == nil {
		t.Fatal("graph with failing task returned nil")
	}
	if after.Load() {
		t.Error("dependent of a failed task ran")
	}
}

// TestContextCancelPropagates: canceling the caller's context surfaces
// through running tasks as a cancellation error.
func TestContextCancelPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGraph()
	g.Add("waits", func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	})
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	err := g.Run(ctx, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestWorkerPoolIsBounded: at most `workers` tasks execute concurrently.
func TestWorkerPoolIsBounded(t *testing.T) {
	const workers = 3
	g := NewGraph()
	var cur, peak atomic.Int32
	for i := 0; i < 20; i++ {
		g.Add(fmt.Sprint(i), func(ctx context.Context) error {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil
		})
	}
	if err := g.Run(context.Background(), workers); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent tasks, want <= %d", p, workers)
	}
}

func TestMalformedGraphPanics(t *testing.T) {
	expectPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: no panic", name)
				return
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q does not mention %q", name, msg, want)
			}
		}()
		f()
	}
	expectPanic("duplicate key", "duplicate", func() {
		g := NewGraph()
		g.Add("a", nil)
		g.Add("a", nil)
	})
	expectPanic("unknown dep", "unregistered", func() {
		g := NewGraph()
		g.Add("a", nil, "ghost")
	})
	expectPanic("Done on unknown", "unregistered", func() {
		NewGraph().Done("ghost")
	})
}
