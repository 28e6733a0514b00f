// Package sched provides a deterministic bounded-worker scheduler for
// experiment work units. Tasks form a DAG: each task may depend on tasks
// registered before it (insertion order is therefore a topological
// order, and cycles are impossible by construction). Workers always pick
// the ready task with the lowest insertion index, and every task writes
// its result into its own pre-allocated slot, so the *set* of executed
// work and all merged outputs are identical whether the graph runs on
// one worker or many — determinism comes from the dependency structure,
// not from scheduling luck.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
)

// ProfileLabels, when enabled, wraps every task in a runtime/pprof label
// set (sched_task = the task's key) so CPU profiles attribute worker time
// by experiment work unit; the labeled context flows into the task, so
// exec's per-run labels nest under it. Off by default: label sets
// allocate per task, and the profiling CLIs switch this on only when a
// profile was requested.
var ProfileLabels = false

// Task is one unit of work. It receives the graph's context, which is
// canceled as soon as any task fails.
type Task func(ctx context.Context) error

// Graph is a dependency graph of tasks built once and run once.
type Graph struct {
	tasks []node
	byKey map[string]int
}

type node struct {
	key  string
	run  Task
	deps []int
	done bool // pre-satisfied (e.g. restored from a checkpoint)
}

// NewGraph returns an empty task graph.
func NewGraph() *Graph {
	return &Graph{byKey: make(map[string]int)}
}

// Add registers a task under key, depending on previously registered
// keys. Unknown dependencies and duplicate keys panic: graph shape is
// static program structure, and a malformed graph is a programming
// error, not a runtime condition.
func (g *Graph) Add(key string, run Task, deps ...string) {
	if _, ok := g.byKey[key]; ok {
		panic(fmt.Sprintf("sched: duplicate task %q", key))
	}
	n := node{key: key, run: run, deps: make([]int, 0, len(deps))}
	for _, d := range deps {
		idx, ok := g.byKey[d]
		if !ok {
			panic(fmt.Sprintf("sched: task %q depends on unregistered %q", key, d))
		}
		n.deps = append(n.deps, idx)
	}
	g.byKey[key] = len(g.tasks)
	g.tasks = append(g.tasks, n)
}

// Done marks key as already satisfied: its task will not run, and
// dependents treat it as complete. Used for work units restored from a
// checkpoint.
func (g *Graph) Done(key string) {
	idx, ok := g.byKey[key]
	if !ok {
		panic(fmt.Sprintf("sched: Done on unregistered task %q", key))
	}
	g.tasks[idx].done = true
}

// Run executes the graph on at most workers goroutines (min 1). It
// returns the first error in task-insertion order — preferring real
// failures over the cancellation errors they induce in downstream
// tasks — so the reported error is the same regardless of worker count.
// On error, remaining tasks are abandoned and the shared context is
// canceled with the failing task's error as its cause, so a task stopped
// by that cancellation reports the root reason (context.Cause), not a
// bare context.Canceled.
func (g *Graph) Run(ctx context.Context, workers int) error {
	if workers < 1 {
		workers = 1
	}
	if len(g.tasks) == 0 {
		return nil
	}
	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		pending  = make([]int, len(g.tasks)) // unmet dep counts
		state    = make([]int, len(g.tasks)) // 0 waiting, 1 running, 2 done
		errs     = make([]error, len(g.tasks))
		failed   bool
		root     = -1 // the task whose error canceled runCtx
		remained = 0
	)
	dependents := make([][]int, len(g.tasks))
	for i, t := range g.tasks {
		if t.done {
			state[i] = 2
			continue
		}
		remained++
		pending[i] = 0
		for _, d := range t.deps {
			if !g.tasks[d].done {
				pending[i]++
				dependents[d] = append(dependents[d], i)
			}
		}
	}
	// deps always have lower indices than dependents, so a dependent
	// counts only not-yet-done tasks and no count is ever missed.

	next := func() (int, bool) {
		// Lowest-index ready task. Linear scan keeps the policy obvious;
		// graphs are tens to hundreds of tasks, not millions.
		for i := range g.tasks {
			if state[i] == 0 && pending[i] == 0 {
				return i, true
			}
		}
		return -1, false
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				var idx int
				for {
					if failed || remained == 0 {
						mu.Unlock()
						cond.Broadcast()
						return
					}
					var ok bool
					if idx, ok = next(); ok {
						break
					}
					cond.Wait()
				}
				state[idx] = 1
				mu.Unlock()

				err := g.runTask(runCtx, idx)

				mu.Lock()
				state[idx] = 2
				remained--
				if err != nil {
					errs[idx] = err
					if !failed {
						failed, root = true, idx
						cancel(err)
					}
				} else {
					for _, d := range dependents[idx] {
						pending[d]--
					}
				}
				mu.Unlock()
				cond.Broadcast()
			}
		}()
	}
	wg.Wait()

	// Deterministic error selection: the lowest-index error that is
	// neither a cancellation nor induced by the root failure's
	// cancellation (wrapping its error as the cause), falling back to the
	// root error itself.
	if root < 0 {
		return nil
	}
	for i, err := range errs {
		if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			continue
		}
		if i != root && errors.Is(err, errs[root]) {
			continue
		}
		return err
	}
	return errs[root]
}

// runTask executes one task, under a pprof label set when profiling is
// enabled. The labeled context is handed to the task so every run it
// spawns inherits the sched_task label.
func (g *Graph) runTask(ctx context.Context, idx int) error {
	if !ProfileLabels {
		return g.tasks[idx].run(ctx)
	}
	var err error
	pprof.Do(ctx, pprof.Labels("sched_task", g.tasks[idx].key), func(ctx context.Context) {
		err = g.tasks[idx].run(ctx)
	})
	return err
}
