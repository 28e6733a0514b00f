package exec

// Allocation-regression tests for the steady-state hot paths. Each test
// warms its path once (first runs pay one-time costs: plan decode,
// trace conversion, pool population) and then asserts the steady
// state stays allocation-free with testing.AllocsPerRun, so the
// zero-allocation property is locked in by CI rather than measured once
// in a benchmark. Under -race the numeric bounds are skipped (see
// raceEnabled) but every path still executes.

import (
	"context"
	"testing"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/interp"
	"evolvevm/internal/jit"
)

const allocLoopSrc = `
global n
func main() locals i acc
  const 0
  store acc
  const 0
  store i
loop:
  load i
  gload n
  ige
  jnz done
  load acc
  load i
  ixor
  store acc
  iinc i 1
  jmp loop
done:
  load acc
  ret
end
`

func allocLoopProg(t *testing.T) *bytecode.Program {
	t.Helper()
	prog, err := bytecode.Assemble("allocloop", allocLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// checkAllocs runs fn through AllocsPerRun and asserts the steady-state
// bound (skipped under the race detector, where sync.Pool drops items at
// random by design).
func checkAllocs(t *testing.T, name string, maxAllocs float64, fn func()) {
	t.Helper()
	fn() // warm: plans, traces, pools
	got := testing.AllocsPerRun(20, fn)
	if raceEnabled {
		t.Logf("%s: %.1f allocs/run (bound %.0f not enforced under -race)", name, got, maxAllocs)
		return
	}
	if got > maxAllocs {
		t.Errorf("%s: %.1f allocs/run, want ≤ %.0f", name, got, maxAllocs)
	}
}

// engineRun resets e, rebinds the loop bound, and runs to completion.
func engineRun(t *testing.T, e *interp.Engine, setup func(e *interp.Engine)) func() {
	return func() {
		e.Reset()
		setup(e)
		if err := e.SetGlobal("n", bytecode.Int(5000)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllocsInterpStepLoop locks in the per-instruction dispatch loop:
// with batching disabled the engine still runs out of pooled scratch.
func TestAllocsInterpStepLoop(t *testing.T) {
	e := interp.NewEngine(allocLoopProg(t))
	run := engineRun(t, e, func(e *interp.Engine) { e.NoBatching = true })
	checkAllocs(t, "step loop", 0, run)
}

// TestAllocsFusedPlanExecution locks in the fused block-batched path:
// the default substrate, where a fresh NewEngine runs level −1 code that
// never earns a trace plan.
func TestAllocsFusedPlanExecution(t *testing.T) {
	e := interp.NewEngine(allocLoopProg(t))
	run := engineRun(t, e, func(*interp.Engine) {})
	checkAllocs(t, "fused plan", 0, run)
}

// TestAllocsRegTier locks in the register-converted trace tier: after
// the one-time trace conversion (paid in the warm-up run via the shared
// Code) and the scratch register file's first growth (pooled with the
// run scratch), steady-state loop iterations are allocation-free.
func TestAllocsRegTier(t *testing.T) {
	e := interp.NewEngine(allocLoopProg(t))
	run := engineRun(t, e, func(e *interp.Engine) { e.EagerRegTier = true })
	checkAllocs(t, "register tier", 0, run)
}

// TestAllocsJitCacheHit locks in the shared-cache hit path: a compiler
// that resolves a compile request from the cross-run cache must not
// allocate once its local memo map has been sized.
func TestAllocsJitCacheHit(t *testing.T) {
	prog := allocLoopProg(t)
	shared := jit.NewCache()
	warm := jit.NewCompiler(prog, jit.Config{})
	warm.UseShared(shared)
	if _, _, err := warm.Compile(0, jit.MaxLevel); err != nil {
		t.Fatal(err)
	}
	c := jit.NewCompiler(prog, jit.Config{})
	checkAllocs(t, "jit cache hit", 0, func() {
		c.Reset() // clears the local memo, keeps its buckets
		c.UseShared(shared)
		if _, _, err := c.Compile(0, jit.MaxLevel); err != nil {
			t.Fatal(err)
		}
	})
	if s := shared.Stats(); s.Hits == 0 {
		t.Fatalf("shared cache never hit: %+v", s)
	}
}

// TestAllocsExecRunCachedProgram locks in the full exec layer: a run of
// a program whose machine is pooled and whose code is in the shared
// cache reuses the caller's outcome buffers and allocates nothing.
func TestAllocsExecRunCachedProgram(t *testing.T) {
	prog := allocLoopProg(t)
	shared := jit.NewCache()
	spec := &RunSpec{
		Prog:       prog,
		SharedCode: shared,
		Setup: func(e *interp.Engine) error {
			return e.SetGlobal("n", bytecode.Int(5000))
		},
	}
	out := &RunOutcome{}
	checkAllocs(t, "exec cached run", 0, func() {
		if err := RunInto(context.Background(), spec, out); err != nil {
			t.Fatal(err)
		}
	})
	if out.Cycles == 0 {
		t.Fatal("run recorded no cycles")
	}
}

const allocArraySrc = `
global n
global data
func main() locals i acc
  const 0
  store acc
  const 0
  store i
loop:
  load i
  gload n
  ige
  jnz done
  load acc
  gload data
  load i
  aload
  iadd
  store acc
  iinc i 1
  jmp loop
done:
  load acc
  ret
end
`

// TestAllocsExecRunArrayInput locks in input arrays: a pooled machine
// builds each run's 20,000-cell input array in the arrays its previous
// run left behind, so a warm run with an array input allocates nothing.
func TestAllocsExecRunArrayInput(t *testing.T) {
	prog, err := bytecode.Assemble("allocarray", allocArraySrc)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int64, 20_000)
	var want int64
	for i := range data {
		data[i] = int64(i % 251)
		want += data[i]
	}
	spec := &RunSpec{
		Prog:       prog,
		SharedCode: jit.NewCache(),
		Setup: func(e *interp.Engine) error {
			ref, cells, err := e.NewArrayCells(int64(len(data)))
			if err != nil {
				return err
			}
			for i, v := range data {
				cells[i] = bytecode.Int(v)
			}
			if err := e.SetGlobal("data", ref); err != nil {
				return err
			}
			return e.SetGlobal("n", bytecode.Int(int64(len(data))))
		},
	}
	out := &RunOutcome{}
	checkAllocs(t, "exec array-input run", 0, func() {
		if err := RunInto(context.Background(), spec, out); err != nil {
			t.Fatal(err)
		}
	})
	if out.Result.I != want {
		t.Fatalf("array sum %d, want %d", out.Result.I, want)
	}
}
