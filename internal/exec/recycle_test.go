package exec

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/gc"
	"evolvevm/internal/interp"
	"evolvevm/internal/jit"
	"evolvevm/internal/vm"
)

// recycleSrc hashes every cell of its input array and then overwrites
// it with the run's tag. Then, three times, it allocates an m-cell array,
// hashes every cell (all zero on a fresh engine), overwrites them with
// the tag and drops the array, so under a small collector budget the
// next allocation collects it. A cell another run wrote, seen through a
// recycled array, changes the hash.
const recycleSrc = `
global data
global m
global tag
func main() locals i acc buf r
  const 0
  store i
in:
  load i
  gload data
  alen
  ige
  jnz round
  load acc
  const 31
  imul
  gload data
  load i
  aload
  iadd
  store acc
  gload data
  load i
  gload tag
  astore
  iinc i 1
  jmp in
round:
  load r
  const 3
  ige
  jnz done
  gload m
  newarr
  store buf
  const 0
  store i
fill:
  load i
  gload m
  ige
  jnz next
  load acc
  const 31
  imul
  load buf
  load i
  aload
  iadd
  store acc
  load buf
  load i
  gload tag
  astore
  iinc i 1
  jmp fill
next:
  const 0
  store buf
  iinc r 1
  jmp round
done:
  load acc
  ret
end
`

// recycleInput is one input of the recycling test: its array cells, the
// size of the array the run allocates, and a collector configuration.
type recycleInput struct {
	data []int64
	m    int64
	gc   gc.Config
}

func (in recycleInput) setup(tag int64) func(e *interp.Engine) error {
	return func(e *interp.Engine) error {
		ref, cells, err := e.NewArrayCells(int64(len(in.data)))
		if err != nil {
			return err
		}
		for i, v := range in.data {
			cells[i] = bytecode.Int(v)
		}
		for name, v := range map[string]bytecode.Value{"data": ref, "m": bytecode.Int(in.m), "tag": bytecode.Int(tag)} {
			if err := e.SetGlobal(name, v); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestRecycledArraysStayPrivate runs large and small array inputs,
// alternately, from 8 goroutines through pooled machines, so each run's
// arrays are built in the spares another input's run left behind. Every
// run reads each cell before overwriting it with its own tag, and its
// result and cycles must equal those of a fresh, unpooled machine.
func TestRecycledArraysStayPrivate(t *testing.T) {
	prog, err := bytecode.Assemble("recycle", recycleSrc)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(n int, m int64, cfg gc.Config) recycleInput {
		data := make([]int64, n)
		for i := range data {
			data[i] = int64((i*7919)%1000 + 1)
		}
		return recycleInput{data, m, cfg}
	}
	inputs := []recycleInput{
		mk(6000, 40, gc.Config{}),
		mk(300, 2500, gc.Config{}),
		mk(5000, 900, gc.Config{Policy: gc.MarkSweep, BudgetCells: 6000}),
		mk(200, 64, gc.Config{Policy: gc.Copying, BudgetCells: 300}),
	}
	type outcome struct {
		result bytecode.Value
		cycles int64
	}
	want := make([]outcome, len(inputs))
	for k, in := range inputs {
		m := vm.New(prog, jit.Config{}, nil)
		m.Engine.GC = in.gc
		if err := in.setup(-1)(m.Engine); err != nil {
			t.Fatal(err)
		}
		v, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if in.gc.Policy != gc.None && len(m.Engine.GCStats.Collections) == 0 {
			t.Fatalf("input %d never collects under %+v", k, in.gc)
		}
		want[k] = outcome{v, m.TotalCycles()}
	}

	const workers, runs = 8, 40
	shared := jit.NewCache()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &RunOutcome{}
			for r := 0; r < runs; r++ {
				k := (w + r) % len(inputs)
				in := inputs[k]
				spec := &RunSpec{Prog: prog, GC: in.gc, SharedCode: shared, Setup: in.setup(int64(w*runs + r))}
				if err := RunInto(context.Background(), spec, out); err != nil {
					errs <- err
					return
				}
				if got := (outcome{out.Result, out.Cycles}); got != want[k] {
					errs <- fmt.Errorf("worker %d run %d, input %d: result %v in %d cycles, a fresh machine gives %v in %d",
						w, r, k, got.result, got.cycles, want[k].result, want[k].cycles)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
