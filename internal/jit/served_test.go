package jit

import (
	"math/rand"
	"testing"

	"evolvevm/internal/interp"
	"evolvevm/internal/programs"
)

// TestServedTraceLengths pins the register traces that warm requests of
// the churn-http mix — compress, search, euler and moldyn — run: each
// benchmark's first corpus input (corpus seed 42, as served), compiled at
// level 2, where the optimizer unrolls the loops below. A trace's length
// is the number of dispatches of one trace iteration, fused pairs and
// pairs of fused pairs counting once: compress's run-length loop
// (rleblock, 8 unrolled iterations, 48 instructions unfused) and its
// summing loop (sumblock inlined into sumphase, 8 iterations, 40
// unfused), search's leaf evaluation (evaluate, 4 iterations, 24
// unfused), euler's grid fill (main, 40 unfused), flux row (fluxrow, 34)
// and boundary pass (boundary, 44), and moldyn's force row (forcerow, 28)
// and position update (moveall, 44). Every array operand of every served
// trace must be pinned: read once per activation from a register the
// trace never writes. A generator, converter or optimizer change that
// loses a fused form or a pin fails here, not only in the benchmark.
func TestServedTraceLengths(t *testing.T) {
	want := map[string]map[string]int{
		"compress": {"rleblock": 18, "sumphase": 16},
		"search":   {"evaluate": 9},
		"euler":    {"main": 33, "fluxrow": 22, "boundary": 36},
		"moldyn":   {"forcerow": 18, "moveall": 40},
	}
	for bench, fns := range want {
		b := programs.ByName(bench)
		prog, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		codes, _, err := NewCompiler(prog, DefaultConfig()).CompileAll(MaxLevel)
		if err != nil {
			t.Fatal(err)
		}
		e := interp.NewEngine(prog)
		e.Provider = func(fn int) *interp.Code { return codes[fn] }
		in := b.GenInputs(rand.New(rand.NewSource(42)), 1)[0]
		if err := in.Setup(e); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for i, c := range codes {
			name := prog.Funcs[i].Name
			if n := c.UnpinnedArrayOps(); n != 0 {
				t.Errorf("%s.%s: %d array operations of its traces are not pinned", bench, name, n)
			}
			lens := c.HeadTraceLens()
			n, traced := fns[name]
			if !traced {
				if len(lens) != 0 {
					t.Errorf("%s.%s: unexpected head traces %v", bench, name, lens)
				}
				continue
			}
			if len(lens) != 1 {
				t.Errorf("%s.%s: head traces %v, want one of %d instructions", bench, name, lens, n)
				continue
			}
			for pc, got := range lens {
				if got != n {
					t.Errorf("%s.%s: head trace at pc %d runs %d instructions per iteration, want %d", bench, name, pc, got, n)
				}
			}
		}
	}
}
