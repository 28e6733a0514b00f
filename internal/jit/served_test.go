package jit

import (
	"math/rand"
	"testing"

	"evolvevm/internal/interp"
	"evolvevm/internal/programs"
)

// TestServedTraceLengths pins the register traces that warm compress and
// search requests run: each benchmark's first corpus input (corpus seed
// 42, as served), compiled at level 2, where the optimizer unrolls every
// loop below. A trace's length is the number of dispatches of one trace
// iteration, fused pairs counting once: compress's run-length loop
// (rleblock, 8 unrolled iterations, 48 instructions unfused), its summing
// loop (sumblock inlined into sumphase, 8 iterations, 40 unfused), and
// search's leaf evaluation (evaluate, 4 iterations, 24 unfused). A
// generator, converter or optimizer change that loses a fused pair fails
// here, not only in the benchmark.
func TestServedTraceLengths(t *testing.T) {
	want := map[string]map[string]int{
		"compress": {"rleblock": 25, "sumphase": 24},
		"search":   {"evaluate": 13},
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
