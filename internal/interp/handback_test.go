package interp

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"evolvevm/internal/bytecode"
)

// This file holds the golden tests of the hand-back path (DESIGN.md §12):
// a side exit writes the register file back and returns to the engine
// loop, which runs the cold arm on the fused path and re-enters the trace
// at the loop's next head arrival. That round trip must leave every
// virtual observable exactly where the per-instruction loop leaves it,
// wherever the sample-window boundary falls along the path. Like
// deopt_test.go, these tests read and reset the package-global trace
// counters and must not run in parallel with each other.

// altSrc is a loop whose branch arm alternates every iteration: the head
// trace side-exits into the odd arm on every odd i, the odd arm runs on
// the fused path, and its back edge re-enters the head trace. The odd arm
// divides by i-d, so an odd d traps there at iteration d.
const altSrc = `
global n
global d
func main() locals i s
  const 0
  store s
  const 0
  store i
loop:
  load i
  gload n
  ige
  jnz done
  load i
  const 1
  iand
  jnz odd
  load s
  load i
  iadd
  store s
  iinc i 1
  jmp loop
odd:
  load s
  const 100
  load i
  gload d
  isub
  idiv
  iadd
  store s
  iinc i 1
  jmp loop
done:
  load s
  ret
end
`

func altGlobals(n, d int64) map[string]bytecode.Value {
	return map[string]bytecode.Value{"n": bytecode.Int(n), "d": bytecode.Int(d)}
}

// pairCost is the virtual cost of one even+odd iteration pair of altSrc:
// the period of the path head trace → side exit → odd arm → head trace.
func pairCost(t *testing.T, p *bytecode.Program) int64 {
	t.Helper()
	noBatch := func(e *Engine) { e.NoBatching = true }
	return snapRun(t, p, altGlobals(4, -1), noBatch).cycles - snapRun(t, p, altGlobals(2, -1), noBatch).cycles
}

// checkStrideSweep compares the trace ladder against the reference at
// every sample stride from 1 to one past the path's period. Stride
// pair+1 alone moves the window boundary by one cycle per pair, so over
// n ≥ 2·(pair+1) iterations it falls at every offset of the path.
func checkStrideSweep(t *testing.T, p *bytecode.Program, g map[string]bytecode.Value, pair int64) {
	t.Helper()
	for stride := int64(1); stride <= pair+1; stride++ {
		withStride := func(cfg func(*Engine)) func(*Engine) {
			return func(e *Engine) {
				e.SampleStride = stride
				cfg(e)
			}
		}
		ref := snapRun(t, p, g, withStride(func(e *Engine) { e.NoBatching = true }))
		for _, cfg := range traceConfigs {
			got := snapRun(t, p, g, withStride(cfg.configure))
			snapIdentical(t, fmt.Sprintf("%s stride=%d", cfg.name, stride), ref, got)
		}
	}
}

// runCounts runs p once under configure at the default stride and
// returns the run's trace counters.
func runCounts(t *testing.T, p *bytecode.Program, g map[string]bytecode.Value, configure func(*Engine)) TraceStats {
	t.Helper()
	ResetTraceStats()
	snapRun(t, p, g, configure)
	return ReadTraceStats()
}

// TestHandBackStateMapping sweeps the sample window across the
// alternating loop's path, then counts the round trips within one
// window: the first entry plus one re-entry after every odd iteration,
// and one hand-back per odd iteration plus the loop's own exit.
func TestHandBackStateMapping(t *testing.T) {
	p := mustProg(t, altSrc)
	pair := pairCost(t, p)
	checkStrideSweep(t, p, altGlobals(2*pair+2, -1), pair)

	st := runCounts(t, p, altGlobals(24, -1), func(e *Engine) { e.EagerRegTier = true })
	if st.HeadEntries != 13 || st.SideExits != 13 || st.Traps != 0 {
		t.Errorf("alternating loop of 24: head_entries=%d side_exits=%d traps=%d, want 13, 13, 0 (%+v)",
			st.HeadEntries, st.SideExits, st.Traps, st)
	}
}

// TestHandBackTrapInOddArm traps in the odd arm, which runs on the fused
// path after a hand-back, at every odd iteration and across the stride
// sweep: the trap's pc, message, and clock must match the interpreter's
// exactly.
func TestHandBackTrapInOddArm(t *testing.T) {
	p := mustProg(t, altSrc)
	pair := pairCost(t, p)
	n := 2*pair + 2
	for _, d := range []int64{1, 3, 7, n - 1} {
		t.Run(fmt.Sprintf("trap@%d", d), func(t *testing.T) {
			checkStrideSweep(t, p, altGlobals(n, d), pair)
		})
	}

	// Entries at i = 0, 2, 4, 6, 8 and exits at i = 1, 3, 5, 7, 9; the
	// trap at 9 fires off trace.
	st := runCounts(t, p, altGlobals(24, 9), func(e *Engine) { e.EagerRegTier = true })
	if st.HeadEntries != 5 || st.SideExits != 5 || st.Traps != 0 {
		t.Errorf("trap in the odd arm: head_entries=%d side_exits=%d traps=%d, want 5, 5, 0 (%+v)",
			st.HeadEntries, st.SideExits, st.Traps, st)
	}
}

// callSumSrc is a loop that calls a function with a loop of its own: the
// caller's loop stays on the fused path, and the callee's loop runs on
// trace in every call, a short activation per call.
const callSumSrc = `
global n
func main() locals i s
loop:
  load i
  gload n
  ige
  jnz done
  load s
  load i
  const 16
  imod
  call sum 1
  iadd
  store s
  iinc i 1
  jmp loop
done:
  load s
  ret
end
func sum(k) locals j t
inner:
  load j
  load k
  ige
  jnz out
  load t
  load j
  iadd
  store t
  iinc j 1
  jmp inner
out:
  load t
  ret
end
`

// TestTraceStatsConservation runs one program from G goroutines at once
// on shared Codes, whose trace plans and hotness gates every engine
// shares: the per-run counts each engine adds when it returns must sum to
// exactly G times one serial run's.
func TestTraceStatsConservation(t *testing.T) {
	const goroutines = 8
	for _, tc := range []struct {
		name string
		src  string
		g    map[string]bytecode.Value
	}{
		{"alternating", altSrc, altGlobals(3000, -1)},
		{"call", callSumSrc, map[string]bytecode.Value{"n": bytecode.Int(3000)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := mustProg(t, tc.src)
			codes := make([]*Code, len(p.Funcs))
			for i, f := range p.Funcs {
				codes[i] = NewCode(i, f, 1, 100) // level ≥ 0: the hotness gates apply
			}
			run := func() error {
				e := NewEngine(p)
				e.Provider = func(fn int) *Code { return codes[fn] }
				for k, v := range tc.g {
					if err := e.SetGlobal(k, v); err != nil {
						return err
					}
				}
				_, err := e.Run()
				return err
			}
			delta := func(f func()) TraceStats {
				ResetTraceStats()
				f()
				return ReadTraceStats()
			}
			// Warm until the plan is built and every trace gate is hot, so
			// each further run takes the same path.
			var serial TraceStats
			for i := 0; i < 4; i++ {
				serial = delta(func() {
					if err := run(); err != nil {
						t.Fatal(err)
					}
				})
			}
			if serial.HeadEntries == 0 || serial.Built != 0 {
				t.Fatalf("warm serial run: %+v, want trace entries and no builds", serial)
			}
			concurrent := delta(func() {
				var wg sync.WaitGroup
				for i := 0; i < goroutines; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if err := run(); err != nil {
							t.Error(err)
						}
					}()
				}
				wg.Wait()
			})
			want := TraceStats{
				HeadEntries: goroutines * serial.HeadEntries,
				SideExits:   goroutines * serial.SideExits,
				Traps:       goroutines * serial.Traps,
				Deopts:      goroutines * serial.Deopts,
			}
			if !reflect.DeepEqual(concurrent, want) {
				t.Errorf("%d concurrent runs:\n got %+v\nwant %+v (serial %+v)", goroutines, concurrent, want, serial)
			}
		})
	}
}
