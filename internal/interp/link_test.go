package interp

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"evolvevm/internal/bytecode"
)

// This file holds the golden tests of linked exits (DESIGN.md §12): a
// side exit that continues in the next trace in-register, and an OSR
// tail that rejoins its head trace, must leave every virtual observable
// exactly where the engine-loop round trip leaves it — wherever the
// sample-window boundary falls along the linked path. Like osr_test.go,
// these tests read and reset the package-global trace counters and must
// not run in parallel with each other.

// altSrc is a loop whose branch arm alternates every iteration: the head
// trace side-exits into the odd arm on every odd i, where an OSR tail
// takes over and rejoins the head at the back edge. The odd arm divides
// by i-d, so an odd d traps inside the OSR tail at iteration d.
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
// the period of the linked path head → odd tail → head.
func pairCost(t *testing.T, p *bytecode.Program) int64 {
	t.Helper()
	noBatch := func(e *Engine) { e.NoBatching = true }
	return snapRun(t, p, altGlobals(4, -1), noBatch).cycles - snapRun(t, p, altGlobals(2, -1), noBatch).cycles
}

// checkStrideSweep compares the trace ladder against the reference at
// every sample stride from 1 to one past the linked path's period. Stride
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

// linkCounts runs p once under configure at the default stride and
// returns the run's trace counters.
func linkCounts(t *testing.T, p *bytecode.Program, g map[string]bytecode.Value, configure func(*Engine)) TraceStats {
	t.Helper()
	ResetTraceStats()
	snapRun(t, p, g, configure)
	return ReadTraceStats()
}

// TestLinkedExitStateMapping sweeps the sample window across the linked
// path of the alternating loop, then checks that the path really stays
// in-register: within one window the only hand-back is the loop's own
// exit, while ForcedDeopt and NoOSR never link.
func TestLinkedExitStateMapping(t *testing.T) {
	p := mustProg(t, altSrc)
	pair := pairCost(t, p)
	checkStrideSweep(t, p, altGlobals(2*pair+2, -1), pair)

	g := altGlobals(24, -1) // the whole loop fits one default window
	st := linkCounts(t, p, g, func(e *Engine) { e.EagerRegTier = true })
	if st.Linked == 0 || st.SideExits > 1 {
		t.Errorf("alternating loop: linked=%d side_exits=%d, want linked > 0 and at most the loop's one exit (%+v)",
			st.Linked, st.SideExits, st)
	}
	if st.HeadEntries+st.OSREntries-st.Linked != 1 {
		t.Errorf("alternating loop entered the register tier %d times from the engine loop, want 1 (%+v)",
			st.HeadEntries+st.OSREntries-st.Linked, st)
	}
	for name, configure := range map[string]func(*Engine){
		"stress-deopt": func(e *Engine) { e.EagerRegTier = true; e.ForcedDeopt = true },
		"noosr":        func(e *Engine) { e.EagerRegTier = true; e.NoOSR = true },
	} {
		if st := linkCounts(t, p, g, configure); st.Linked != 0 {
			t.Errorf("%s: linked=%d, want 0 (%+v)", name, st.Linked, st)
		}
	}
}

// TestLinkedExitTrapInOSRTail traps inside the OSR tail reached through a
// link, at every odd iteration and across the stride sweep: the trap's
// pc, message, and clock must match the interpreter's exactly.
func TestLinkedExitTrapInOSRTail(t *testing.T) {
	p := mustProg(t, altSrc)
	pair := pairCost(t, p)
	n := 2*pair + 2
	for _, d := range []int64{1, 3, 7, n - 1} {
		t.Run(fmt.Sprintf("trap@%d", d), func(t *testing.T) {
			checkStrideSweep(t, p, altGlobals(n, d), pair)
		})
	}

	st := linkCounts(t, p, altGlobals(24, 9), func(e *Engine) { e.EagerRegTier = true })
	if st.Linked == 0 || st.SideExits != 0 || st.Traps != 1 {
		t.Errorf("trap in linked OSR tail: linked=%d side_exits=%d traps=%d, want linked > 0, no side exit, one trap (%+v)",
			st.Linked, st.SideExits, st.Traps, st)
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
				OSREntries:  goroutines * serial.OSREntries,
				Linked:      goroutines * serial.Linked,
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
