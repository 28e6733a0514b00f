package interp

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"evolvevm/internal/bytecode"
)

// This file holds the golden state-mapping tests of the deopt machinery
// (DESIGN.md §12): every way of leaving a register trace — side exit,
// trap, forced deopt — must hand the accounted interpreter a
// machine state bit-identical to the one a pure per-instruction
// interpretation would have reached, and a loop that calls must stay off
// the register tier without changing anything observable. The tests
// compare complete engine snapshots (result, trap identity, clock,
// per-function ledgers, invocation counts, sample profile, output,
// globals) between a reference run with the whole substrate off and runs
// on the register tier, plain and under forced deopt.
//
// These tests read and reset the package-global trace counters, so they
// must not run in parallel with each other (they don't: no t.Parallel).

// engineSnap is everything observable about one finished engine run.
type engineSnap struct {
	result  bytecode.Value
	trap    string // "fn:pc:msg" or ""
	cycles  int64
	fnCyc   []int64
	work    []int64
	invokes []int64
	samples []int64
	output  []bytecode.Value
	globals []bytecode.Value
	halted  bool
}

// snapRun executes src with the given globals under configure and
// captures the full snapshot. Runtime traps are recorded, not fatal.
func snapRun(t *testing.T, p *bytecode.Program, globals map[string]bytecode.Value,
	configure func(*Engine)) *engineSnap {
	t.Helper()
	e := NewEngine(p)
	e.MaxCycles = 200_000_000
	samples := make([]int64, len(p.Funcs))
	e.OnSample = func(fnIdx int) { samples[fnIdx]++ }
	for k, v := range globals {
		if err := e.SetGlobal(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if configure != nil {
		configure(e)
	}
	res, err := e.Run()
	s := &engineSnap{
		result:  res,
		cycles:  e.Cycles,
		fnCyc:   append([]int64(nil), e.FnCycles...),
		work:    append([]int64(nil), e.Work...),
		invokes: append([]int64(nil), e.Invocations...),
		samples: samples,
		output:  append([]bytecode.Value(nil), e.Output...),
		globals: append([]bytecode.Value(nil), e.Globals...),
		halted:  e.Halted(),
	}
	if err != nil {
		var re *RuntimeError
		if !errors.As(err, &re) {
			t.Fatalf("non-runtime failure: %v", err)
		}
		s.trap = fmt.Sprintf("%s:%d:%s", re.Fn, re.PC, re.Msg)
	}
	return s
}

// snapIdentical asserts two snapshots are bit-identical in every field.
func snapIdentical(t *testing.T, ctx string, ref, got *engineSnap) {
	t.Helper()
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("%s: state diverged:\nref: trap=%q result=%+v cycles=%d fnCyc=%v work=%v inv=%v samples=%v out=%v halted=%v\ngot: trap=%q result=%+v cycles=%d fnCyc=%v work=%v inv=%v samples=%v out=%v halted=%v",
			ctx,
			ref.trap, ref.result, ref.cycles, ref.fnCyc, ref.work, ref.invokes, ref.samples, ref.output, ref.halted,
			got.trap, got.result, got.cycles, got.fnCyc, got.work, got.invokes, got.samples, got.output, got.halted)
	}
}

// traceConfigs is the ladder of trace-tier configurations every golden
// program is checked under, each against the substrate-off reference.
var traceConfigs = []struct {
	name      string
	configure func(*Engine)
}{
	{"reg", func(*Engine) {}},
	{"reg-deopt", func(e *Engine) { e.ForcedDeopt = true }},
}

func checkTraceLadder(t *testing.T, src string, globals map[string]bytecode.Value) {
	t.Helper()
	p := mustProg(t, src)
	ref := snapRun(t, p, globals, func(e *Engine) { e.NoBatching = true })
	for _, cfg := range traceConfigs {
		got := snapRun(t, p, globals, cfg.configure)
		snapIdentical(t, cfg.name, ref, got)
	}
}

// branchySrc is a traced loop with side exits at three distinct body
// offsets and three distinct symbolic-stack shapes at the exit point: one
// value pending mid-expression (jnz exita), a different pending value
// (jnz exitb), and an empty stack (jnz exitc). Globals a, b, c pick the
// iteration at which each exit fires (or never, when out of range), so
// sweeping them forces a side exit — and the rematerialization of the
// interpreter stack — at every exit offset and at every point of the
// iteration space. The exit blocks jump back to the loop head, where the
// trace is entered again.
const branchySrc = `
global n
global a
global b
global c
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
  load s
  load i
  iadd
  gload a
  load i
  ieq
  jnz exita
  const 3
  imul
  load i
  gload b
  ieq
  jnz exitb
  store s
  load i
  gload c
  ieq
  jnz exitc
  iinc i 1
  jmp loop
exita:
  pop
  load s
  const 1000
  iadd
  store s
  iinc i 1
  jmp loop
exitb:
  store s
  iinc i 1
  jmp loop
exitc:
  load s
  const 7
  iadd
  store s
  iinc i 1
  jmp loop
done:
  load s
  ret
end
`

// TestTraceSideExitStateMapping sweeps the side-exit iteration over the
// whole loop: for every (exit offset, firing iteration) pair the traced
// run must reconstruct the exact interpreter state — including the
// partially evaluated expression stack — and continue to the identical
// final snapshot.
func TestTraceSideExitStateMapping(t *testing.T) {
	const n = 12
	for which := 0; which < 3; which++ {
		for at := int64(0); at <= n; at++ { // n exits never fire: pure-loop case
			g := map[string]bytecode.Value{
				"n": bytecode.Int(n),
				"a": bytecode.Int(-1), "b": bytecode.Int(-1), "c": bytecode.Int(-1),
			}
			name := []string{"a", "b", "c"}[which]
			g[name] = bytecode.Int(at)
			t.Run(fmt.Sprintf("exit=%s@%d", name, at), func(t *testing.T) {
				checkTraceLadder(t, branchySrc, g)
			})
		}
	}
	// All three exits armed at interleaved iterations.
	checkTraceLadder(t, branchySrc, map[string]bytecode.Value{
		"n": bytecode.Int(20),
		"a": bytecode.Int(3), "b": bytecode.Int(7), "c": bytecode.Int(11),
	})
}

// divTrapSrc traps with division by zero inside the traced loop body at
// an input-chosen iteration; the trap pc, message, attributed function,
// and the exact clock at the fault must match the interpreter.
const divTrapSrc = `
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

// TestTraceTrapStateMapping forces a mid-trace trap at every iteration of
// the loop, including iteration 0 (trap before the first back edge) and
// the never-trapping case.
func TestTraceTrapStateMapping(t *testing.T) {
	const n = 8
	for d := int64(0); d <= n; d++ {
		t.Run(fmt.Sprintf("trap@%d", d), func(t *testing.T) {
			checkTraceLadder(t, divTrapSrc, map[string]bytecode.Value{
				"n": bytecode.Int(n), "d": bytecode.Int(d),
			})
		})
	}
	// d = n+5 never traps inside the loop.
	checkTraceLadder(t, divTrapSrc, map[string]bytecode.Value{
		"n": bytecode.Int(n), "d": bytecode.Int(n + 5),
	})
}

// callLoopSrc is the call-heavy shape: a hot loop whose body calls a
// small non-recursive callee every iteration. The CALL keeps the loop off
// the register tier, so it runs on the fused path.
const callLoopSrc = `
global n
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
  load s
  load i
  call leaf 1
  iadd
  store s
  iinc i 1
  jmp loop
done:
  load s
  ret
end
func leaf(x) locals y
  load x
  load x
  imul
  store y
  load y
  const 1
  iadd
  ret
end
`

// zeroArgCallSrc calls a zero-argument callee at an empty operand stack:
// the CALL is the first instruction of the loop body after the exit test.
const zeroArgCallSrc = `
global n
global k
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
  call leaf 0
  load s
  iadd
  store s
  iinc i 1
  jmp loop
done:
  load s
  ret
end
func leaf()
  gload k
  const 1
  iadd
  ret
end
`

// depthTrapSrc recurses to the edge of the call-depth budget and then
// runs a loop that calls, so the loop's first CALL traps on depth.
var depthTrapSrc = `
global n
func main() locals r
  const ` + fmt.Sprint(maxCallDepth-2) + `
  call down 1
  ret
end
func down(d) locals i s
  load d
  jz hot
  load d
  const 1
  isub
  call down 1
  ret
hot:
  const 0
  store s
  const 0
  store i
loop:
  load i
  gload n
  ige
  jnz done
  load s
  load i
  call leaf 1
  iadd
  store s
  iinc i 1
  jmp loop
done:
  load s
  ret
end
func leaf(x)
  load x
  const 1
  iadd
  ret
end
`

// TestCallLoopsStayOnFusedPath holds loops with a CALL on their path to
// the accounted loop under the trace ladder and a sample-stride sweep:
// the plain call loop, a callee whose code the Provider swaps mid-loop
// (the recompilation pattern), an OnInvoke hook that charges the clock
// (a controller's compile), and a call that traps on depth. Each loop
// must build no trace and record a "call" degradation: the CALL, the
// Provider fetch and the hook run between trace activations, on the
// fused path.
func TestCallLoopsStayOnFusedPath(t *testing.T) {
	// swapLeaf serves leaf's code through the Provider and swaps it for a
	// cheaper tier at leaf's 100th invocation. Each engine gets its own
	// swap state.
	swapLeaf := func(p *bytecode.Program) func(*Engine) {
		leafIdx, _ := p.FuncIndex("leaf")
		return func(e *Engine) {
			cur := NewCode(leafIdx, p.Funcs[leafIdx], -1, 100)
			fast := NewCode(leafIdx, p.Funcs[leafIdx], 2, 40)
			base := e.Provider
			e.Provider = func(fn int) *Code {
				if fn == leafIdx {
					return cur
				}
				return base(fn)
			}
			e.OnInvoke = func(fn int, count int64) {
				if fn == leafIdx && count == 100 {
					cur = fast
				}
			}
		}
	}
	chargeHook := func(p *bytecode.Program) func(*Engine) {
		leafIdx, _ := p.FuncIndex("leaf")
		return func(e *Engine) {
			e.OnInvoke = func(fn int, count int64) {
				if fn == leafIdx && count%50 == 0 {
					e.AddCycles(10_000) // deterministic "compile" charge
				}
			}
		}
	}
	// period is the cost of one call-loop iteration. Strides 1..period+1
	// over 2·(period+1) iterations put the window boundary at every offset
	// of the iteration, the CALL and the callee included.
	noBatch := func(e *Engine) { e.NoBatching = true }
	n := func(n int64) map[string]bytecode.Value { return map[string]bytecode.Value{"n": bytecode.Int(n)} }
	cp := mustProg(t, callLoopSrc)
	period := snapRun(t, cp, n(4), noBatch).cycles - snapRun(t, cp, n(3), noBatch).cycles
	iters := 2*period + 2
	for _, tc := range []struct {
		name  string
		src   string
		g     map[string]bytecode.Value
		setup func(*bytecode.Program) func(*Engine)
		trap  string
	}{
		{"call", callLoopSrc, n(iters), nil, ""},
		{"code-swap", zeroArgCallSrc, map[string]bytecode.Value{"n": bytecode.Int(iters), "k": bytecode.Int(3)}, swapLeaf, ""},
		{"hook-charge", callLoopSrc, n(iters), chargeHook, ""},
		{"depth-trap", depthTrapSrc, n(10), nil, "call depth exceeds"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := mustProg(t, tc.src)
			with := func(stride int64, cfg func(*Engine)) func(*Engine) {
				return func(e *Engine) {
					if stride > 0 {
						e.SampleStride = stride
					}
					if tc.setup != nil {
						tc.setup(p)(e)
					}
					cfg(e)
				}
			}
			// Stride 0 keeps the default: the ladder itself.
			for stride := int64(0); stride <= period+1; stride++ {
				ref := snapRun(t, p, tc.g, with(stride, noBatch))
				if !strings.Contains(ref.trap, tc.trap) || (tc.trap == "") != (ref.trap == "") {
					t.Fatalf("stride %d: reference trap %q, want %q", stride, ref.trap, tc.trap)
				}
				for _, cfg := range traceConfigs {
					got := snapRun(t, p, tc.g, with(stride, cfg.configure))
					snapIdentical(t, fmt.Sprintf("%s stride=%d", cfg.name, stride), ref, got)
				}
			}
			st := runCounts(t, p, tc.g, with(0, func(*Engine) {}))
			if st.Built != 0 || st.HeadEntries != 0 || st.Degrade["call"] == 0 {
				t.Errorf("call loop: built=%d head_entries=%d degrade[call]=%d, want no trace and a call degradation (%+v)",
					st.Built, st.HeadEntries, st.Degrade["call"], st)
			}
		})
	}
}

// leafLoopSrc is callLoopSrc with leaf's body written into the loop, so
// the whole loop runs in the register tier.
const leafLoopSrc = `
global n
func main() locals i s y
  const 0
  store s
  const 0
  store i
loop:
  load i
  gload n
  ige
  jnz done
  load s
  load i
  load i
  imul
  store y
  load y
  const 1
  iadd
  iadd
  store s
  iinc i 1
  jmp loop
done:
  load s
  ret
end
`

// TestStressDeoptCounts proves ForcedDeopt actually exercises the
// deopt boundary: every trace execution hands control back after one
// iteration.
func TestStressDeoptCounts(t *testing.T) {
	p := mustProg(t, leafLoopSrc)
	g := map[string]bytecode.Value{"n": bytecode.Int(200)}
	ref := snapRun(t, p, g, func(e *Engine) { e.NoBatching = true })
	ResetTraceStats()
	got := snapRun(t, p, g, func(e *Engine) { e.ForcedDeopt = true })
	snapIdentical(t, "stress-deopt", ref, got)
	st := ReadTraceStats()
	if st.Built == 0 || st.HeadEntries == 0 {
		t.Errorf("loop never ran on trace: %+v", st)
	}
	if st.Deopts == 0 {
		t.Errorf("ForcedDeopt recorded no deopts: %+v", st)
	}
}
