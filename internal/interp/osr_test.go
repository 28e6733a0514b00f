package interp

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"evolvevm/internal/bytecode"
)

// This file holds the golden state-mapping tests of the OSR / deopt /
// call-inlining machinery (DESIGN.md §12): every way of leaving a
// register trace — plain side exit, callee side exit, trap inside an
// inlined callee, guard failure, depth trap, forced deopt — must hand the
// accounted interpreter a machine state bit-identical to the one a pure
// per-instruction interpretation would have reached. The tests compare
// complete engine snapshots (result, trap identity, clock, per-function
// ledgers, invocation counts, sample profile, output, globals) between a
// reference run with the whole substrate off and runs with traces, OSR,
// and inlining forced on.
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
	{"reg", func(e *Engine) { e.EagerRegTier = true }},
	{"reg-noosr", func(e *Engine) { e.EagerRegTier = true; e.NoOSR = true }},
	{"reg-deopt", func(e *Engine) { e.EagerRegTier = true; e.ForcedDeopt = true }},
	{"reg-noinline", func(e *Engine) { e.EagerRegTier = true; e.NoCallInline = true }},
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
// iteration space. The exit blocks jump back to the loop head, so under
// EagerRegTier the empty-stack exit target is also a mid-loop OSR entry.
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

// TestOSREntryCounted proves OSR entries actually fire on the branchy
// loop: the empty-stack exit block jumps back into the loop, so under
// EagerRegTier the engine must enter the register tier mid-loop.
func TestOSREntryCounted(t *testing.T) {
	p := mustProg(t, branchySrc)
	g := map[string]bytecode.Value{
		"n": bytecode.Int(10),
		"a": bytecode.Int(-1), "b": bytecode.Int(-1), "c": bytecode.Int(4),
	}
	ResetTraceStats()
	ref := snapRun(t, p, g, func(e *Engine) { e.NoBatching = true })
	got := snapRun(t, p, g, func(e *Engine) { e.EagerRegTier = true })
	snapIdentical(t, "eager-osr", ref, got)
	st := ReadTraceStats()
	if st.OSREntries == 0 {
		t.Errorf("no OSR entries recorded: %+v", st)
	}
	if st.SideExits == 0 {
		t.Errorf("no side exits recorded: %+v", st)
	}
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
// small non-recursive callee every iteration. With inlining enabled the
// whole loop — CALL included — must run in the register tier.
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

// TestCallInliningRunsInRegisterTier is the acceptance gate of the
// inlining work: for the call-heavy shape, trace building must not
// degrade at the CALL (the "call" degradation counter stays zero), the
// call site must be inlined, and every virtual observable — invocation
// counts and per-callee cycle ledgers included — must be bit-identical
// to pure interpretation.
func TestCallInliningRunsInRegisterTier(t *testing.T) {
	p := mustProg(t, callLoopSrc)
	g := map[string]bytecode.Value{"n": bytecode.Int(500)}
	ref := snapRun(t, p, g, func(e *Engine) { e.NoBatching = true })

	ResetTraceStats()
	got := snapRun(t, p, g, func(e *Engine) { e.EagerRegTier = true })
	snapIdentical(t, "inline", ref, got)
	st := ReadTraceStats()
	if st.Degrade["call"] != 0 {
		t.Errorf("call-heavy loop degraded at CALL %d times; want 0 (stats %+v)", st.Degrade["call"], st)
	}
	if st.Built == 0 {
		t.Errorf("no traces built: %+v", st)
	}
	if st.InlinedCalls == 0 {
		t.Errorf("no inlined calls executed: %+v", st)
	}

	// Same program with inlining refused: the loop degrades at the CALL.
	ResetTraceStats()
	got = snapRun(t, p, g, func(e *Engine) { e.EagerRegTier = true; e.NoCallInline = true })
	snapIdentical(t, "noinline", ref, got)
	st = ReadTraceStats()
	if st.Degrade["call"] == 0 {
		t.Errorf("inlining disabled but no call degradation recorded: %+v", st)
	}

	// Full ladder for good measure (OSR, stress deopt, ...).
	checkTraceLadder(t, callLoopSrc, g)
}

// zeroArgCallSrc calls a zero-argument callee at an empty operand stack,
// so the inline guard's exit resumes at the CALL with nothing to
// rematerialize — the shape where a trace entered at that CALL would fail
// the same guard again forever.
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

// TestInlineGuardFailureDeopts swaps the callee's code mid-run — the
// recompilation pattern — so the inline guard's fingerprint check fails
// and the trace must side-exit at the CALL and replay it through the
// interpreter, which then serves the new code. Reference and traced runs
// apply the identical swap, so every observable must still match. The
// zero-argument shape hangs if any trace may start at the CALL.
func TestInlineGuardFailureDeopts(t *testing.T) {
	checkGuardFailure(t, callLoopSrc, map[string]bytecode.Value{"n": bytecode.Int(400)})
	checkGuardFailure(t, zeroArgCallSrc, map[string]bytecode.Value{"n": bytecode.Int(400), "k": bytecode.Int(3)})
}

func checkGuardFailure(t *testing.T, src string, g map[string]bytecode.Value) {
	t.Helper()
	p := mustProg(t, src)
	leafIdx, ok := p.FuncIndex("leaf")
	if !ok {
		t.Fatal("no leaf function")
	}

	// The swapped-in code is semantically identical but at a different
	// tier (different costs), so its fingerprint — and the virtual clock
	// from the swap point on — legitimately differs from the original.
	withSwap := func(extra func(*Engine)) func(*Engine) {
		return func(e *Engine) {
			slow := NewCode(leafIdx, p.Funcs[leafIdx], -1, 100)
			fast := NewCode(leafIdx, p.Funcs[leafIdx], 2, 40)
			cur := slow
			base := e.Provider
			basePeek := e.PeekCode
			e.Provider = func(fn int) *Code {
				if fn == leafIdx {
					return cur
				}
				return base(fn)
			}
			e.PeekCode = func(fn int) *Code {
				if fn == leafIdx {
					return cur
				}
				return basePeek(fn)
			}
			e.OnInvoke = func(fn int, count int64) {
				if fn == leafIdx && count == 100 {
					cur = fast
				}
			}
			if extra != nil {
				extra(e)
			}
		}
	}

	ref := snapRun(t, p, g, withSwap(func(e *Engine) { e.NoBatching = true }))
	ResetTraceStats()
	got := snapRun(t, p, g, withSwap(func(e *Engine) { e.EagerRegTier = true }))
	snapIdentical(t, "guard-fail", ref, got)
	st := ReadTraceStats()
	if st.GuardFails == 0 {
		t.Errorf("code swap produced no inline guard failures: %+v", st)
	}
	if st.InlinedCalls == 0 {
		t.Errorf("no inlined calls before the swap: %+v", st)
	}
}

// TestInlineHookChargeDeopts installs an OnInvoke hook that charges the
// clock (the controller-recompile pattern): charges landing inside a
// trace's prepaid window force the entry deopt — the callee frame is
// materialized at pc 0 and the interpreter continues inside the call.
func TestInlineHookChargeDeopts(t *testing.T) {
	p := mustProg(t, callLoopSrc)
	g := map[string]bytecode.Value{"n": bytecode.Int(300)}
	leafIdx, ok := p.FuncIndex("leaf")
	if !ok {
		t.Fatal("no leaf function")
	}
	withHook := func(extra func(*Engine)) func(*Engine) {
		return func(e *Engine) {
			e.OnInvoke = func(fn int, count int64) {
				if fn == leafIdx && count%50 == 0 {
					e.AddCycles(10_000) // deterministic "compile" charge
				}
			}
			if extra != nil {
				extra(e)
			}
		}
	}
	ref := snapRun(t, p, g, withHook(func(e *Engine) { e.NoBatching = true }))
	ResetTraceStats()
	got := snapRun(t, p, g, withHook(func(e *Engine) { e.EagerRegTier = true }))
	snapIdentical(t, "hook-charge", ref, got)
	st := ReadTraceStats()
	if st.InlinedCalls == 0 {
		t.Errorf("no inlined calls executed under hook: %+v", st)
	}
}

// TestInlineDepthTrap drives the call-heavy loop at the very edge of the
// call-depth budget, so the inlined CALL's depth check must fire — with
// the exact trap identity (callee name, pc 0, message) and clock position
// (after the CALL charge, before the invocation count) the interpreter
// produces.
func TestInlineDepthTrap(t *testing.T) {
	src := `
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
	p := mustProg(t, src)
	g := map[string]bytecode.Value{"n": bytecode.Int(10)}
	ref := snapRun(t, p, g, func(e *Engine) { e.NoBatching = true })
	if !strings.Contains(ref.trap, "call depth exceeds") {
		t.Fatalf("reference did not depth-trap: trap=%q", ref.trap)
	}
	ResetTraceStats()
	got := snapRun(t, p, g, func(e *Engine) { e.EagerRegTier = true })
	snapIdentical(t, "depth-trap", ref, got)
}

// TestStressDeoptCounts proves ForcedDeopt actually exercises the
// deopt boundary: every non-OSR trace execution hands control back after
// one iteration.
func TestStressDeoptCounts(t *testing.T) {
	p := mustProg(t, callLoopSrc)
	g := map[string]bytecode.Value{"n": bytecode.Int(200)}
	ref := snapRun(t, p, g, func(e *Engine) { e.NoBatching = true })
	ResetTraceStats()
	got := snapRun(t, p, g, func(e *Engine) { e.EagerRegTier = true; e.ForcedDeopt = true })
	snapIdentical(t, "stress-deopt", ref, got)
	if st := ReadTraceStats(); st.Deopts == 0 {
		t.Errorf("ForcedDeopt recorded no deopts: %+v", st)
	}
}
