package interp

import (
	"fmt"
	"testing"

	"evolvevm/internal/bytecode"
)

// This file holds the golden tests of forward skips and hoisted global
// loads (DESIGN.md §10). Like handback_test.go, they read and reset the
// package-global trace counters and must not run in parallel.

// rleSrc is shaped like compress's run-length loop (rleblock): it reads
// a run-length-3 array and takes its "new run" arm only when the value
// changes, so the branch over the arm skips forward on two iterations
// out of three. The arm divides by i-ta, so it traps at iteration ta
// when the arm runs there, and multiplies the quotient by 3; the join
// divides by i-tb, so it traps at iteration tb, and multiplies again.
// The array is filled by a loop of fixed length, so n changes only the
// traced loop's cost.
const rleSrc = `
global n
global ta
global tb
global data
func main() locals i runs prev cur s
  const 12
  newarr
  gstore data
fill:
  load i
  const 12
  ige
  jnz filled
  gload data
  load i
  load i
  const 3
  idiv
  astore
  iinc i 1
  jmp fill
filled:
  const -1
  store prev
  const 0
  store i
loop:
  load i
  gload n
  ige
  jnz done
  gload data
  load i
  const 12
  imod
  aload
  store cur
  load cur
  load prev
  ieq
  jnz same
  load runs
  const 1000
  load i
  gload ta
  isub
  idiv
  const 3
  imul
  iadd
  store runs
  load cur
  store prev
same:
  load cur
  load i
  gload tb
  isub
  imod
  const 3
  imul
  load s
  iadd
  store s
  iinc i 1
  jmp loop
done:
  load runs
  load s
  iadd
  ret
end
`

func rleGlobals(n, ta, tb int64) map[string]bytecode.Value {
	return map[string]bytecode.Value{"n": bytecode.Int(n), "ta": bytecode.Int(ta), "tb": bytecode.Int(tb)}
}

// TestForwardSkipStateMapping sweeps the sample window across the
// run-length loop — plain, with a trap inside the skipped arm (at an
// iteration that runs the arm and at one that skips it), and with a trap
// after the join — and checks every virtual observable against the
// accounted loop. It then checks that both loops trace and that the
// run-length loop really skips: at most the two loops' own exits, and
// one entry per sample window.
func TestForwardSkipStateMapping(t *testing.T) {
	p := mustProg(t, rleSrc)
	noBatch := func(e *Engine) { e.NoBatching = true }
	period := snapRun(t, p, rleGlobals(6, -1, -1), noBatch).cycles - snapRun(t, p, rleGlobals(3, -1, -1), noBatch).cycles
	// Ten periods. Across strides 1..period+1 the window boundaries in
	// the loop's first two periods already fall at every offset of the
	// period, so a longer loop would only repeat them.
	const n = 30
	for _, tc := range []struct {
		name   string
		ta, tb int64
	}{
		{"plain", -1, -1},
		{"trap-in-arm", 3 * (n / 6), -1},
		{"trap-in-skipped-arm", 3*(n/6) + 1, -1},
		{"trap-after-join", -1, n/2 + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkStrideSweep(t, p, rleGlobals(n, tc.ta, tc.tb), period)
		})
	}

	const iters = 3000
	st := runCounts(t, p, rleGlobals(iters, -1, -1), func(e *Engine) { e.EagerRegTier = true })
	ref := snapRun(t, p, rleGlobals(iters, -1, -1), noBatch)
	var windows int64
	for _, s := range ref.samples {
		windows += s
	}
	if st.Built != 2 || st.HeadEntries == 0 {
		t.Errorf("run-length loop not traced: built=%d head_entries=%d, want both loops built and entered (%+v)",
			st.Built, st.HeadEntries, st)
	}
	if st.SideExits > 2 || st.HeadEntries > windows+2 {
		t.Errorf("run-length loop left its trace: side_exits=%d head_entries=%d over %d windows, want at most the loops' two exits and one entry per window (%+v)",
			st.SideExits, st.HeadEntries, windows, st)
	}
}

// hoistSrc runs three loops over one global g. The first reads and
// writes g, so its loads must not be hoisted; the second only reads g,
// so they must. The third reads g on its traced path and writes it in an
// arm off that path, every third iteration: its head trace hoists g, the
// write arm hands back to the engine loop, and the next head entry's
// prologue must load g again. n is read by every loop and written by
// none.
const hoistSrc = `
global n
global g
func main() locals i s
first:
  load i
  gload n
  ige
  jnz second0
  gload g
  load i
  iadd
  gstore g
  iinc i 1
  jmp first
second0:
  const 0
  store i
second:
  load i
  gload n
  ige
  jnz third0
  load s
  gload g
  load i
  ixor
  iadd
  store s
  iinc i 1
  jmp second
third0:
  const 0
  store i
third:
  load i
  gload n
  ige
  jnz done
  load i
  const 3
  imod
  jz write
  load s
  gload g
  iadd
  store s
  iinc i 1
  jmp third
write:
  gload g
  const 5
  iadd
  gstore g
  iinc i 1
  jmp third
done:
  load s
  gload g
  iadd
  ret
end
`

// TestHoistedGlobals checks which global loads each loop's trace hoists
// into its prologue, then holds all three loops to the accounted loop
// across the trace ladder and a stride sweep.
func TestHoistedGlobals(t *testing.T) {
	p := mustProg(t, hoistSrc)
	nIdx, _ := p.GlobalIndex("n")
	gIdx, _ := p.GlobalIndex("g")
	tp := buildTracePlan(NewCode(p.Entry, p.Funcs[p.Entry], -1, BaselineScalePct))
	var heads []*trace
	for _, tr := range tp.tr {
		if tr != nil {
			heads = append(heads, tr)
		}
	}
	if len(heads) != 3 {
		t.Fatalf("built %d loop traces, want 3", len(heads))
	}
	for i, want := range []struct{ n, g bool }{{true, false}, {true, true}, {true, true}} {
		var hn, hg bool
		for _, h := range heads[i].hoist {
			hn = hn || int(h.g) == nIdx
			hg = hg || int(h.g) == gIdx
		}
		if hn != want.n || hg != want.g {
			t.Errorf("loop %d hoists n=%v g=%v, want n=%v g=%v", i+1, hn, hg, want.n, want.g)
		}
	}

	g := map[string]bytecode.Value{"n": bytecode.Int(40), "g": bytecode.Int(7)}
	checkTraceLadder(t, hoistSrc, g)
	for _, stride := range []int64{1, 7, 50, 97, 211} {
		ref := snapRun(t, p, g, func(e *Engine) { e.NoBatching = true; e.SampleStride = stride })
		for _, cfg := range traceConfigs {
			got := snapRun(t, p, g, func(e *Engine) { e.SampleStride = stride; cfg.configure(e) })
			snapIdentical(t, fmt.Sprintf("%s stride=%d", cfg.name, stride), ref, got)
		}
	}
}
