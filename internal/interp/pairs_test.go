package interp

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"evolvevm/internal/bytecode"
)

// This file holds the golden tests of fused pairs (DESIGN.md §10): every
// pair rule must fire on a loop built for it, and the fused forms must
// leave every virtual observable exactly where the unfused pair leaves
// it — at each exit of a fused compare, at each trap inside a fused
// form, and at forward skips that land on or next to a fused pair. Like
// deopt_test.go, these tests read and reset the package-global trace
// counters and must not run in parallel.

// fillData is the prologue of the array loops below: data holds the
// twelve values i/3, runs of three.
const fillData = `
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
  const 0
  store i
`

// pairRleSrc is compress's run-length loop unrolled twice, as the level-2
// optimizer unrolls it: each half compares the loaded value with the
// previous one and skips over the new-run arm when they are equal, so
// the skip lands on the increment that starts the next half. The load
// index is i&w: w = 7 repeats the first eight values every eight
// iterations, and w = 15 traps past the array's end. The loads trap
// through records 0 and 1 and the compares skip through exits 1 and 3,
// so a fused form that reads the wrong one of its two indexes diverges.
// ARM is the new-run arm's extra work, if any.
const pairRleSrc = `
global n
global w
global data
func main() locals i runs prev cur
` + fillData + `
  const -1
  store prev
loop:
  load i
  gload n
  ige
  jnz done
  gload data
  load i
  gload w
  iand
  aload
  store cur
  load cur
  load prev
  ieq
  jnz same
  ARM
  load cur
  store prev
same:
  iinc i 1
  load i
  gload n
  ige
  jnz done
  gload data
  load i
  gload w
  iand
  aload
  store cur
  load cur
  load prev
  ieq
  jnz same2
  ARM
  load cur
  store prev
same2:
  iinc i 1
  jmp loop
done:
  load runs
  load prev
  const 100
  imul
  iadd
  ret
end
`

// pairSumSrc is compress's summing loop unrolled twice: a bounds test
// followed by a load at the tested index, two adds, and the increment.
// n beyond 12 traps at the array's end. The iteration first leaves the
// loop at i = stop, so the bound tests exit through exits 1 and 2 while
// the loads trap through records 0 and 1.
const pairSumSrc = `
global n
global stop
global data
func main() locals i s
` + fillData + `
loop:
  load i
  gload stop
  ieq
  jnz done
  load i
  gload n
  ige
  jnz done
  load s
  gload data
  load i
  aload
  load i
  iadd
  iadd
  store s
  iinc i 1
  load i
  gload n
  ige
  jnz done
  load s
  gload data
  load i
  aload
  load i
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

// pairEvalSrc is search's evaluate loop unrolled twice: a test against
// a constant bound, a remainder and a quotient by constants each added
// into a local, and the increment. start picks which half's test exits.
const pairEvalSrc = `
global start
func main() locals i acc s
  gload start
  store i
  const 1000003
  store s
loop:
  load i
  const 40
  ige
  jnz done
  load s
  const 7
  imod
  load acc
  iadd
  store acc
  load s
  const 3
  idiv
  load i
  iadd
  store s
  iinc i 1
  load i
  const 40
  ige
  jnz done
  load s
  const 7
  imod
  load acc
  iadd
  store acc
  load s
  const 3
  idiv
  load i
  iadd
  store s
  iinc i 1
  jmp loop
done:
  load acc
  load s
  iadd
  ret
end
`

// pairFindSrc searches data for key: the loaded value's compare leaves
// the loop when it holds, and the miss path copies i before the
// increment. The load index is i&w, so w = 15 traps past the array's
// end. The load traps through record 0 and the compare exits through
// exit 1.
const pairFindSrc = `
global n
global w
global key
global data
func main() locals i last
` + fillData + `
loop:
  load i
  gload n
  ige
  jnz done
  gload data
  load i
  gload w
  iand
  aload
  gload key
  ieq
  jnz found
  load i
  store last
  iinc i 1
  jmp loop
found:
  load i
  const 1000
  imul
  ret
done:
  load last
  ret
end
`

// pairEndSkipSrc skips to the end of the iteration: on odd i the branch
// jumps over the increment of s to a block that emits no register
// instruction, so the skip lands on the rEnd closing the program, and
// the increment before it must not fuse with it. Both blocks carry an op
// that emits nothing, because a block of one op has no segment to trace.
const pairEndSkipSrc = `
global n
func main() locals i s
loop:
  load i
  gload n
  ige
  jnz done
  iinc i 1
  load i
  const 1
  iand
  jnz next
  load s
  pop
  iinc s 3
next:
  nop
  jmp loop
done:
  load s
  ret
end
`

// pairFluxSrc is euler's flux loop: a bound one below n, loads at i and
// at i+k, their sum divided by a constant, the quotient stored and added
// into a masked sum. k = 3 traps past the array's end at i = 9 in the
// load at the summed index.
const pairFluxSrc = `
global n
global k
global data
global out
func main() locals i acc v
` + fillData + `
  const 12
  newarr
  gstore out
loop:
  load i
  gload n
  const 1
  isub
  ige
  jnz done
  gload data
  load i
  aload
  gload data
  load i
  gload k
  iadd
  aload
  iadd
  const 4
  idiv
  store v
  gload out
  load i
  load v
  astore
  load acc
  load v
  iadd
  const 1048575
  iand
  store acc
  iinc i 1
  jmp loop
done:
  load acc
  ret
end
`

// pairForceSrc is moldyn's force loop: the loaded coordinate's distance
// d from xi, a zero test that skips the arm replacing a zero distance
// with 1, and a constant divided by d*d*c+1, added into acc. c = -1
// divides by zero wherever d is ±1: with xi = 2, first at i = 3.
const pairForceSrc = `
global n
global xi
global c
global data
func main() locals i acc d f
` + fillData + `
loop:
  load i
  gload n
  ige
  jnz done
  gload data
  load i
  aload
  gload xi
  isub
  store d
  load d
  jnz nonzero
  const 1
  store d
nonzero:
  const 1048576
  load d
  load d
  imul
  gload c
  imul
  const 1
  iadd
  idiv
  store f
  load acc
  load f
  iadd
  store acc
  iinc i 1
  jmp loop
done:
  load acc
  ret
end
`

// swapped returns src with block a replaced by b in both halves of a
// loop unrolled twice: the variants below reorder a fused form's instructions so that the
// pair of pairs it would join no longer matches, and the first-level
// forms stay in the trace.
func swapped(src, a, b string) string { return strings.Replace(src, a, b, 2) }

// The blocks the variants reorder.
const (
	rleCompare    = "  load cur\n  load prev\n  ieq\n"
	rleCompareRev = "  load prev\n  load cur\n  ieq\n"
	sumAdds       = "  aload\n  load i\n  iadd\n  iadd\n"
	sumAddsRev    = "  aload\n  iadd\n  load i\n  iadd\n"
	evalRem       = "  load s\n  const 7\n  imod\n  load acc\n  iadd\n  store acc\n"
	evalQuo       = "  load s\n  const 3\n  idiv\n  load i\n  iadd\n  store s\n"
)

// intGlobals builds a globals map from name/value pairs.
func intGlobals(kv ...any) map[string]bytecode.Value {
	g := map[string]bytecode.Value{}
	for k := 0; k < len(kv); k += 2 {
		g[kv[k].(string)] = bytecode.Int(int64(kv[k+1].(int)))
	}
	return g
}

// planTraces returns every trace of the entry function's plan.
func planTraces(p *bytecode.Program) []*trace {
	c := NewCode(p.Entry, p.Funcs[p.Entry], -1, BaselineScalePct)
	c.installTracePlan()
	tp := c.traces.Load()
	var ts []*trace
	for _, tr := range tp.tr {
		if tr != nil {
			ts = append(ts, tr)
		}
	}
	return ts
}

// TestFusedPairs runs loops that together fire every pair rule: the
// served loops' shapes fuse their pairs of pairs, and a variant of each
// with the instructions reordered keeps the first-level forms the pair of
// pairs would absorb. Each loop's traces must contain the listed fused
// forms, and each run — at the exits of the fused compares, at the traps
// inside fused array loads, and across the skips of the run-length loop
// — must match the accounted loop through the trace ladder and a stride
// sweep over one period of the loop's path.
func TestFusedPairs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		src   string
		fused []rOp
		// The cycles of period[0] minus those of period[1] are one
		// period of the loop's path.
		period [2]map[string]bytecode.Value
		runs   map[string]map[string]bytecode.Value
	}{
		{
			name:   "rle",
			src:    strings.ReplaceAll(pairRleSrc, "ARM", "iinc runs 1"),
			fused:  []rOp{rALoad_rxIEQ_rInc_rMove, rInc_rxIGE, rInc_rEnd},
			period: [2]map[string]bytecode.Value{intGlobals("n", 16, "w", 7), intGlobals("n", 8, "w", 7)},
			runs: map[string]map[string]bytecode.Value{
				"exit-first-half":   intGlobals("n", 60, "w", 7),
				"exit-fused-second": intGlobals("n", 61, "w", 7),
				"trap-in-aload":     intGlobals("n", 60, "w", 15),
			},
		},
		{
			name:   "rle-compare-reversed",
			src:    swapped(strings.ReplaceAll(pairRleSrc, "ARM", "iinc runs 1"), rleCompare, rleCompareRev),
			fused:  []rOp{rInc_rMove, rInc_rxIGE, rInc_rEnd},
			period: [2]map[string]bytecode.Value{intGlobals("n", 16, "w", 7), intGlobals("n", 8, "w", 7)},
			runs: map[string]map[string]bytecode.Value{
				"exit-first-half":   intGlobals("n", 60, "w", 7),
				"exit-fused-second": intGlobals("n", 61, "w", 7),
				"trap-in-aload":     intGlobals("n", 60, "w", 15),
			},
		},
		{
			name:   "sum",
			src:    pairSumSrc,
			fused:  []rOp{rxIGE_rALoad, rIADD_rIADD_rInc},
			period: [2]map[string]bytecode.Value{intGlobals("n", 4, "stop", -1), intGlobals("n", 2, "stop", -1)},
			runs: map[string]map[string]bytecode.Value{
				"exit-first-half":  intGlobals("n", 12, "stop", -1),
				"exit-second-half": intGlobals("n", 11, "stop", -1),
				"trap-in-aload":    intGlobals("n", 20, "stop", -1),
			},
		},
		{
			name:   "sum-adds-reversed",
			src:    swapped(pairSumSrc, sumAdds, sumAddsRev),
			fused:  []rOp{rxIGE_rALoad, rIADD_rInc},
			period: [2]map[string]bytecode.Value{intGlobals("n", 4, "stop", -1), intGlobals("n", 2, "stop", -1)},
			runs: map[string]map[string]bytecode.Value{
				"exit-first-half":  intGlobals("n", 12, "stop", -1),
				"exit-second-half": intGlobals("n", 11, "stop", -1),
				"trap-in-aload":    intGlobals("n", 20, "stop", -1),
			},
		},
		{
			name:   "eval",
			src:    pairEvalSrc,
			fused:  []rOp{rIMODk_rIADD_rIDIVk_rIADD, rInc_rxIGEi, rInc_rEnd},
			period: [2]map[string]bytecode.Value{intGlobals("start", 0), intGlobals("start", 2)},
			runs: map[string]map[string]bytecode.Value{
				"exit-first-half":   intGlobals("start", 0),
				"exit-fused-second": intGlobals("start", 1),
			},
		},
		{
			name:   "eval-quotient-first",
			src:    swapped(pairEvalSrc, evalRem+evalQuo, evalQuo+evalRem),
			fused:  []rOp{rIDIVk_rIADD, rIMODk_rIADD, rInc_rxIGEi, rInc_rEnd},
			period: [2]map[string]bytecode.Value{intGlobals("start", 0), intGlobals("start", 2)},
			runs: map[string]map[string]bytecode.Value{
				"exit-first-half":   intGlobals("start", 0),
				"exit-fused-second": intGlobals("start", 1),
			},
		},
		{
			name:   "find",
			src:    pairFindSrc,
			fused:  []rOp{rALoad_rxIEQ, rMove_rInc},
			period: [2]map[string]bytecode.Value{intGlobals("n", 4, "w", 7, "key", 99), intGlobals("n", 3, "w", 7, "key", 99)},
			runs: map[string]map[string]bytecode.Value{
				"exit-found":    intGlobals("n", 40, "w", 7, "key", 2),
				"run-out":       intGlobals("n", 40, "w", 7, "key", 99),
				"trap-in-aload": intGlobals("n", 40, "w", 15, "key", 99),
			},
		},
		{
			name:   "flux",
			src:    pairFluxSrc,
			fused:  []rOp{rISUBi_rxIGE, rIADD_rALoad, rIADD_rIDIVk, rAStore_rIADD, rInc_rEnd},
			period: [2]map[string]bytecode.Value{intGlobals("n", 3, "k", 0), intGlobals("n", 2, "k", 0)},
			runs: map[string]map[string]bytecode.Value{
				"run-out":       intGlobals("n", 12, "k", 0),
				"trap-in-aload": intGlobals("n", 12, "k", 3),
			},
		},
		{
			name:   "force",
			src:    pairForceSrc,
			fused:  []rOp{rxIGE_rALoad, rISUB_rBrTrue, rIADDi_rLoadI, rIDIV_rIADD, rInc_rEnd},
			period: [2]map[string]bytecode.Value{intGlobals("n", 3, "xi", 1, "c", 1), intGlobals("n", 2, "xi", 1, "c", 1)},
			runs: map[string]map[string]bytecode.Value{
				"run-out":      intGlobals("n", 12, "xi", 0, "c", 1),
				"trap-in-idiv": intGlobals("n", 12, "xi", 2, "c", -1),
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := mustProg(t, tc.src)
			have := map[rOp]bool{}
			var progs [][]rOp
			for _, tr := range planTraces(p) {
				var ops []rOp
				for _, in := range tr.ins {
					have[in.op] = true
					ops = append(ops, in.op)
				}
				progs = append(progs, ops)
			}
			for _, op := range tc.fused {
				if !have[op] {
					t.Errorf("no trace contains fused form %v; traces %v", op, progs)
				}
			}

			noBatch := func(e *Engine) { e.NoBatching = true }
			period := snapRun(t, p, tc.period[0], noBatch).cycles - snapRun(t, p, tc.period[1], noBatch).cycles
			for name, g := range tc.runs {
				t.Run(name, func(t *testing.T) {
					checkTraceLadder(t, tc.src, g)
					checkStrideSweep(t, p, g, period)
				})
			}
		})
	}
}

// TestFusedPairSkips checks the skip rule of the fusion peephole: a skip
// may land on a fused pair, which it enters at its first instruction, but
// never between the two instructions of one. In the run-length loop
// whose new-run arm only copies the value, the arm's move and the
// increment the skip lands on match the rMove→rInc rule, and must stay
// two instructions; a skip to the end of the iteration keeps the rEnd it
// lands on apart from the rInc before it.
func TestFusedPairSkips(t *testing.T) {
	rle := func(arm string) string { return strings.ReplaceAll(pairRleSrc, "ARM", arm) }
	rleG := func(n int) map[string]bytecode.Value { return intGlobals("n", n, "w", 7) }
	for _, tc := range []struct {
		name, src string
		g         func(n int) map[string]bytecode.Value
		period    int // iterations per period of the loop's path
		// intoPair: a skip lands on a fused form; kept: a skip lands on
		// the second instruction of a pair a rule matches, left unfused.
		intoPair, kept bool
	}{
		{"lands-on-pair", rle("iinc runs 1"), rleG, 8, true, false},
		{"lands-inside-pair", rle(""), rleG, 8, true, true},
		{"lands-on-end", pairEndSkipSrc, func(n int) map[string]bytecode.Value { return intGlobals("n", n) }, 2, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := mustProg(t, tc.src)
			var loop *trace // the last head: the fill loop's comes first
			for _, tr := range planTraces(p) {
				loop = tr
			}
			if loop == nil {
				t.Fatal("the run-length loop built no trace")
			}
			intoPair, kept := false, false
			for _, ex := range loop.exits {
				if ex.to == 0 {
					continue
				}
				// The instruction the skip lands on, unfused: its first
				// half when it is a fused form.
				land := loop.ins[ex.to]
				if first, _, ok := splitPair(land); ok {
					intoPair, land = true, first
				}
				if _, ok := fusePair(&loop.ins[ex.to-1], &land); ok {
					kept = true
				}
			}
			if intoPair != tc.intoPair || kept != tc.kept {
				t.Errorf("skips land on a fused pair: %v, between a pair a rule matches: %v; want %v, %v", intoPair, kept, tc.intoPair, tc.kept)
			}
			for _, in := range loop.ins {
				if in.op == rMove_rInc {
					t.Error("the arm's move fused with the increment a skip lands on")
				}
			}
			noBatch := func(e *Engine) { e.NoBatching = true }
			period := snapRun(t, p, tc.g(2*tc.period), noBatch).cycles - snapRun(t, p, tc.g(tc.period), noBatch).cycles
			checkStrideSweep(t, p, tc.g(61), period)
		})
	}
}

// TestPairSplitInvertsFuse checks the generated converter half of every
// fused form: splitting a fused instruction and fusing the two parts
// again gives it back, and the parts match a rule.
func TestPairSplitInvertsFuse(t *testing.T) {
	forms := 0
	for op := rOp(0); op < rNumOps; op++ {
		f := rins{op: op, d: 1, a: 2, b: 3, c: 4, e: 8, x: 5, imm: 6, y: 7}
		p, q, ok := splitPair(f)
		if !ok {
			continue
		}
		forms++
		g, ok := fusePair(&p, &q)
		if !ok {
			t.Errorf("fused form %d splits into %+v, %+v, which no rule fuses", op, p, q)
			continue
		}
		p2, q2, _ := splitPair(g)
		if g.op != op || p2 != p || q2 != q {
			t.Errorf("fused form %d: split and fused again gives %+v", op, g)
		}
	}
	if forms == 0 {
		t.Fatal("no fused forms generated")
	}
}

// TestRegisterOpcodeNames checks the generated names: every register
// opcode has one, and no two share it.
func TestRegisterOpcodeNames(t *testing.T) {
	seen := map[string]rOp{}
	for op := rOp(0); op < rNumOps; op++ {
		name := op.String()
		if name == "" {
			t.Errorf("register opcode %d has no name", uint8(op))
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("register opcodes %d and %d are both named %s", uint8(prev), uint8(op), name)
		}
		seen[name] = op
	}
	if got := rNumOps.String(); got != fmt.Sprintf("rOp(%d)", uint8(rNumOps)) {
		t.Errorf("the opcode past the last is named %q", got)
	}
}

// TestRinsIs16Bytes: the fifth register slot of the pairs of fused pairs
// lives in what was padding, so a register instruction stays 16 bytes and
// a trace program four instructions per cache line.
func TestRinsIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(rins{}); n != 16 {
		t.Errorf("rins is %d bytes, want 16", n)
	}
}
