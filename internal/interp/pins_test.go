package interp

import (
	"math"
	"slices"
	"strings"
	"testing"

	"evolvevm/internal/bytecode"
)

// This file holds the trap-parity tests of pinned array operands
// (DESIGN.md §10). A trace resolves each array register once per
// activation, after the hoisted globals, and its array ops index those
// pins; Engine.Array runs again only on a trap, for the message. A pin
// that fails — the register holds no live array, or the index lies
// outside it — must trap with the accounted loop's message, at its pc,
// with its ledgers and with the locals it holds there. A global rebound
// between two activations of one trace must be pinned again, and a loop
// that rebinds its array inside the iteration must degrade (reason
// array) and run identically on the fused path. Like the other trace
// tests, these read and reset the package-global trace counters and must
// not run in parallel.

// pinLoops are single loops whose head is pc 0, entered with every local
// zero, each built so that its trace holds one pinned array arm or fused
// form. PACK, the exit block, returns the locals packed in base 1000, and
// every array op that traps in a run below comes before the first local
// its iteration writes, so a run of the accounted loop stopped at the
// trapping iteration's bound test returns the locals of the trap.
var pinLoops = []struct {
	name   string
	form   rOp
	locals []string
	src    string
	runs   map[string]map[string]bytecode.Value // "not-array" runs rebind the global notArray names
}{
	{
		name: "aload", form: rALoad, locals: []string{"i", "s"},
		src: `
  gload n
  load i
  ile
  jnz done
  load s
  gload data
  load i
  aload
  iadd
  store s
  iinc i 1
  jmp loop`,
		runs: map[string]map[string]bytecode.Value{
			"index":     intGlobals("n", 13),
			"not-array": intGlobals("n", 12, "notArray", 1),
		},
	},
	{
		name: "astore", form: rAStore, locals: []string{"i", "s"},
		src: `
  load i
  gload n
  ige
  jnz done
  gload out
  load i
  gload k
  isub
  load s
  astore
  load s
  load i
  iadd
  store s
  iinc i 1
  jmp loop`,
		runs: map[string]map[string]bytecode.Value{
			"index-low":  intGlobals("n", 12, "k", 1),
			"index-high": intGlobals("n", 12, "k", -1),
			"not-array":  intGlobals("n", 12, "k", 0, "notArray", 2),
		},
	},
	{
		name: "alen", form: rALen, locals: []string{"i", "s"},
		src: `
  load i
  gload n
  ige
  jnz done
  load s
  gload data
  alen
  iadd
  store s
  iinc i 1
  jmp loop`,
		runs: map[string]map[string]bytecode.Value{
			"not-array": intGlobals("n", 12, "notArray", 1),
		},
	},
	{
		name: "bound-load", form: rxIGE_rALoad, locals: []string{"i", "s"},
		src: `
  load i
  gload n
  ige
  jnz done
  load s
  gload data
  load i
  aload
  iadd
  store s
  iinc i 1
  jmp loop`,
		runs: map[string]map[string]bytecode.Value{
			"index":     intGlobals("n", 13),
			"not-array": intGlobals("n", 12, "notArray", 1),
		},
	},
	{
		name: "load-compare", form: rALoad_rxIEQ, locals: []string{"i", "last"},
		src: `
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
  jnz done
  load i
  store last
  iinc i 1
  jmp loop`,
		runs: map[string]map[string]bytecode.Value{
			"index":     intGlobals("n", 13, "w", 15, "key", 99),
			"not-array": intGlobals("n", 12, "w", 7, "key", 99, "notArray", 1),
		},
	},
	{
		name: "sum-load", form: rIADD_rALoad, locals: []string{"i", "s"},
		src: `
  load i
  gload n
  ige
  jnz done
  load s
  gload data
  load i
  gload k
  iadd
  aload
  iadd
  store s
  iinc i 1
  jmp loop`,
		runs: map[string]map[string]bytecode.Value{
			"index":     intGlobals("n", 12, "k", 3),
			"not-array": intGlobals("n", 12, "k", 0, "notArray", 1),
		},
	},
	{
		name: "run-length", form: rALoad_rxIEQ_rInc_rMove, locals: []string{"i", "runs", "prev", "cur"},
		src: `
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
  iinc runs 1
  load cur
  store prev
same:
  iinc i 1
  jmp loop`,
		runs: map[string]map[string]bytecode.Value{
			"index":     intGlobals("n", 13, "w", 15),
			"not-array": intGlobals("n", 12, "w", 7, "notArray", 1),
		},
	},
	{
		name: "store-add", form: rAStore_rIADD, locals: []string{"i", "s", "acc"},
		src: `
  load i
  gload n
  ige
  jnz done
  gload out
  load i
  gload k
  isub
  load s
  astore
  load acc
  load s
  iadd
  store acc
  load s
  gload data
  load i
  aload
  iadd
  store s
  iinc i 1
  jmp loop`,
		runs: map[string]map[string]bytecode.Value{
			"index-low":  intGlobals("n", 12, "k", 1),
			"index-high": intGlobals("n", 12, "k", -1),
			"not-array":  intGlobals("n", 12, "k", 0, "notArray", 2),
		},
	},
	{
		name: "load-sub", form: rALoad_rISUB, locals: []string{"i", "s"},
		src: `
  gload n
  load i
  ile
  jnz done
  gload data
  load i
  aload
  gload k
  isub
  load s
  iadd
  store s
  iinc i 1
  jmp loop`,
		runs: map[string]map[string]bytecode.Value{
			"index":     intGlobals("n", 13, "k", 1),
			"not-array": intGlobals("n", 12, "k", 1, "notArray", 1),
		},
	},
}

// pinProgram assembles one pin loop: globals n, k, w and key, the arrays
// data and out, the loop at pc 0 and the PACK exit block.
func pinProgram(t *testing.T, locals []string, body string) *bytecode.Program {
	t.Helper()
	var pack strings.Builder
	for j, l := range locals {
		pack.WriteString("  load " + l + "\n")
		if j > 0 {
			pack.WriteString("  iadd\n")
		}
		if j < len(locals)-1 {
			pack.WriteString("  const 1000\n  imul\n")
		}
	}
	return mustProg(t, "global n\nglobal k\nglobal w\nglobal key\nglobal data\nglobal out\nglobal notArray\n"+
		"func main() locals "+strings.Join(locals, " ")+"\nloop:"+body+"\ndone:\n"+pack.String()+"  ret\nend\n")
}

// packLocals packs locals as the PACK block does.
func packLocals(locals []bytecode.Value) int64 {
	var v int64
	for _, l := range locals {
		v = v*1000 + l.I
	}
	return v
}

// withArrays returns a configuration hook that installs the pin loops'
// arrays on the engine — data holds the twelve values i/3, out twelve
// zeros — then applies cfg. The global notArray, when set, picks the
// array (1 data, 2 out) to replace with the integer 5.
func withArrays(t *testing.T, cfg func(*Engine)) func(*Engine) {
	return func(e *Engine) {
		arrays := make([]bytecode.Value, 2)
		for j := range arrays {
			ref, cells, err := e.NewArrayCells(12)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cells {
				cells[i] = bytecode.Int(int64(i / 3 * (1 - j)))
			}
			arrays[j] = ref
		}
		bad, _ := e.Global("notArray")
		for j, name := range []string{"data", "out"} {
			v := arrays[j]
			if bad.I == int64(j+1) {
				v = bytecode.Int(5)
			}
			if err := e.SetGlobal(name, v); err != nil {
				t.Fatal(err)
			}
		}
		if cfg != nil {
			cfg(e)
		}
	}
}

// trapLocals enters the trace of p's loop at pc 0 directly, from zero
// locals and with the globals of g and withArrays, and runs it to its
// trap. It returns the trap message and the locals the trap wrote back.
func trapLocals(t *testing.T, p *bytecode.Program, g map[string]bytecode.Value) (string, []bytecode.Value) {
	t.Helper()
	e := NewEngine(p)
	for k, v := range g {
		if err := e.SetGlobal(k, v); err != nil {
			t.Fatal(err)
		}
	}
	withArrays(t, nil)(e)
	e.nextSample = math.MaxInt64 / 2
	c := NewCode(p.Entry, p.Funcs[p.Entry], -1, BaselineScalePct)
	tp, _ := buildTracePlan(c)
	tr := tp.tr[0]
	if tr == nil {
		t.Fatal("the loop at pc 0 built no trace")
	}
	locals := make([]bytecode.Value, c.NLocals)
	var work, cyc int64
	_, _, _, msg := e.runTrace(tr, &runScratch{}, locals, 0, nil, &work, &cyc)
	if msg == "" {
		t.Fatal("the trace left without trapping")
	}
	return msg, locals
}

// TestPinTrapParity runs every pin loop into a failing pin: an index
// outside the array, on either side, and a hoisted global that holds an
// integer. The register tier must trap inside the trace and land on the
// accounted loop's message, pc, ledgers, globals and output, plain and
// under forced deopt, and write back the locals the accounted loop holds
// at the trap.
func TestPinTrapParity(t *testing.T) {
	for _, tc := range pinLoops {
		t.Run(tc.name, func(t *testing.T) {
			p := pinProgram(t, tc.locals, tc.src)
			var forms []rOp
			for _, tr := range planTraces(p) {
				for _, in := range tr.ins {
					forms = append(forms, in.op)
				}
			}
			if !slices.Contains(forms, tc.form) {
				t.Fatalf("the loop's trace %v holds no %v", forms, tc.form)
			}
			for name, g := range tc.runs {
				t.Run(name, func(t *testing.T) {
					ref := snapRun(t, p, g, withArrays(t, func(e *Engine) { e.NoBatching = true }))
					if ref.trap == "" {
						t.Fatal("the accounted loop does not trap")
					}
					for _, cfg := range traceConfigs {
						snapIdentical(t, cfg.name, ref, snapRun(t, p, g, withArrays(t, cfg.configure)))
					}
					if st := runCounts(t, p, g, withArrays(t, nil)); st.Traps != 1 {
						t.Errorf("the register tier took %d trace traps, want 1 (%+v)", st.Traps, st)
					}

					msg, locals := trapLocals(t, p, g)
					if !strings.HasSuffix(ref.trap, ":"+msg) {
						t.Errorf("trace trap %q, accounted %q", msg, ref.trap)
					}
					// The accounted loop stopped at the trapping
					// iteration's bound test holds the trap's locals.
					prefix := map[string]bytecode.Value{}
					for k, v := range g {
						prefix[k] = v
					}
					prefix["n"] = locals[0]
					want := snapRun(t, p, prefix, withArrays(t, func(e *Engine) { e.NoBatching = true }))
					if want.trap != "" || want.result.I != packLocals(locals) {
						t.Errorf("trap wrote back locals %v (packed %d), the accounted loop holds %d (trap %q)",
							locals, packLocals(locals), want.result.I, want.trap)
					}
				})
			}
		})
	}
}

// pinRebindSrc rebinds the array its loop reads between two activations
// of the loop's trace: at i = m a side exit runs an off-trace arm that
// points data (or the local a) at other and moves m out of reach, and
// the arm's jump back to the head enters the trace again, which must pin
// the new array. data and other hold the values i/3 and 100+i, so a
// stale pin changes the sum.
const pinRebindSrc = `
global n
global m
global data
global other
func main() locals a i s
  const 12
  newarr
  gstore data
  const 12
  newarr
  gstore other
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
  gload other
  load i
  load i
  const 100
  iadd
  astore
  iinc i 1
  jmp fill
filled:
  const 0
  store i
  gload data
  store a
loop:
  load i
  gload n
  ige
  jnz done
  load i
  gload m
  ieq
  jnz swap
  load s
  ARRAY
  load i
  aload
  iadd
  store s
  iinc i 1
  jmp loop
swap:
  gload other
  REBIND
  const -1
  gstore m
  jmp loop
done:
  load s
  ret
end
`

// TestPinsResolvedPerActivation checks that a trace pins its arrays again
// at every activation: a global and a local array rebound by an off-trace
// arm between two activations must be read from the new array.
func TestPinsResolvedPerActivation(t *testing.T) {
	for _, tc := range []struct{ name, array, rebind string }{
		{"global", "gload data", "gstore data"},
		{"local", "load a", "store a"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := strings.NewReplacer("ARRAY", tc.array, "REBIND", tc.rebind).Replace(pinRebindSrc)
			p := mustProg(t, src)
			g := intGlobals("n", 12, "m", 5)
			checkTraceLadder(t, src, g)
			ref := snapRun(t, p, g, func(e *Engine) { e.NoBatching = true })
			if want := int64(0 + 0 + 0 + 1 + 1 + 105 + 106 + 107 + 108 + 109 + 110 + 111); ref.result.I != want {
				t.Fatalf("the accounted loop sums %d, want %d", ref.result.I, want)
			}
			// The fill loop's entry, then the loop's first entry and its
			// re-entry after the swap.
			if st := runCounts(t, p, g, nil); st.HeadEntries != 3 || st.SideExits < 2 {
				t.Errorf("head_entries=%d side_exits=%d, want 3 and at least 2 (%+v)", st.HeadEntries, st.SideExits, st)
			}
		})
	}
}

// TestPinDegradesRebinding: a loop whose array operand the iteration
// itself may change — a local it stores, or a temporary such as a row of
// a two-level array — gets no trace (reason array) and runs on the fused
// path exactly as the accounted loop.
func TestPinDegradesRebinding(t *testing.T) {
	const src = `
global n
global rows
func main() locals i s a
  const 2
  newarr
  gstore rows
  gload rows
  const 0
  const 4
  newarr
  astore
  gload rows
  const 1
  const 4
  newarr
  astore
loop:
  load i
  gload n
  ige
  jnz done
  gload rows
  load i
  const 1
  iand
  aload
  LOAD
  load i
  const 3
  iand
  aload
  load s
  iadd
  store s
  iinc i 1
  jmp loop
done:
  load s
  ret
end
`
	for _, tc := range []struct{ name, load string }{
		{"stored-local", "store a\n  load a"},
		{"temporary", "nop"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := strings.ReplaceAll(src, "LOAD", tc.load)
			p := mustProg(t, src)
			ResetTraceStats()
			if ts := planTraces(p); len(ts) != 0 {
				t.Errorf("built %d traces, want none", len(ts))
			}
			if st := ReadTraceStats(); st.Degrade["array"] != 1 {
				t.Errorf("degradations %v, want array=1", st.Degrade)
			}
			checkTraceLadder(t, src, intGlobals("n", 9))
		})
	}
}
