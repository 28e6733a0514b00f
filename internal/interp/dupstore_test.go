package interp

import (
	"slices"
	"strings"
	"testing"

	"evolvevm/internal/bytecode"
)

// dupStoreSrc is shaped like compress's run-length loop after the
// optimizer's store/load peephole: "aload; dup; store cur; load prev;
// ieq" keeps the loaded value on the stack while storing it. SPILL is
// replaced by nothing, or by an IINC that overwrites cur while the
// DUP'd copy is still on the stack (the comparison must read the value
// before the increment); FIX undoes that increment before cur becomes
// prev.
const dupStoreSrc = `
global n
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
  dup
  store cur
  SPILL
  load prev
  ieq
  jnz same
  iinc runs 1
  load cur
  FIX
  store prev
same:
  load s
  load cur
  iadd
  store s
  iinc i 1
  jmp loop
done:
  load runs
  const 1000
  imul
  load s
  iadd
  ret
end
`

// TestDupStoreNoMove checks that storing a DUP'd register value
// retargets its producer at the local instead of moving into it, and
// that a later write to the local while the copy is still on the stack
// first spills the copy out of it. Moves are counted inside fused pairs
// too. Both loops are held to the accounted loop across a stride sweep.
func TestDupStoreNoMove(t *testing.T) {
	for _, tc := range []struct {
		name       string
		spill, fix string
		spills     int
	}{
		{"plain", "", "", 0},
		{"overwrite-while-copied", "iinc cur 7", "const 7\n  isub", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := strings.NewReplacer("SPILL", tc.spill, "FIX", tc.fix).Replace(dupStoreSrc)
			p := mustProg(t, src)
			tp, _ := buildTracePlan(NewCode(p.Entry, p.Funcs[p.Entry], -1, BaselineScalePct))
			var loop *trace
			for _, tr := range tp.tr {
				if tr != nil {
					loop = tr // the last head is the run-length loop
				}
			}
			if loop == nil {
				t.Fatal("built no trace for the run-length loop")
			}
			cur := uint8(slices.Index(p.Funcs[p.Entry].LocalNames, "cur"))
			into, spills := 0, 0
			for _, in := range unfuse(loop.ins) {
				switch {
				case in.op != rMove:
				case in.d == cur:
					into++
				case in.a == cur && int32(in.d) >= loop.nloc:
					spills++
				}
			}
			if into != 0 || spills != tc.spills {
				t.Errorf("run-length loop converts with %d moves into cur and %d spills of it, want 0 and %d", into, spills, tc.spills)
			}

			g := func(n int64) map[string]bytecode.Value {
				return map[string]bytecode.Value{"n": bytecode.Int(n)}
			}
			noBatch := func(e *Engine) { e.NoBatching = true }
			period := snapRun(t, p, g(6), noBatch).cycles - snapRun(t, p, g(3), noBatch).cycles
			checkStrideSweep(t, p, g(30), period)
		})
	}
}
