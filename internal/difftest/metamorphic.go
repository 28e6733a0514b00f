package difftest

import (
	"fmt"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/gc"
	"evolvevm/internal/interp"
	"evolvevm/internal/jit"
	"evolvevm/internal/opt"
)

// CheckPasses is the per-pass metamorphic harness: for every function of
// the program it applies the level's pass pipeline one pass at a time
// (cumulatively, exactly as opt.Optimize would), and after EACH pass that
// changed the code it re-verifies the function and re-runs the program
// with only that function swapped for its partially-optimized form,
// comparing against the unoptimized baseline on every input vector. When
// the full pipeline diverges, this pinpoints the first guilty pass rather
// than the pipeline as a whole.
func CheckPasses(g *Generated, level int, maxCycles int64) error {
	prog := g.Prog
	for fnIdx := range prog.Funcs {
		// Reference executions of the unmodified program, one per input.
		refs := make([]*Exec, len(g.Inputs))
		for k, input := range g.Inputs {
			ex, err := runPatched(prog, fnIdx, nil, maxCycles, g.NumericGlobals, input)
			if err != nil {
				return fmt.Errorf("seed %d: reference run: %w", g.Cfg.Seed, err)
			}
			refs[k] = ex
		}

		f := prog.Funcs[fnIdx].Clone()
		for _, pass := range opt.Pipeline(level) {
			changed := pass.Apply(prog, f)
			if err := bytecode.VerifyFunc(prog, f); err != nil {
				return fmt.Errorf("seed %d: pass %q (level %d) broke %s: %w",
					g.Cfg.Seed, pass.Name, level, prog.Funcs[fnIdx].Name, err)
			}
			if !changed {
				continue
			}
			for k, input := range g.Inputs {
				if refs[k].ResourceTrapped() {
					continue
				}
				got, err := runPatched(prog, fnIdx, f, maxCycles, g.NumericGlobals, input)
				if err != nil {
					return fmt.Errorf("seed %d: pass %q on %s: %w",
						g.Cfg.Seed, pass.Name, prog.Funcs[fnIdx].Name, err)
				}
				if got.ResourceTrapped() {
					continue
				}
				if err := Compare(refs[k], got); err != nil {
					return fmt.Errorf("seed %d input %d: pass %q miscompiled %s: %w",
						g.Cfg.Seed, k, pass.Name, prog.Funcs[fnIdx].Name, err)
				}
			}
		}
	}
	return nil
}

// runPatched executes prog at the baseline tier with function fnIdx
// replaced by patched (nil runs the program unmodified). The patched body
// runs at baseline per-op costs, so only its semantics — not its tier —
// differ from the reference.
func runPatched(prog *bytecode.Program, fnIdx int, patched *bytecode.Function,
	maxCycles int64, slots []int, input []bytecode.Value) (*Exec, error) {

	eng := interp.NewEngine(prog)
	if maxCycles > 0 {
		eng.MaxCycles = maxCycles
	}
	eng.GC = gc.Config{}
	for j, s := range slots {
		if j < len(input) {
			eng.Globals[s] = input[j]
		}
	}
	if patched != nil {
		codes := make([]*interp.Code, len(prog.Funcs))
		for i, fn := range prog.Funcs {
			body := fn
			if i == fnIdx {
				body = patched
			}
			codes[i] = interp.NewCode(i, body, jit.MinLevel, interp.BaselineScalePct)
		}
		eng.Provider = func(i int) *interp.Code { return codes[i] }
	}
	ex := &Exec{Level: jit.MinLevel}
	res, err := eng.Run()
	if err != nil {
		rerr, ok := err.(*interp.RuntimeError)
		if !ok {
			return nil, fmt.Errorf("difftest: non-runtime failure: %w", err)
		}
		ex.Trap = rerr.Msg
	}
	captureState(ex, eng, res)
	if lerr := ledgerCheck(ex, eng); lerr != nil {
		return nil, lerr
	}
	return ex, nil
}
