package programs

import (
	"math/rand"
	"slices"
	"testing"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/interp"
	"evolvevm/internal/opt"
	"evolvevm/internal/xicl"
)

func TestSuiteComplete(t *testing.T) {
	names := map[string]bool{}
	for _, b := range All() {
		names[b.Name] = true
	}
	for _, want := range []string{
		"compress", "db", "mtrt", "antlr", "bloat", "fop",
		"euler", "moldyn", "montecarlo", "search", "raytracer",
	} {
		if !names[want] {
			t.Errorf("suite missing %s", want)
		}
	}
	if len(names) != 11 {
		t.Errorf("suite has %d benchmarks, want 11", len(names))
	}
	if ByName("mtrt") == nil || ByName("nope") != nil {
		t.Error("ByName lookup broken")
	}
}

func TestAllBenchmarksAssemble(t *testing.T) {
	for _, b := range append(All(), Extensions()...) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			prog, err := b.Program()
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			if prog.NumInstrs() < 30 {
				t.Errorf("suspiciously small program: %d instrs", prog.NumInstrs())
			}
			if _, err := b.ParsedSpec(); err != nil {
				t.Fatalf("spec: %v", err)
			}
			if _, err := b.Registry(); err != nil {
				t.Fatalf("registry: %v", err)
			}
		})
	}
}

func TestAllBenchmarksRunAndTranslate(t *testing.T) {
	for _, b := range append(All(), Extensions()...) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			prog, err := b.Program()
			if err != nil {
				t.Fatal(err)
			}
			spec, err := b.ParsedSpec()
			if err != nil {
				t.Fatal(err)
			}
			reg, err := b.Registry()
			if err != nil {
				t.Fatal(err)
			}
			inputs := b.GenInputs(rand.New(rand.NewSource(42)), 4)
			if len(inputs) == 0 {
				t.Fatal("no inputs generated")
			}
			var shape []string
			for _, in := range inputs {
				// XICL translation must succeed with a stable shape.
				tr := xicl.NewTranslator(spec, reg, in.Files)
				vec, err := tr.BuildFVector(in.Args)
				if err != nil {
					t.Fatalf("%s: translate: %v", in.ID, err)
				}
				if shape == nil {
					shape = vec.Names()
				} else {
					names := vec.Names()
					if len(names) != len(shape) {
						t.Fatalf("%s: vector shape changed: %v vs %v", in.ID, names, shape)
					}
					for i := range names {
						if names[i] != shape[i] {
							t.Fatalf("%s: feature %d named %s, want %s", in.ID, i, names[i], shape[i])
						}
					}
				}

				// The program must run and be level-invariant.
				e := interp.NewEngine(prog)
				if err := in.Setup(e); err != nil {
					t.Fatalf("%s: setup: %v", in.ID, err)
				}
				base, err := e.Run()
				if err != nil {
					t.Fatalf("%s: baseline run: %v", in.ID, err)
				}

				e2 := interp.NewEngine(prog)
				if err := in.Setup(e2); err != nil {
					t.Fatal(err)
				}
				codes := make([]*interp.Code, len(prog.Funcs))
				for idx := range prog.Funcs {
					g, _, err := opt.Optimize(prog, idx, 2)
					if err != nil {
						t.Fatalf("%s: optimize %s: %v", in.ID, prog.Funcs[idx].Name, err)
					}
					codes[idx] = interp.NewCode(idx, g, 2, 28)
				}
				e2.Provider = func(fn int) *interp.Code { return codes[fn] }
				o2, err := e2.Run()
				if err != nil {
					t.Fatalf("%s: O2 run: %v", in.ID, err)
				}
				if !base.Equal(o2) {
					t.Errorf("%s: O2 result %v != baseline %v", in.ID, o2, base)
				}
				if e2.Cycles >= e.Cycles {
					t.Errorf("%s: O2 cycles %d >= baseline %d", in.ID, e2.Cycles, e.Cycles)
				}
				t.Logf("%s: baseline=%d cycles, O2=%d cycles (%.2fx)",
					in.ID, e.Cycles, e2.Cycles, float64(e.Cycles)/float64(e2.Cycles))
			}
		})
	}
}

func TestCorpusDeterministic(t *testing.T) {
	for _, b := range All() {
		a := b.GenInputs(rand.New(rand.NewSource(9)), 5)
		c := b.GenInputs(rand.New(rand.NewSource(9)), 5)
		if len(a) != len(c) {
			t.Fatalf("%s: nondeterministic corpus size", b.Name)
		}
		for i := range a {
			if a[i].ID != c[i].ID {
				t.Errorf("%s: input %d IDs differ: %s vs %s", b.Name, i, a[i].ID, c[i].ID)
			}
		}
	}
}

func TestWorkScalesWithInput(t *testing.T) {
	// Every benchmark must show substantial input-driven variation in
	// baseline running time — the property the paper's study requires.
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			prog, err := b.Program()
			if err != nil {
				t.Fatal(err)
			}
			inputs := b.GenInputs(rand.New(rand.NewSource(5)), 8)
			minC, maxC := int64(1<<62), int64(0)
			for _, in := range inputs {
				e := interp.NewEngine(prog)
				if err := in.Setup(e); err != nil {
					t.Fatal(err)
				}
				if _, err := e.Run(); err != nil {
					t.Fatalf("%s: %v", in.ID, err)
				}
				if e.Cycles < minC {
					minC = e.Cycles
				}
				if e.Cycles > maxC {
					maxC = e.Cycles
				}
			}
			if maxC < minC*2 {
				t.Errorf("cycle range [%d, %d] too narrow (want >= 2x spread)", minC, maxC)
			}
			t.Logf("cycles: min=%d max=%d spread=%.1fx", minC, maxC, float64(maxC)/float64(minC))
		})
	}
}

func TestSetupInstallsDeclaredGlobals(t *testing.T) {
	for _, b := range All() {
		prog, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		in := b.GenInputs(rand.New(rand.NewSource(2)), 1)[0]
		e := interp.NewEngine(prog)
		if err := in.Setup(e); err != nil {
			t.Fatalf("%s: setup references undeclared global: %v", b.Name, err)
		}
		_ = bytecode.Value{}
	}
}

// TestSetupsFillRecycledArrays: an input setup builds its arrays in the
// previous run's arrays, uncleared, so it must write every cell. Each
// input's setup runs on an engine whose spares hold a poison value in
// every cell and must install exactly what it installs on a fresh
// engine.
func TestSetupsFillRecycledArrays(t *testing.T) {
	poison := bytecode.Value{I: -7777, F: -7.5, Kind: bytecode.KFloat}
	for _, b := range append(All(), Extensions()...) {
		t.Run(b.Name, func(t *testing.T) {
			prog, err := b.Program()
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range b.GenInputs(rand.New(rand.NewSource(3)), 3) {
				fresh := interp.NewEngine(prog)
				if err := in.Setup(fresh); err != nil {
					t.Fatal(err)
				}
				e := interp.NewEngine(prog)
				if err := in.Setup(e); err != nil {
					t.Fatal(err)
				}
				for _, g := range e.Globals {
					if cells, err := e.Array(g); err == nil {
						for i := range cells {
							cells[i] = poison
						}
					}
				}
				e.Reset()
				if err := in.Setup(e); err != nil {
					t.Fatal(err)
				}
				for k, g := range fresh.Globals {
					want, werr := fresh.Array(g)
					got, gerr := e.Array(e.Globals[k])
					if (werr == nil) != (gerr == nil) || !slices.Equal(got, want) {
						t.Errorf("%s: global %s differs on a recycled heap", in.ID, prog.Globals[k])
					}
				}
			}
		})
	}
}
