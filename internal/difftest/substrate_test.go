package difftest

import (
	"fmt"
	"reflect"
	"testing"

	"evolvevm/internal/aos"
	"evolvevm/internal/gc"
	"evolvevm/internal/interp"
	"evolvevm/internal/jit"
	"evolvevm/internal/vm"
)

// This file proves the host performance layer — superinstruction fusion,
// block-batched cycle accounting, and the cross-run code cache — is
// unobservable in virtual terms: every ledger, sample profile, trap, and
// heap cell is bit-identical with the substrate on, partially on, and off.
//
// Unlike the cross-tier oracle, these comparisons do NOT skip
// resource-trapped runs: a cycle-limit trap must fire at the identical
// instruction under every substrate mode, so trapped executions are
// compared bit-for-bit like completed ones.

// substrateMode is one named setting of the host-performance toggles.
type substrateMode struct {
	name string
	sub  interp.Substrate
}

// substrateModes enumerates the metamorphic ladder: the original
// per-instruction loop, batching without fusion, the full fused switch,
// and the register-converted trace tier (eager, entered from the first
// back-edge arrival), fused and unfused. "full" leaves traces on their
// production hotness gates, so it also covers mid-run promotion from the
// fused switch to the register form, with trace plans built inline and
// CAS-installed mid-run. The deopt row forces deoptimization back to
// the accounted loop after a single trace iteration, so every exit
// boundary's state mapping fires.
var substrateModes = []substrateMode{
	{"off", interp.Substrate{NoBatching: true}},
	{"batch-nofuse", interp.Substrate{NoFusion: true, NoRegTier: true}},
	{"full", interp.Substrate{}},
	{"reg", interp.Substrate{EagerRegTier: true}},
	{"reg-nofuse", interp.Substrate{EagerRegTier: true, NoFusion: true}},
	{"noreg", interp.Substrate{NoRegTier: true}},
	{"reg-deopt", interp.Substrate{EagerRegTier: true, ForcedDeopt: true}},
}

// configure installs the mode on an engine — the engine-level mirror of
// exec.RunInto.
func (m substrateMode) configure(e *interp.Engine) { e.Substrate = m.sub }

// execBitIdentical asserts two Execs agree on every observable: semantic
// state via Compare, plus every cycle ledger and the per-function sample
// profile.
func execBitIdentical(t *testing.T, ctx string, ref, got *Exec) {
	t.Helper()
	if err := Compare(ref, got); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if ref.Cycles != got.Cycles || ref.ExecCycles != got.ExecCycles ||
		ref.Work != got.Work || ref.CompileCycles != got.CompileCycles ||
		ref.GCCycles != got.GCCycles || ref.AllocCycles != got.AllocCycles {
		t.Fatalf("%s: ledger diverged:\nref: cycles=%d exec=%d work=%d compile=%d gc=%d alloc=%d\ngot: cycles=%d exec=%d work=%d compile=%d gc=%d alloc=%d",
			ctx, ref.Cycles, ref.ExecCycles, ref.Work, ref.CompileCycles, ref.GCCycles, ref.AllocCycles,
			got.Cycles, got.ExecCycles, got.Work, got.CompileCycles, got.GCCycles, got.AllocCycles)
	}
	if !reflect.DeepEqual(ref.FnSamples, got.FnSamples) {
		t.Fatalf("%s: sample profile diverged:\nref: %v\ngot: %v", ctx, ref.FnSamples, got.FnSamples)
	}
}

// TestSubstrateBitIdentical runs generated programs at every tier with
// the substrate off (reference), batched-unfused, and fully on, asserting
// bit-identical Execs — including runs that trap, resource limits
// included.
func TestSubstrateBitIdentical(t *testing.T) {
	n := int64(soakN(t) / 5) // 400 seeds in full mode, 20 under -short
	seeds := make([]int64, 0, n)
	if *seedFlag >= 0 {
		seeds = append(seeds, *seedFlag)
	} else {
		for s := int64(0); s < n; s++ {
			seeds = append(seeds, s)
		}
	}
	var checked int
	for _, seed := range seeds {
		g := genFor(seed)
		for k, input := range g.Inputs {
			for level := jit.MinLevel; level <= jit.MaxLevel; level++ {
				ref, err := RunTierConfigured(g.Prog, level, gc.Config{}, preCap,
					g.NumericGlobals, input, substrateModes[0].configure)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for _, mode := range substrateModes[1:] {
					got, err := RunTierConfigured(g.Prog, level, gc.Config{}, preCap,
						g.NumericGlobals, input, mode.configure)
					if err != nil {
						t.Fatalf("seed %d mode %s: %v", seed, mode.name, err)
					}
					ctx := fmt.Sprintf("seed %d input %d level %d mode %s", seed, k, level, mode.name)
					execBitIdentical(t, ctx, ref, got)
				}
				checked++
			}
		}
	}
	t.Logf("substrate: %d (seed, input, tier) executions bit-identical across %d modes",
		checked, len(substrateModes))
	if checked == 0 {
		t.Fatal("substrate soak checked zero runs")
	}
}

// TestSubstrateBitIdenticalGC reruns a corpus slice under both collectors
// with a tight heap budget: GC pause charges go through AddCycles, whose
// interaction with batched charging is exactly the subtle path the fast
// path's sample-window guard protects.
func TestSubstrateBitIdenticalGC(t *testing.T) {
	n := int64(soakN(t) / 10)
	if *seedFlag >= 0 {
		n = 0
	}
	cfgs := []gc.Config{
		{Policy: gc.MarkSweep, BudgetCells: 48},
		{Policy: gc.Copying, BudgetCells: 48},
	}
	var checked int
	for seed := int64(0); seed < n; seed++ {
		g := genFor(seed)
		for k, input := range g.Inputs {
			for _, cfg := range cfgs {
				for level := jit.MinLevel; level <= jit.MaxLevel; level++ {
					ref, err := RunTierConfigured(g.Prog, level, cfg, preCap,
						g.NumericGlobals, input, substrateModes[0].configure)
					if err != nil {
						t.Fatalf("seed %d gc=%s: %v", seed, cfg.Policy, err)
					}
					for _, mode := range substrateModes[1:] {
						got, err := RunTierConfigured(g.Prog, level, cfg, preCap,
							g.NumericGlobals, input, mode.configure)
						if err != nil {
							t.Fatalf("seed %d gc=%s mode %s: %v", seed, cfg.Policy, mode.name, err)
						}
						ctx := fmt.Sprintf("seed %d input %d gc=%s level %d mode %s",
							seed, k, cfg.Policy, level, mode.name)
						execBitIdentical(t, ctx, ref, got)
					}
					checked++
				}
			}
		}
	}
	t.Logf("substrate+gc: %d executions bit-identical", checked)
	if n > 0 && checked == 0 {
		t.Fatal("substrate gc soak checked zero runs")
	}
}

// machineState is everything a harness observes from one vm.Machine run.
type machineState struct {
	ex             *Exec
	totalCycles    int64
	compileCycles  int64
	overheadCycles int64
	recompilations int
	samples        []int64
	levels         []int
}

func runMachine(t *testing.T, g *Generated, seed int64, configure func(*vm.Machine)) *machineState {
	t.Helper()
	m := vm.New(g.Prog, jit.DefaultConfig(), aos.NewReactive())
	m.Engine.MaxCycles = preCap
	for j, s := range g.NumericGlobals {
		if j < len(g.Inputs[0]) {
			m.Engine.Globals[s] = g.Inputs[0][j]
		}
	}
	if configure != nil {
		configure(m)
	}
	st := &machineState{ex: &Exec{}}
	res, err := m.Run()
	if err != nil {
		re, ok := err.(*interp.RuntimeError)
		if !ok {
			t.Fatalf("seed %d: %v", seed, err)
		}
		st.ex.Trap = re.Msg
	}
	captureState(st.ex, m.Engine, res)
	if lerr := m.LedgerError(); lerr != nil {
		t.Fatalf("seed %d: %v", seed, lerr)
	}
	st.totalCycles = m.TotalCycles()
	st.compileCycles = m.CompileCycles
	st.overheadCycles = m.OverheadCycles
	st.recompilations = m.Recompilations
	st.samples = append([]int64(nil), m.Samples...)
	st.levels = m.Levels()
	return st
}

// TestSubstrateMachine drives the full vm.Machine with the reactive AOS
// controller — mid-run recompilation, sample-triggered compiles, the
// whole feedback loop — with the substrate on vs off, including the
// cross-run code cache, and asserts the machines are indistinguishable:
// same result, traps, cycle ledgers, per-function samples, and final
// compilation levels. The shared cache persists across all seeds, so
// later iterations exercise genuine cross-run cache hits.
func TestSubstrateMachine(t *testing.T) {
	n := int64(soakN(t) / 10)
	seeds := make([]int64, 0, n)
	if *seedFlag >= 0 {
		seeds = append(seeds, *seedFlag)
	} else {
		for s := int64(0); s < n; s++ {
			seeds = append(seeds, s)
		}
	}
	cache := jit.NewCache()
	var checked int
	for _, seed := range seeds {
		g := genFor(seed)
		if len(g.Inputs) == 0 {
			continue
		}
		ref := runMachine(t, g, seed, func(m *vm.Machine) {
			m.Engine.NoBatching = true
		})
		full := runMachine(t, g, seed, func(m *vm.Machine) {
			m.Compiler.UseShared(cache)
		})
		// Second cached run of the same program: every compile must now be
		// a shared-cache hit, with identical virtual charges.
		again := runMachine(t, g, seed, func(m *vm.Machine) {
			m.Compiler.UseShared(cache)
		})
		for _, got := range []*machineState{full, again} {
			ctx := fmt.Sprintf("seed %d", seed)
			execBitIdentical(t, ctx, ref.ex, got.ex)
			if ref.totalCycles != got.totalCycles || ref.compileCycles != got.compileCycles ||
				ref.overheadCycles != got.overheadCycles || ref.recompilations != got.recompilations {
				t.Fatalf("%s: machine ledger diverged: ref total=%d compile=%d overhead=%d recomp=%d, got total=%d compile=%d overhead=%d recomp=%d",
					ctx, ref.totalCycles, ref.compileCycles, ref.overheadCycles, ref.recompilations,
					got.totalCycles, got.compileCycles, got.overheadCycles, got.recompilations)
			}
			if !reflect.DeepEqual(ref.samples, got.samples) {
				t.Fatalf("%s: machine samples diverged: %v vs %v", ctx, ref.samples, got.samples)
			}
			if !reflect.DeepEqual(ref.levels, got.levels) {
				t.Fatalf("%s: final levels diverged: %v vs %v", ctx, ref.levels, got.levels)
			}
		}
		checked++
	}
	cs := cache.Stats()
	t.Logf("machine substrate: %d programs bit-identical; code cache %d hits / %d misses / %d entries",
		checked, cs.Hits, cs.Misses, cs.Entries)
	if checked == 0 {
		t.Fatal("machine substrate soak checked zero runs")
	}
	if *seedFlag < 0 && checked > 1 && cs.Hits == 0 {
		t.Error("cross-run code cache never hit across repeated runs")
	}
}
