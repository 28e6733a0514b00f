package harness

import (
	"math/rand"
	"reflect"
	"testing"

	"evolvevm/internal/exec"
	"evolvevm/internal/programs"
)

// substrateVariant is one named setting of the host-performance toggles.
type substrateVariant struct {
	name string
	sub  exec.Substrate
}

// substrateVariants is the harness ladder.
var substrateVariants = []substrateVariant{
	{"off", exec.Substrate{NoCodeCache: true, NoBatching: true, NoRegTier: true}},
	{"noreg", exec.Substrate{NoRegTier: true}},
	{"deopt", exec.Substrate{ForcedDeopt: true}},
	{"full", exec.Substrate{}},
}

// runVariant executes one benchmark sequence under a scenario with the
// given substrate toggles, using a fresh runner (fresh Evolve/Rep state)
// but the same deterministic corpus and order.
func runVariant(t *testing.T, b *programs.Benchmark, scenario Scenario,
	v substrateVariant, corpus, runs int, seed int64) []*RunResult {
	t.Helper()
	r, err := NewRunner(b, corpus, seed)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	r.Substrate = v.sub
	order := r.Order(rand.New(rand.NewSource(seed+7)), runs)
	results, err := r.RunSequence(testCtx, scenario, order)
	if err != nil {
		t.Fatalf("%s under %s (%s): %v", b.Name, scenario, v.name, err)
	}
	return results
}

// sameRunResult asserts two runs of the same input are indistinguishable
// in every virtual observable the harness records.
func sameRunResult(t *testing.T, ctx string, ref, got *RunResult) {
	t.Helper()
	if ref.InputID != got.InputID {
		t.Fatalf("%s: order diverged: input %q vs %q", ctx, ref.InputID, got.InputID)
	}
	if ref.Result != got.Result {
		t.Fatalf("%s: result diverged: %+v vs %+v", ctx, ref.Result, got.Result)
	}
	if ref.Cycles != got.Cycles || ref.CompileCycles != got.CompileCycles ||
		ref.OverheadCycles != got.OverheadCycles || ref.Recompilations != got.Recompilations ||
		ref.TotalSamples != got.TotalSamples {
		t.Fatalf("%s: ledger diverged:\nref: cycles=%d compile=%d overhead=%d recomp=%d samples=%d\ngot: cycles=%d compile=%d overhead=%d recomp=%d samples=%d",
			ctx,
			ref.Cycles, ref.CompileCycles, ref.OverheadCycles, ref.Recompilations, ref.TotalSamples,
			got.Cycles, got.CompileCycles, got.OverheadCycles, got.Recompilations, got.TotalSamples)
	}
	if ref.Speedup != got.Speedup {
		t.Fatalf("%s: speedup diverged: %v vs %v", ctx, ref.Speedup, got.Speedup)
	}
	if !reflect.DeepEqual(ref.Levels, got.Levels) {
		t.Fatalf("%s: final levels diverged: %v vs %v", ctx, ref.Levels, got.Levels)
	}
	if !reflect.DeepEqual(ref.GCStats, got.GCStats) {
		t.Fatalf("%s: GC stats diverged: %+v vs %+v", ctx, ref.GCStats, got.GCStats)
	}
	if ref.FeatureCount != got.FeatureCount {
		t.Fatalf("%s: feature count diverged: %d vs %d", ctx, ref.FeatureCount, got.FeatureCount)
	}
}

// TestSubstrateBenchmarksBitIdentical runs every benchmark of the suite
// (plus the GC-selection extension) through Default, Rep, and Evolve
// sequences under every substrateVariants row — fully off, register tier
// disabled, forced deopt, and fully on (register traces from every
// Code's first frame and the cross-run code cache included) — and
// asserts the recorded RunResults are identical field for field. This is
// the harness-level counterpart of the difftest substrate soak: it covers
// the real benchmark programs, cross-run learning state, and the speedup
// bookkeeping.
func TestSubstrateBenchmarksBitIdentical(t *testing.T) {
	benches := programs.All()
	benches = append(benches, programs.Extensions()...)
	scenarios := []Scenario{ScenarioDefault, ScenarioRep, ScenarioEvolve}
	const (
		corpus = 5
		runs   = 8
		seed   = 11
	)
	for _, b := range benches {
		for _, scenario := range scenarios {
			ref := runVariant(t, b, scenario, substrateVariants[0], corpus, runs, seed)
			for _, v := range substrateVariants[1:] {
				got := runVariant(t, b, scenario, v, corpus, runs, seed)
				if len(got) != len(ref) {
					t.Fatalf("%s under %s (%s): %d results vs %d", b.Name, scenario, v.name, len(got), len(ref))
				}
				for i := range ref {
					ctx := b.Name + " under " + scenario.String() + " (" + v.name + ") run " + ref[i].InputID
					sameRunResult(t, ctx, ref[i], got[i])
				}
			}
		}
	}
	cs := CodeCacheStats()
	t.Logf("benchmark substrate: %d benchmarks × %d scenarios identical; code cache %d hits / %d misses / %d entries",
		len(benches), len(scenarios), cs.Hits, cs.Misses, cs.Entries)
	if cs.Hits == 0 {
		t.Error("cross-run code cache never hit during benchmark sequences")
	}
}
