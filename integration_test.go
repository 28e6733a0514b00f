package evolvevm

import (
	"context"
	"io"
	"math/rand"
	"testing"

	"evolvevm/internal/harness"
	"evolvevm/internal/programs"
)

// testCtx is the background context shared by this package's tests and
// benchmarks; cancellation gets dedicated coverage in internal/exec and
// cmd/expdriver.
var testCtx = context.Background()

// TestExperimentsDeterministic pins the README's reproducibility claim:
// the same seed yields bit-identical experiment results, run to run.
func TestExperimentsDeterministic(t *testing.T) {
	opts := harness.Options{Seed: 4, Quick: true,
		Benchmarks: []string{"compress", "mtrt"}}
	a, err := harness.Table1(testCtx, io.Discard, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := harness.Table1(testCtx, io.Discard, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d differs across identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestSeedsChangeOutcomes is the determinism test's complement: different
// seeds draw different corpora, so results must actually move.
func TestSeedsChangeOutcomes(t *testing.T) {
	rows := func(seed int64) []harness.Table1Row {
		r, err := harness.Table1(testCtx, io.Discard, harness.Options{
			Seed: seed, Quick: true, Benchmarks: []string{"compress"}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := rows(4), rows(5)
	if a[0].MinMcyc == b[0].MinMcyc && a[0].MaxMcyc == b[0].MaxMcyc {
		t.Error("different seeds produced identical corpora timings")
	}
}

// TestFullEvolveCycleEndToEnd drives the complete public workflow the
// README's quickstart shows: runner, evolve sequence, learned state, and
// the cross-scenario result invariant.
func TestFullEvolveCycleEndToEnd(t *testing.T) {
	r, err := harness.NewRunner(progByNameOrSkip(t, "moldyn"), 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	order := r.Order(rngFor(6), 16)
	results, err := r.RunSequence(testCtx, harness.ScenarioEvolve, order)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 16 {
		t.Fatalf("got %d results", len(results))
	}
	// Results are program outputs: a default-scenario re-run of the same
	// input must agree.
	check, err := r.RunOne(testCtx, harness.ScenarioDefault, r.Inputs[order[len(order)-1]])
	if err != nil {
		t.Fatal(err)
	}
	last := results[len(results)-1]
	if !check.Result.Equal(last.Result) {
		t.Errorf("evolve result %v != default result %v", last.Result, check.Result)
	}
	if r.Evolver().Runs() != 16 {
		t.Errorf("evolver saw %d runs, want 16", r.Evolver().Runs())
	}
}

func progByNameOrSkip(t *testing.T, name string) *programs.Benchmark {
	t.Helper()
	b := programs.ByName(name)
	if b == nil {
		t.Skipf("no benchmark %s", name)
	}
	return b
}

func rngFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
