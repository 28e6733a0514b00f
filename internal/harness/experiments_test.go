package harness

import (
	"bytes"
	"strings"
	"testing"

	"evolvevm/internal/gc"
	"evolvevm/internal/programs"
)

func quickOpts() Options { return Options{Seed: 3, Quick: true} }

func TestTable1Quick(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table1(testCtx, &buf, Options{Seed: 3, Quick: true,
		Benchmarks: []string{"compress", "mtrt", "search"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Inputs <= 0 {
			t.Errorf("%s: no inputs", r.Program)
		}
		if r.MaxMcyc <= r.MinMcyc {
			t.Errorf("%s: degenerate time range [%v, %v]", r.Program, r.MinMcyc, r.MaxMcyc)
		}
		if r.UsedFeat > r.TotalFeat {
			t.Errorf("%s: used %d > total %d features", r.Program, r.UsedFeat, r.TotalFeat)
		}
		if r.UsedFeat == 0 {
			t.Errorf("%s: trees use no features at all", r.Program)
		}
		if r.Conf < 0 || r.Conf > 1 || r.Acc < 0 || r.Acc > 1 {
			t.Errorf("%s: conf/acc out of range: %v/%v", r.Program, r.Conf, r.Acc)
		}
		// The paper's headline: high prediction accuracy (87% average
		// there; our deterministic substrate learns at least as well).
		if r.Acc < 0.7 {
			t.Errorf("%s: accuracy %.2f below plausible range", r.Program, r.Acc)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "mtrt") {
		t.Error("table text output malformed")
	}
}

func TestFigure8Quick(t *testing.T) {
	var buf bytes.Buffer
	series, err := Figure8(testCtx, &buf, Options{Seed: 3, Quick: true, Benchmarks: []string{"mtrt"}})
	if err != nil {
		t.Fatal(err)
	}
	s := series[0]
	n := len(s.Confidence)
	if n == 0 || len(s.EvolveSpd) != n || len(s.RepSpd) != n {
		t.Fatal("series length mismatch")
	}
	// Confidence must ascend overall: last quarter above first quarter.
	q := n / 4
	if q == 0 {
		q = 1
	}
	var early, late float64
	for i := 0; i < q; i++ {
		early += s.Confidence[i]
		late += s.Confidence[n-1-i]
	}
	if late <= early {
		t.Errorf("confidence did not ascend: early=%v late=%v", early/float64(q), late/float64(q))
	}
	if !strings.Contains(buf.String(), "confidence") {
		t.Error("figure text missing plot")
	}
}

func TestFigure9Quick(t *testing.T) {
	var buf bytes.Buffer
	points, err := Figure9(testCtx, &buf, Options{Seed: 3, Quick: true, Runs: 24,
		Benchmarks: []string{"mtrt"}})
	if err != nil {
		t.Fatal(err)
	}
	pts := points["mtrt"]
	if len(pts) == 0 {
		t.Fatal("no predicted points")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].DefaultMcyc < pts[i-1].DefaultMcyc {
			t.Fatal("points not sorted by default time")
		}
	}
}

func TestFigure10Quick(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Figure10(testCtx, &buf, Options{Seed: 3, Quick: true,
		Benchmarks: []string{"mtrt", "moldyn"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Evolve.Median <= 0 || r.Rep.Median <= 0 {
			t.Errorf("%s: degenerate distributions %+v %+v", r.Program, r.Evolve, r.Rep)
		}
		// Paper's discriminative-prediction claim: Evolve's minimum
		// should not collapse the way Rep's can.
		if r.Evolve.Min < 0.5 {
			t.Errorf("%s: evolve min %.3f — guard failed badly", r.Program, r.Evolve.Min)
		}
	}
	if !strings.Contains(buf.String(), "Figure 10") {
		t.Error("figure header missing")
	}
}

func TestOverheadQuick(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Overhead(testCtx, &buf, Options{Seed: 3, Quick: true,
		Benchmarks: []string{"compress", "bloat"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MeanPct < 0 || r.MeanPct > r.MaxPct {
			t.Errorf("%s: inconsistent overhead %v/%v", r.Program, r.MeanPct, r.MaxPct)
		}
		// Paper: overhead is negligible (<~1.4% worst case); allow slack.
		if r.MaxPct > 5 {
			t.Errorf("%s: overhead %.2f%% not negligible", r.Program, r.MaxPct)
		}
	}
}

func TestSensitivityQuick(t *testing.T) {
	var buf bytes.Buffer
	res, err := Sensitivity(testCtx, &buf, Options{Seed: 3, Quick: true, Benchmarks: []string{"mtrt"}})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if len(r.ByThreshold) != 3 {
		t.Fatalf("thresholds missing: %v", r.ByThreshold)
	}
	// Higher thresholds are more conservative: the speedup range shrinks
	// or stays, up to per-order noise on near-ties (the quick corpus is
	// small, so one flipped prediction moves the range by ~0.01).
	loRange := r.ByThreshold[0.5].Max - r.ByThreshold[0.5].Min
	hiRange := r.ByThreshold[0.9].Max - r.ByThreshold[0.9].Min
	if hiRange > loRange+0.02 {
		t.Errorf("TH=0.9 range %.3f > TH=0.5 range %.3f", hiRange, loRange)
	}
	if len(r.OrderMinEvolve) != len(r.OrderMinRep) || len(r.OrderMinEvolve) == 0 {
		t.Error("order study missing")
	}
}

func TestAblationQuick(t *testing.T) {
	var buf bytes.Buffer
	res, err := Ablation(testCtx, &buf, Options{Seed: 3, Quick: true, Benchmarks: []string{"compress"}})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.AccFull < r.AccTruncated-0.05 {
		t.Errorf("full features (%.3f) markedly worse than one feature (%.3f)",
			r.AccFull, r.AccTruncated)
	}
	if r.EarlyGuarded.Median <= 0 || r.EarlyUnguarded.Median <= 0 {
		t.Error("degenerate early-run summaries")
	}
}

func TestOptionsHelpers(t *testing.T) {
	o := Options{Benchmarks: []string{"mtrt", "bogus"}}
	if len(o.suite()) != 1 {
		t.Errorf("suite() = %d entries, want 1 (bogus filtered)", len(o.suite()))
	}
	if got := (Options{}).suite(); len(got) != 11 {
		t.Errorf("full suite = %d, want 11", len(got))
	}
	b := o.suite()[0]
	if (Options{Corpus: 9}).corpusFor(b) != 9 {
		t.Error("corpus override ignored")
	}
	if (Options{Runs: 5}).runsFor(b) != 5 {
		t.Error("runs override ignored")
	}
	if (Options{}).runsFor(b) != 70 { // mtrt has a 40-input corpus
		t.Error("paper run count wrong for many-input benchmark")
	}
}

func TestScenarioString(t *testing.T) {
	if ScenarioDefault.String() != "default" || ScenarioEvolve.String() != "evolve" ||
		ScenarioRep.String() != "rep" || ScenarioNull.String() != "null" {
		t.Error("scenario names wrong")
	}
	if Scenario(42).String() == "" {
		t.Error("unknown scenario unprintable")
	}
	_ = quickOpts()
}

func TestGCSelectionQuick(t *testing.T) {
	var buf bytes.Buffer
	res, err := GCSelection(testCtx, &buf, Options{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || res.Runs == 0 {
		t.Fatal("no GC runs")
	}
	// The learned sequence must not lose to the better fixed policy by
	// more than noise, and must beat the worse one.
	worse := res.FixedMarkSweep
	if res.FixedCopying > worse {
		worse = res.FixedCopying
	}
	if res.Learned > worse {
		t.Errorf("learned total %d worse than both fixed policies (%d, %d)",
			res.Learned, res.FixedMarkSweep, res.FixedCopying)
	}
	if res.Oracle > res.Learned {
		t.Errorf("oracle %d worse than learned %d — oracle broken", res.Oracle, res.Learned)
	}
	if res.PredictedRuns > 0 && res.CorrectRuns*2 < res.PredictedRuns {
		t.Errorf("selector accuracy %d/%d below 50%%", res.CorrectRuns, res.PredictedRuns)
	}
	if !strings.Contains(buf.String(), "GC selection") {
		t.Error("report missing header")
	}
}

func TestGCRunsPreserveResults(t *testing.T) {
	// Program results must be identical with and without collection.
	b := programs.Server()
	plain, err := NewRunner(b, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	collected, err := NewRunner(b, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	collected.GC = gc.Config{Policy: gc.Copying, BudgetCells: GCBudgetCells}
	for i, in := range plain.Inputs {
		a, err := plain.RunOne(testCtx, ScenarioDefault, in)
		if err != nil {
			t.Fatal(err)
		}
		c, err := collected.RunOne(testCtx, ScenarioDefault, collected.Inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !a.Result.Equal(c.Result) {
			t.Errorf("%s: GC changed the result: %v vs %v", in.ID, c.Result, a.Result)
		}
		if len(c.GCStats.Collections) == 0 {
			t.Errorf("%s: no collections under budget %d", in.ID, GCBudgetCells)
		}
	}
}
