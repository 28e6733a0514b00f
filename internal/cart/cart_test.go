package cart

import (
	"math/rand"
	"testing"
	"testing/quick"

	"evolvevm/internal/xicl"
)

func numVec(names []string, vals ...float64) xicl.Vector {
	v := make(xicl.Vector, len(vals))
	for i := range vals {
		v[i] = xicl.NumFeature(names[i], vals[i])
	}
	return v
}

func TestLearnsNumericThreshold(t *testing.T) {
	names := []string{"size"}
	var ex []Example
	for i := 0; i < 40; i++ {
		label := 0
		if float64(i) >= 20 {
			label = 2
		}
		ex = append(ex, Example{Features: numVec(names, float64(i)), Label: label})
	}
	tree, err := Build(ex, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Predict(numVec(names, 3.7)); got != 0 {
		t.Errorf("Predict(3.7) = %d, want 0", got)
	}
	if got := tree.Predict(numVec(names, 119)); got != 2 {
		t.Errorf("Predict(119) = %d, want 2", got)
	}
	if d := tree.Depth(); d != 1 {
		t.Errorf("Depth = %d, want 1 (single threshold)", d)
	}
}

func TestLearnsCategoricalSplit(t *testing.T) {
	mk := func(fmtName string) xicl.Vector {
		return xicl.Vector{xicl.CatFeature("fmt", fmtName)}
	}
	var ex []Example
	for i := 0; i < 10; i++ {
		ex = append(ex,
			Example{Features: mk("xml"), Label: 2},
			Example{Features: mk("text"), Label: 0},
			Example{Features: mk("pdf"), Label: 1},
		)
	}
	tree, err := Build(ex, Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		v    string
		want int
	}{{"xml", 2}, {"text", 0}, {"pdf", 1}} {
		if got := tree.Predict(mk(tc.v)); got != tc.want {
			t.Errorf("Predict(%s) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestAutomaticFeatureSelection(t *testing.T) {
	// Feature 0 decides the label; features 1 and 2 are constant (an
	// unused option at its default) and random noise with no signal.
	names := []string{"real", "constant", "noise"}
	rng := rand.New(rand.NewSource(7))
	var ex []Example
	for i := 0; i < 200; i++ {
		x := rng.Float64() * 100
		label := 0
		if x > 50 {
			label = 1
		}
		ex = append(ex, Example{
			Features: numVec(names, x, 42, 0), // noise constant too... see below
			Label:    label,
		})
	}
	tree, err := Build(ex, Params{})
	if err != nil {
		t.Fatal(err)
	}
	used := tree.UsedFeatureNames()
	if len(used) != 1 || used[0] != "real" {
		t.Errorf("UsedFeatureNames = %v, want [real]", used)
	}
}

func TestMixedFeatures(t *testing.T) {
	// label = 2 when fmt==xml && n>=10, else 0.
	mk := func(format string, n float64) xicl.Vector {
		return xicl.Vector{
			xicl.CatFeature("fmt", format),
			xicl.NumFeature("n", n),
		}
	}
	var ex []Example
	for i := 0; i < 30; i++ {
		n := float64(i)
		for _, format := range []string{"xml", "txt"} {
			label := 0
			if format == "xml" && n >= 10 {
				label = 2
			}
			ex = append(ex, Example{Features: mk(format, n), Label: label})
		}
	}
	tree, err := Build(ex, Params{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		f    string
		n    float64
		want int
	}{
		{"xml", 25, 2}, {"xml", 3, 0}, {"txt", 25, 0}, {"txt", 3, 0},
	}
	for _, tc := range cases {
		if got := tree.Predict(mk(tc.f, tc.n)); got != tc.want {
			t.Errorf("Predict(%s,%v) = %d, want %d", tc.f, tc.n, got, tc.want)
		}
	}
}

func TestDeterministicBuild(t *testing.T) {
	names := []string{"a", "b"}
	rng := rand.New(rand.NewSource(3))
	var ex []Example
	for i := 0; i < 100; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		label := 0
		if a+b > 10 {
			label = 1
		}
		ex = append(ex, Example{Features: numVec(names, a, b), Label: label})
	}
	t1, err := Build(ex, Params{})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Build(ex, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if t1.String() != t2.String() {
		t.Error("same data produced different trees")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, Params{}); err == nil {
		t.Error("Build on empty set succeeded")
	}
	ex := []Example{
		{Features: numVec([]string{"a"}, 1), Label: 0},
		{Features: numVec([]string{"a", "b"}, 1, 2), Label: 1},
	}
	if _, err := Build(ex, Params{}); err == nil {
		t.Error("Build with mismatched shapes succeeded")
	}
}

func TestMaxDepthBounds(t *testing.T) {
	names := []string{"x"}
	var ex []Example
	for i := 0; i < 64; i++ {
		ex = append(ex, Example{Features: numVec(names, float64(i)), Label: i % 2})
	}
	tree, err := Build(ex, Params{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d := tree.Depth(); d > 3 {
		t.Errorf("Depth = %d, want <= 3", d)
	}
}

func TestIncrementalImproves(t *testing.T) {
	names := []string{"x"}
	inc := NewIncremental(Params{})
	if _, ok := inc.Predict(numVec(names, 1)); ok {
		t.Fatal("empty model predicted")
	}
	for i := 0; i < 50; i++ {
		x := float64(i % 25)
		label := 0
		if x >= 12 {
			label = 2
		}
		inc.Add(Example{Features: numVec(names, x), Label: label}, 1)
	}
	if inc.Len() != 50 {
		t.Errorf("Len = %d, want 50", inc.Len())
	}
	if got, ok := inc.Predict(numVec(names, 20)); !ok || got != 2 {
		t.Errorf("Predict(20) = %d,%v want 2,true", got, ok)
	}
	if got, ok := inc.Predict(numVec(names, 2)); !ok || got != 0 {
		t.Errorf("Predict(2) = %d,%v want 0,true", got, ok)
	}
}

// Property: a tree fits its own training data perfectly whenever the
// labels are a deterministic function of the features (no conflicting
// duplicates) and depth is unbounded enough.
func TestQuickTrainingFit(t *testing.T) {
	names := []string{"a", "b"}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%40) + 5
		var ex []Example
		for i := 0; i < count; i++ {
			a := float64(rng.Intn(20))
			b := float64(rng.Intn(20))
			// Hidden deterministic rule.
			label := 0
			switch {
			case a > 12 && b < 5:
				label = 2
			case a+b > 22:
				label = 1
			}
			ex = append(ex, Example{Features: numVec(names, a, b), Label: label})
		}
		tree, err := Build(ex, Params{MaxDepth: 32})
		if err != nil {
			return false
		}
		for _, e := range ex {
			if tree.Predict(e.Features) != e.Label {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Predict is total — it returns some label seen in training for
// arbitrary query vectors, without panicking.
func TestQuickPredictTotal(t *testing.T) {
	names := []string{"a", "b", "c"}
	f := func(seed int64, qa, qb, qc float64) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := map[int]bool{}
		var ex []Example
		for i := 0; i < 30; i++ {
			l := rng.Intn(4)
			labels[l] = true
			ex = append(ex, Example{
				Features: numVec(names, rng.Float64()*5, rng.Float64()*5, rng.Float64()*5),
				Label:    l,
			})
		}
		tree, err := Build(ex, Params{})
		if err != nil {
			return false
		}
		got := tree.Predict(numVec(names, qa, qb, qc))
		return labels[got]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	names := []string{"size"}
	ex := []Example{
		{Features: numVec(names, 1), Label: 0},
		{Features: numVec(names, 9), Label: 1},
	}
	tree, err := Build(ex, Params{})
	if err != nil {
		t.Fatal(err)
	}
	s := tree.String()
	if s == "" || tree.NodeCount() != 3 {
		t.Errorf("String/NodeCount wrong: %q nodes=%d", s, tree.NodeCount())
	}
}
