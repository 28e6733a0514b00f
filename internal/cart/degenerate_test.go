package cart

import (
	"testing"

	"evolvevm/internal/xicl"
)

// TestSingleExample: one observation must build a pure leaf that predicts
// its own label for any query.
func TestSingleExample(t *testing.T) {
	names := []string{"n"}
	tree, err := Build([]Example{{Features: numVec(names, 9), Label: 3}}, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if d := tree.Depth(); d != 0 {
		t.Errorf("Depth = %d, want 0 (single leaf)", d)
	}
	for _, q := range []float64{-100, 9, 100} {
		if got := tree.Predict(numVec(names, q)); got != 3 {
			t.Errorf("Predict(%v) = %d, want 3", q, got)
		}
	}
}

// TestIdenticalFeatures: when every example carries the same feature
// vector no split can separate them; the tree must degrade to a majority
// leaf instead of looping or splitting vacuously.
func TestIdenticalFeatures(t *testing.T) {
	names := []string{"a", "b"}
	var ex []Example
	for i := 0; i < 9; i++ {
		label := 1
		if i < 3 {
			label = 0
		}
		ex = append(ex, Example{Features: numVec(names, 4, 4), Label: label})
	}
	tree, err := Build(ex, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if d := tree.Depth(); d != 0 {
		t.Errorf("Depth = %d, want 0 (no informative split exists)", d)
	}
	if got := tree.Predict(numVec(names, 4, 4)); got != 1 {
		t.Errorf("Predict = %d, want majority label 1", got)
	}
}

// TestSingleCategoryCategorical: an all-categorical vector whose only
// feature takes one value everywhere is equally unsplittable.
func TestSingleCategoryCategorical(t *testing.T) {
	mk := func() xicl.Vector { return xicl.Vector{xicl.CatFeature("fmt", "png")} }
	ex := []Example{
		{Features: mk(), Label: 2},
		{Features: mk(), Label: 2},
		{Features: mk(), Label: 0},
	}
	tree, err := Build(ex, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if d := tree.Depth(); d != 0 {
		t.Errorf("Depth = %d, want 0", d)
	}
	if got := tree.Predict(mk()); got != 2 {
		t.Errorf("Predict = %d, want majority 2", got)
	}
}

// TestAllCategoricalSplits: trees over purely categorical vectors must
// still learn a separable relation (no numeric thresholds available).
func TestAllCategoricalSplits(t *testing.T) {
	mk := func(fmtName, mode string) xicl.Vector {
		return xicl.Vector{xicl.CatFeature("fmt", fmtName), xicl.CatFeature("mode", mode)}
	}
	var ex []Example
	for i := 0; i < 6; i++ {
		ex = append(ex,
			Example{Features: mk("png", "fast"), Label: 0},
			Example{Features: mk("jpg", "fast"), Label: 1},
			Example{Features: mk("png", "slow"), Label: 0},
			Example{Features: mk("jpg", "slow"), Label: 1})
	}
	tree, err := Build(ex, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Predict(mk("png", "slow")); got != 0 {
		t.Errorf("Predict(png) = %d, want 0", got)
	}
	if got := tree.Predict(mk("jpg", "fast")); got != 1 {
		t.Errorf("Predict(jpg) = %d, want 1", got)
	}
	// "mode" never reduces impurity and must not appear in the tree.
	if d := tree.Depth(); d != 1 {
		t.Errorf("Depth = %d, want 1 (single categorical split)", d)
	}
}

// TestMinLeafForcesLeaf: a MinLeaf larger than any feasible partition
// collapses the tree to a majority leaf rather than producing undersized
// children.
func TestMinLeafForcesLeaf(t *testing.T) {
	names := []string{"x"}
	var ex []Example
	for i := 0; i < 6; i++ {
		label := 0
		if i >= 3 {
			label = 1
		}
		ex = append(ex, Example{Features: numVec(names, float64(i)), Label: label})
	}
	tree, err := Build(ex, Params{MinLeaf: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := tree.Depth(); d != 0 {
		t.Errorf("Depth = %d, want 0 (MinLeaf 4 admits no split of 6)", d)
	}
}

// TestIncrementalDegenerate: the incremental learner fed a single example
// must predict it back, and Predict on an empty learner must decline.
func TestIncrementalDegenerate(t *testing.T) {
	names := []string{"n"}
	inc := NewIncremental(Params{})
	if _, ok := inc.Predict(numVec(names, 1)); ok {
		t.Fatal("empty incremental learner predicted")
	}
	inc.Add(Example{Features: numVec(names, 1), Label: 7}, 1)
	if got, ok := inc.Predict(numVec(names, 1)); !ok || got != 7 {
		t.Errorf("Predict after one Add = %d,%v, want 7,true", got, ok)
	}
}
