package cart

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"evolvevm/internal/xicl"
)

// sameTree reports the first difference between two trees, comparing
// every node exactly (thresholds by their bits), or "" when they match.
func sameTree(a, b *node, path string) string {
	switch {
	case a.leaf != b.leaf:
		return fmt.Sprintf("%s: leaf %v vs %v", path, a.leaf, b.leaf)
	case a.leaf:
		if a.label != b.label {
			return fmt.Sprintf("%s: label %d vs %d", path, a.label, b.label)
		}
		return ""
	case a.feat != b.feat || a.kind != b.kind || a.catVal != b.catVal ||
		math.Float64bits(a.thresh) != math.Float64bits(b.thresh):
		return fmt.Sprintf("%s: split f%d %v %q %v vs f%d %v %q %v", path,
			a.feat, a.kind, a.catVal, a.thresh, b.feat, b.kind, b.catVal, b.thresh)
	}
	if d := sameTree(a.left, b.left, path+"L"); d != "" {
		return d
	}
	return sameTree(a.right, b.right, path+"R")
}

// TestIncrementalMatchesBuildOverList: the learner's tree over distinct
// examples and counts is node for node the tree Build induces over the
// full observation list, on random mixed-kind inputs with noisy labels,
// random induction parameters, and checks taken mid-stream.
func TestIncrementalMatchesBuildOverList(t *testing.T) {
	const trials = 3000
	rng := rand.New(rand.NewSource(20090325))
	cats := []string{"a", "b", "c"}
	checks := 0
	for trial := 0; trial < trials; trial++ {
		kinds := make([]xicl.FeatureKind, 1+rng.Intn(4))
		for f := range kinds {
			if rng.Intn(2) == 0 {
				kinds[f] = xicl.Categorical
			}
		}
		inputs := make([]xicl.Vector, 1+rng.Intn(12))
		clean := make([]int, len(inputs))
		for i := range inputs {
			v := make(xicl.Vector, len(kinds))
			for f, k := range kinds {
				name := fmt.Sprintf("f%d", f)
				if k == xicl.Categorical {
					v[f] = xicl.CatFeature(name, cats[rng.Intn(len(cats))])
				} else {
					v[f] = xicl.NumFeature(name, float64(rng.Intn(10))*0.7)
				}
			}
			inputs[i] = v
			clean[i] = rng.Intn(3)
		}
		p := Params{MinLeaf: rng.Intn(4), MaxDepth: rng.Intn(6)}
		inc := NewIncremental(p)
		var list []Example
		adds := 1 + rng.Intn(300)
		for a := 0; a < adds; a++ {
			i := rng.Intn(len(inputs))
			label := clean[i]
			if rng.Intn(4) == 0 {
				label = rng.Intn(3)
			}
			ex := Example{Features: inputs[i], Label: label}
			inc.Add(ex, 1)
			list = append(list, ex)
			if a != adds-1 && rng.Intn(50) != 0 {
				continue
			}
			checks++
			want, err := Build(list, p)
			if err != nil {
				t.Fatal(err)
			}
			if d := sameTree(inc.Tree().root, want.root, "root"); d != "" {
				t.Fatalf("trial %d after %d adds, params %+v: %s\nincremental:\n%slist:\n%s",
					trial, a+1, p, d, inc.Tree(), want)
			}
			if inc.Len() != len(list) {
				t.Fatalf("trial %d: Len %d, want %d", trial, inc.Len(), len(list))
			}
		}
	}
	t.Logf("%d trials, %d mid-stream and final checks", trials, checks)
}

// TestIncrementalStoresMultiset: equal observations share one entry whose
// count grows; examples that differ in label, name or numeric bits do
// not; Len counts observations.
func TestIncrementalStoresMultiset(t *testing.T) {
	inc := NewIncremental(Params{})
	x := func(name string, v float64, label int) Example {
		return Example{Features: xicl.Vector{xicl.NumFeature(name, v)}, Label: label}
	}
	inc.Add(x("n", 1, 0), 1)
	inc.Add(x("n", 2, 0), 1)
	inc.Add(x("n", 1, 0), 3)
	inc.Add(x("n", 1, 1), 1)                    // different label
	inc.Add(x("m", 1, 0), 1)                    // different name
	inc.Add(x("n", math.Copysign(0, -1), 0), 1) // -0 and +0 differ in bits
	inc.Add(x("n", 0, 0), 1)
	inc.Add(x("n", 2, 0), 1)

	var got []string
	for ex, n := range inc.Examples() {
		got = append(got, fmt.Sprintf("%s/%d x%d", ex.Features[0], ex.Label, n))
	}
	want := []string{"n=1/0 x4", "n=2/0 x2", "n=1/1 x1", "m=1/0 x1", "n=-0/0 x1", "n=0/0 x1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Examples() = %v, want %v", got, want)
	}
	if inc.Len() != 10 {
		t.Errorf("Len = %d, want 10 observations", inc.Len())
	}
}

// TestIncrementalForkCopiesCounts: a fork starts with its source's
// multiset, and later observations on either side, new or repeated,
// never reach the other.
func TestIncrementalForkCopiesCounts(t *testing.T) {
	names := []string{"x"}
	ex := func(v float64) Example { return Example{Features: numVec(names, v), Label: int(v) % 2} }
	src := NewIncremental(Params{})
	src.Add(ex(1), 2)
	src.Add(ex(2), 1)
	fork := src.Fork(Params{})

	src.Add(ex(1), 5) // repeated: counts change in place
	src.Add(ex(3), 1) // new: appends
	fork.Add(ex(2), 4)
	fork.Add(ex(4), 1)

	dump := func(inc *Incremental) string {
		var s []string
		for e, n := range inc.Examples() {
			s = append(s, fmt.Sprintf("%v:%d", e.Features[0].Num, n))
		}
		return fmt.Sprint(s, inc.Len())
	}
	if got, want := dump(src), "[1:7 2:1 3:1] 9"; got != want {
		t.Errorf("source = %s, want %s", got, want)
	}
	if got, want := dump(fork), "[1:2 2:5 4:1] 8"; got != want {
		t.Errorf("fork = %s, want %s", got, want)
	}
}
