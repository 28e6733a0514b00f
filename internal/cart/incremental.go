package cart

import (
	"fmt"
	"iter"
	"math"
	"slices"

	"evolvevm/internal/xicl"
)

// Incremental accumulates training examples across production runs and
// maintains a classification tree over them. The paper separates learning
// into online lightweight data collection (Add) and offline model
// construction (the rebuild), keeping runtime overhead negligible; the
// rebuild happens lazily, outside the program's measured execution.
//
// The tree depends only on how often each distinct example was seen, so
// that multiset is what the learner stores: each distinct example once,
// in first-seen order, with its count. Its size follows the number of
// distinct inputs, not the number of runs.
type Incremental struct {
	params   Params
	examples []Example // distinct, first-seen order, append-only
	counts   []int     // counts[i] observations of examples[i]
	total    int
	tree     *Tree // nil: stale
}

// NewIncremental returns an empty incremental learner.
func NewIncremental(p Params) *Incremental {
	return &Incremental{params: p}
}

// Fork returns a learner over inc's examples and counts under params p,
// with the tree stale: the state a fresh learner reaches after Adding
// them in order. The distinct-example slice is shared with its capacity
// clipped, so the first new example on either side copies it and neither
// learner ever sees the other's later examples; stored examples are never
// modified in place (Build only reads them), so sharing is safe across
// goroutines. Counts change in place, so they are copied: a fork costs
// O(distinct examples).
func (inc *Incremental) Fork(p Params) *Incremental {
	n := len(inc.examples)
	return &Incremental{
		params:   p,
		examples: inc.examples[:n:n],
		counts:   slices.Clone(inc.counts),
		total:    inc.total,
	}
}

// Add records n observations of ex: it adds n to the count of the equal
// stored example, or appends ex with count n. n must be positive; an
// example stored with count 0 would still offer split thresholds.
func (inc *Incremental) Add(ex Example, n int) {
	if n < 1 {
		panic(fmt.Sprintf("cart: Add of %d observations", n))
	}
	inc.tree = nil
	inc.total += n
	for i := range inc.examples {
		if sameExample(inc.examples[i], ex) {
			inc.counts[i] += n
			return
		}
	}
	inc.examples = append(inc.examples, ex)
	inc.counts = append(inc.counts, n)
}

// sameExample reports whether a and b record the same observation: the
// same label and, feature by feature, the same name, kind, category and
// numeric bits.
func sameExample(a, b Example) bool {
	return a.Label == b.Label && slices.EqualFunc(a.Features, b.Features, func(f, g xicl.Feature) bool {
		return f.Name == g.Name && f.Kind == g.Kind && f.Cat == g.Cat &&
			math.Float64bits(f.Num) == math.Float64bits(g.Num)
	})
}

// Len returns the number of observations, the sum of the counts.
func (inc *Incremental) Len() int { return inc.total }

// Examples yields each distinct stored example, in first-seen order, with
// its count. Callers must not modify the examples.
func (inc *Incremental) Examples() iter.Seq2[Example, int] {
	return func(yield func(Example, int) bool) {
		for i, ex := range inc.examples {
			if !yield(ex, inc.counts[i]) {
				return
			}
		}
	}
}

// Tree returns the current model, rebuilding if stale. Returns nil when
// no examples exist yet.
func (inc *Incremental) Tree() *Tree {
	if len(inc.examples) == 0 {
		return nil
	}
	if inc.tree == nil {
		t, err := build(inc.examples, inc.counts, inc.params)
		if err != nil {
			// Only reachable with inconsistent shapes, which one
			// translator cannot produce and the state loaders reject;
			// surface loudly in development.
			panic(fmt.Sprintf("cart: incremental rebuild: %v", err))
		}
		inc.tree = t
	}
	return inc.tree
}

// Predict classifies v with the current model; ok is false when the model
// is empty.
func (inc *Incremental) Predict(v xicl.Vector) (int, bool) {
	t := inc.Tree()
	if t == nil {
		return 0, false
	}
	return t.Predict(v), true
}
