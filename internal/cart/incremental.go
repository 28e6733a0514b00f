package cart

import (
	"fmt"

	"evolvevm/internal/xicl"
)

// Incremental accumulates training examples across production runs and
// maintains a classification tree over them. The paper separates learning
// into online lightweight data collection (Add) and offline model
// construction (the rebuild), keeping runtime overhead negligible; the
// rebuild happens lazily, outside the program's measured execution.
type Incremental struct {
	params   Params
	examples []Example
	tree     *Tree
	stale    bool

	// RebuildEvery controls how many Adds may accumulate before Predict
	// rebuilds (1 = always fresh). Larger values trade model freshness
	// for rebuild time — the ablation in bench_test.go measures this.
	RebuildEvery int
	sinceRebuild int
}

// NewIncremental returns an empty incremental learner.
func NewIncremental(p Params) *Incremental {
	return &Incremental{params: p, RebuildEvery: 1}
}

// Fork returns a learner over inc's examples under params p, in the state
// a fresh learner reaches after Adding them in order: RebuildEvery 1 and
// the tree stale. The example slice is shared with its capacity clipped,
// so the first Add on either side copies it and neither learner ever sees
// the other's later examples. Examples are never modified in place (Build
// and CrossValidate only read them), so sharing is safe across goroutines.
func (inc *Incremental) Fork(p Params) *Incremental {
	n := len(inc.examples)
	return &Incremental{
		params:       p,
		examples:     inc.examples[:n:n],
		stale:        n > 0,
		RebuildEvery: 1,
		sinceRebuild: n,
	}
}

// Add records one observation.
func (inc *Incremental) Add(ex Example) {
	inc.examples = append(inc.examples, ex)
	inc.sinceRebuild++
	if inc.sinceRebuild >= inc.RebuildEvery || inc.tree == nil {
		inc.stale = true
	}
}

// Len returns the number of stored examples.
func (inc *Incremental) Len() int { return len(inc.examples) }

// Examples returns the stored examples (shared slice; callers must not
// modify).
func (inc *Incremental) Examples() []Example { return inc.examples }

// Tree returns the current model, rebuilding if stale. Returns nil when
// no examples exist yet.
func (inc *Incremental) Tree() *Tree {
	if len(inc.examples) == 0 {
		return nil
	}
	if inc.stale || inc.tree == nil {
		t, err := Build(inc.examples, inc.params)
		if err != nil {
			// Only reachable with inconsistent shapes, which one
			// translator cannot produce; surface loudly in development.
			panic(fmt.Sprintf("cart: incremental rebuild: %v", err))
		}
		inc.tree = t
		inc.stale = false
		inc.sinceRebuild = 0
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
