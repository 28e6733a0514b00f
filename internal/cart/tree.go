// Package cart implements the classification trees the evolvable VM
// learns input-behaviour models with (paper §IV-B): entropy-driven
// divide-and-conquer trees over mixed numeric/categorical feature vectors,
// with automatic feature selection (features that never reduce impurity
// never appear in a tree), and an incremental learner that accumulates
// examples across production runs.
package cart

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"evolvevm/internal/xicl"
)

// Example is one training observation: an input feature vector and the
// class observed for it (for the paper's use case, a method's ideal
// optimization level).
type Example struct {
	Features xicl.Vector
	Label    int
}

// Params controls tree induction.
type Params struct {
	// MaxDepth bounds the tree height (0 means DefaultMaxDepth).
	MaxDepth int
	// MinLeaf is the minimum number of examples in a leaf (0 means 1).
	MinLeaf int
	// MinGain is the smallest entropy reduction worth splitting on.
	MinGain float64
}

// DefaultMaxDepth bounds trees when Params.MaxDepth is zero.
const DefaultMaxDepth = 12

func (p Params) withDefaults() Params {
	if p.MaxDepth <= 0 {
		p.MaxDepth = DefaultMaxDepth
	}
	if p.MinLeaf <= 0 {
		p.MinLeaf = 1
	}
	if p.MinGain <= 0 {
		p.MinGain = 1e-9
	}
	return p
}

// Tree is a trained classification tree.
type Tree struct {
	root  *node
	names []string
}

type node struct {
	leaf  bool
	label int

	feat   int
	kind   xicl.FeatureKind
	thresh float64 // numeric: left if value < thresh
	catVal string  // categorical: left if value == catVal
	left   *node
	right  *node
}

// Build induces a tree from examples, each standing for one observation.
// All feature vectors must share one shape (see CheckShape), which the
// XICL translator guarantees per specification.
func Build(examples []Example, p Params) (*Tree, error) {
	w := make([]int, len(examples))
	for i := range w {
		w[i] = 1
	}
	return build(examples, w, p)
}

// CheckShape reports an error unless every example's feature vector has
// the first one's length and feature kinds.
func CheckShape(examples []Example) error {
	if len(examples) == 0 {
		return nil
	}
	shape := examples[0].Features
	for i, ex := range examples {
		if len(ex.Features) != len(shape) {
			return fmt.Errorf("cart: example %d has %d features, example 0 has %d",
				i, len(ex.Features), len(shape))
		}
		for j := range ex.Features {
			if ex.Features[j].Kind != shape[j].Kind {
				return fmt.Errorf("cart: example %d feature %d kind mismatch", i, j)
			}
		}
	}
	return nil
}

// build induces a tree from examples where examples[i] stands for w[i] > 0
// identical observations. Every decision (impurity, gain, MinLeaf, the
// majority label) depends only on the summed weights per label, and ties
// break on feature index, sorted threshold and the smaller label, never
// on example order; so the tree over distinct examples with their counts
// is node for node the tree over the expanded list.
func build(examples []Example, w []int, p Params) (*Tree, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("cart: no examples")
	}
	if err := CheckShape(examples); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	t := &Tree{names: examples[0].Features.Names()}
	idx := make([]int, len(examples))
	for i := range idx {
		idx[i] = i
	}
	t.root = grow(examples, w, idx, p, 0)
	return t, nil
}

// weight returns the number of observations examples[idx] stand for.
func weight(w, idx []int) int {
	n := 0
	for _, i := range idx {
		n += w[i]
	}
	return n
}

// grow recursively builds a subtree over examples[idx].
func grow(examples []Example, w, idx []int, p Params, depth int) *node {
	maj, pure := majority(examples, w, idx)
	if pure || depth >= p.MaxDepth || weight(w, idx) < 2*p.MinLeaf {
		return &node{leaf: true, label: maj}
	}
	split, ok := bestSplit(examples, w, idx, p)
	if !ok {
		return &node{leaf: true, label: maj}
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if split.goesLeft(examples[i].Features[split.feat]) {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if weight(w, leftIdx) < p.MinLeaf || weight(w, rightIdx) < p.MinLeaf {
		return &node{leaf: true, label: maj}
	}
	n := &node{
		feat:   split.feat,
		kind:   split.kind,
		thresh: split.thresh,
		catVal: split.catVal,
	}
	n.left = grow(examples, w, leftIdx, p, depth+1)
	n.right = grow(examples, w, rightIdx, p, depth+1)
	// Collapse pointless splits (both children same-label leaves).
	if n.left.leaf && n.right.leaf && n.left.label == n.right.label {
		return &node{leaf: true, label: n.left.label}
	}
	return n
}

type splitSpec struct {
	feat   int
	kind   xicl.FeatureKind
	thresh float64
	catVal string
}

func (s *splitSpec) goesLeft(f xicl.Feature) bool {
	if s.kind == xicl.Categorical {
		return f.Cat == s.catVal
	}
	return f.Num < s.thresh
}

// majority returns the most frequent label (smallest on ties) and whether
// the set is pure.
func majority(examples []Example, w, idx []int) (label int, pure bool) {
	counts := map[int]int{}
	for _, i := range idx {
		counts[examples[i].Label] += w[i]
	}
	best, bestN := 0, -1
	for l, n := range counts {
		if n > bestN || (n == bestN && l < best) {
			best, bestN = l, n
		}
	}
	return best, len(counts) == 1
}

// entropy of the label distribution over examples[idx].
func entropy(examples []Example, w, idx []int) float64 {
	counts := map[int]int{}
	for _, i := range idx {
		counts[examples[i].Label] += w[i]
	}
	h := 0.0
	n := float64(weight(w, idx))
	for _, c := range counts {
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

// bestSplit finds the question with the largest information gain,
// breaking ties deterministically by (feature, threshold/category).
func bestSplit(examples []Example, w, idx []int, p Params) (splitSpec, bool) {
	baseH := entropy(examples, w, idx)
	n := float64(weight(w, idx))
	var best splitSpec
	bestGain := p.MinGain

	consider := func(s splitSpec) {
		var li, ri []int
		for _, i := range idx {
			if s.goesLeft(examples[i].Features[s.feat]) {
				li = append(li, i)
			} else {
				ri = append(ri, i)
			}
		}
		if len(li) == 0 || len(ri) == 0 {
			return
		}
		gain := baseH - (float64(weight(w, li))/n)*entropy(examples, w, li) -
			(float64(weight(w, ri))/n)*entropy(examples, w, ri)
		if gain > bestGain+1e-12 {
			bestGain, best = gain, s
		}
	}

	nFeats := len(examples[idx[0]].Features)
	for f := 0; f < nFeats; f++ {
		kind := examples[idx[0]].Features[f].Kind
		if kind == xicl.Categorical {
			seen := map[string]bool{}
			var vals []string
			for _, i := range idx {
				v := examples[i].Features[f].Cat
				if !seen[v] {
					seen[v] = true
					vals = append(vals, v)
				}
			}
			if len(vals) < 2 {
				continue
			}
			sort.Strings(vals)
			for _, v := range vals {
				consider(splitSpec{feat: f, kind: kind, catVal: v})
			}
		} else {
			var vals []float64
			seen := map[float64]bool{}
			for _, i := range idx {
				v := examples[i].Features[f].Num
				if !seen[v] {
					seen[v] = true
					vals = append(vals, v)
				}
			}
			if len(vals) < 2 {
				continue
			}
			sort.Float64s(vals)
			for i := 0; i+1 < len(vals); i++ {
				consider(splitSpec{feat: f, kind: kind, thresh: (vals[i] + vals[i+1]) / 2})
			}
		}
	}
	return best, bestGain > p.MinGain
}

// Predict classifies a feature vector.
func (t *Tree) Predict(v xicl.Vector) int {
	n := t.root
	for !n.leaf {
		s := splitSpec{feat: n.feat, kind: n.kind, thresh: n.thresh, catVal: n.catVal}
		if n.feat >= len(v) {
			// Malformed query: fall to the right (the "else" branch).
			n = n.right
			continue
		}
		if s.goesLeft(v[n.feat]) {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.label
}

// UsedFeatures returns the indices of features appearing in any split —
// the tree's automatic feature selection (paper §IV-B: features that never
// reduce impurity never appear).
func (t *Tree) UsedFeatures() []int {
	used := map[int]bool{}
	var walk func(*node)
	walk = func(n *node) {
		if n == nil || n.leaf {
			return
		}
		used[n.feat] = true
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	out := make([]int, 0, len(used))
	for f := range used {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}

// UsedFeatureNames resolves UsedFeatures against the training shape.
func (t *Tree) UsedFeatureNames() []string {
	var names []string
	for _, f := range t.UsedFeatures() {
		if f < len(t.names) {
			names = append(names, t.names[f])
		}
	}
	return names
}

// NodeCount returns the number of nodes in the tree.
func (t *Tree) NodeCount() int {
	var count func(*node) int
	count = func(n *node) int {
		if n == nil {
			return 0
		}
		if n.leaf {
			return 1
		}
		return 1 + count(n.left) + count(n.right)
	}
	return count(t.root)
}

// Depth returns the tree height (a lone leaf has depth 0).
func (t *Tree) Depth() int {
	var depth func(*node) int
	depth = func(n *node) int {
		if n == nil || n.leaf {
			return 0
		}
		l, r := depth(n.left), depth(n.right)
		if l > r {
			return 1 + l
		}
		return 1 + r
	}
	return depth(t.root)
}

// String renders the tree as indented text for diagnostics.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(n *node, indent string)
	walk = func(n *node, indent string) {
		if n.leaf {
			fmt.Fprintf(&b, "%s=> %d\n", indent, n.label)
			return
		}
		name := fmt.Sprintf("f%d", n.feat)
		if n.feat < len(t.names) {
			name = t.names[n.feat]
		}
		if n.kind == xicl.Categorical {
			fmt.Fprintf(&b, "%s%s == %q?\n", indent, name, n.catVal)
		} else {
			fmt.Fprintf(&b, "%s%s < %g?\n", indent, name, n.thresh)
		}
		walk(n.left, indent+"  y ")
		walk(n.right, indent+"  n ")
	}
	walk(t.root, "")
	return b.String()
}
