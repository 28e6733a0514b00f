// Package xicl implements the paper's Extensible Input Characterization
// Language: a mini-language in which a programmer describes the format and
// the potentially important features of a program's inputs, plus the
// translator that turns an arbitrary (legal) command line into a
// well-formed feature vector.
//
// A specification is a sequence of constructs:
//
//	option  {name=-n; type=num; attr=VAL; default=1; has_arg=y}
//	option  {name=-e:--echo; type=bin; attr=VAL; default=0; has_arg=n}
//	operand {position=1:$; type=file; attr=mNodes:mEdges}
//	runtime {name=mScene; count=2}
//
// option and operand are the paper's two primary constructs; runtime is
// the enriched-XICL extension for values the application passes to the
// translator while it initializes (XICLFeatureVector.updateV in the
// paper). Attr names starting with "m" are programmer-defined feature
// extractors resolved through a Registry; the rest are predefined (VAL,
// SIZE, LINES, WORDS, LEN). An FVCache memoizes the static translation of
// each input of a corpus.
package xicl

import (
	"fmt"
	"strconv"
	"strings"
)

// FeatureKind distinguishes quantitative from categorical features, a
// separation the paper calls out as important for behaviour modelling.
type FeatureKind uint8

const (
	// Numeric is a quantitative feature.
	Numeric FeatureKind = iota
	// Categorical is a nominal feature compared only by equality.
	Categorical
)

func (k FeatureKind) String() string {
	if k == Categorical {
		return "cat"
	}
	return "num"
}

// Feature is one element of a feature vector.
type Feature struct {
	Name string
	Kind FeatureKind
	Num  float64
	Cat  string
}

// NumFeature returns a quantitative feature.
func NumFeature(name string, v float64) Feature {
	return Feature{Name: name, Kind: Numeric, Num: v}
}

// CatFeature returns a categorical feature.
func CatFeature(name, v string) Feature {
	return Feature{Name: name, Kind: Categorical, Cat: v}
}

func (f Feature) String() string {
	if f.Kind == Categorical {
		return fmt.Sprintf("%s=%q", f.Name, f.Cat)
	}
	return fmt.Sprintf("%s=%s", f.Name, strconv.FormatFloat(f.Num, 'g', -1, 64))
}

// Equal reports whether two features have the same name, kind and value.
func (f Feature) Equal(g Feature) bool {
	if f.Name != g.Name || f.Kind != g.Kind {
		return false
	}
	if f.Kind == Categorical {
		return f.Cat == g.Cat
	}
	return f.Num == g.Num
}

// Vector is an ordered feature vector. The translator guarantees a stable
// shape for a given specification: the same positions carry the same
// feature names in every run.
type Vector []Feature

func (v Vector) String() string {
	parts := make([]string, len(v))
	for i, f := range v {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Names returns the feature names in order.
func (v Vector) Names() []string {
	names := make([]string, len(v))
	for i, f := range v {
		names[i] = f.Name
	}
	return names
}

// Index returns the position of the named feature, or −1.
func (v Vector) Index(name string) int {
	for i, f := range v {
		if f.Name == name {
			return i
		}
	}
	return -1
}
