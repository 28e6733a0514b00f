package core

import (
	"encoding/json"
	"fmt"
	"io"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/cart"
	"evolvevm/internal/xicl"
)

// The on-disk model store. A production evolvable VM keeps its learned
// state between process lifetimes; Save/Load serialize the example sets
// and confidence (trees are rebuilt on load — they are derived state).
// Each distinct example is one entry with its count, omitted when 1. The
// decoder merges equal entries, so a list with one entry per observation
// and no counts reads as the same multiset.

type persistFeature struct {
	Name string  `json:"name"`
	Kind string  `json:"kind"`
	Num  float64 `json:"num,omitempty"`
	Cat  string  `json:"cat,omitempty"`
}

type persistExample struct {
	Label    int              `json:"label"`
	Count    int              `json:"count,omitempty"`
	Features []persistFeature `json:"features"`
}

type persistModel struct {
	Fn       string           `json:"fn"`
	Examples []persistExample `json:"examples"`
}

type persistState struct {
	Program    string         `json:"program"`
	Confidence float64        `json:"confidence"`
	Runs       int            `json:"runs"`
	Models     []persistModel `json:"models"`
}

// Save writes the learner's persistent state as JSON.
func (ev *Evolver) Save(w io.Writer) error {
	st := persistState{
		Program:    ev.prog.Name,
		Confidence: ev.conf,
		Runs:       ev.runs,
	}
	for fn, m := range ev.models {
		if m == nil || m.Len() == 0 {
			continue
		}
		st.Models = append(st.Models, persistModel{Fn: ev.prog.Funcs[fn].Name, Examples: encodeExamples(m)})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(st)
}

// encodeExamples lists a learner's distinct examples in first-seen order.
func encodeExamples(inc *cart.Incremental) []persistExample {
	var out []persistExample
	for ex, n := range inc.Examples() {
		pe := persistExample{Label: ex.Label}
		if n != 1 {
			pe.Count = n
		}
		for _, f := range ex.Features {
			pe.Features = append(pe.Features,
				persistFeature{Name: f.Name, Kind: f.Kind.String(), Num: f.Num, Cat: f.Cat})
		}
		out = append(out, pe)
	}
	return out
}

// decodeExamples rebuilds a learner from saved examples. It rejects a
// negative count, and examples of differing shapes, which would otherwise
// panic at the learner's first prediction.
func decodeExamples(pes []persistExample, p cart.Params) (*cart.Incremental, error) {
	exs := make([]cart.Example, len(pes))
	for i, pe := range pes {
		if pe.Count < 0 {
			return nil, fmt.Errorf("example %d has count %d", i, pe.Count)
		}
		exs[i].Label = pe.Label
		for _, pf := range pe.Features {
			if pf.Kind == xicl.Categorical.String() {
				exs[i].Features = append(exs[i].Features, xicl.CatFeature(pf.Name, pf.Cat))
			} else {
				exs[i].Features = append(exs[i].Features, xicl.NumFeature(pf.Name, pf.Num))
			}
		}
	}
	if err := cart.CheckShape(exs); err != nil {
		return nil, err
	}
	inc := cart.NewIncremental(p)
	for i, ex := range exs {
		inc.Add(ex, max(pes[i].Count, 1))
	}
	return inc, nil
}

// persistGCState is the GC selector's saved form. Like the level
// predictor, only examples and confidence persist; the tree is rebuilt.
type persistGCState struct {
	Confidence float64          `json:"confidence"`
	Runs       int              `json:"runs"`
	Examples   []persistExample `json:"examples,omitempty"`
}

// Save writes the GC selector's persistent state as JSON.
func (s *GCSelector) Save(w io.Writer) error {
	st := persistGCState{Confidence: s.conf, Runs: s.runs, Examples: encodeExamples(s.model)}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(st)
}

// LoadGCSelector restores a selector saved by GCSelector.Save.
func LoadGCSelector(cfg Config, r io.Reader) (*GCSelector, error) {
	var st persistGCState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: load gc selector: %w", err)
	}
	model, err := decodeExamples(st.Examples, cfg.Tree)
	if err != nil {
		return nil, fmt.Errorf("core: load gc selector: %w", err)
	}
	s := NewGCSelector(cfg)
	s.conf = st.Confidence
	s.runs = st.Runs
	s.model = model
	return s, nil
}

// Fork returns the learner LoadEvolver(prog, cfg, ·) builds from ev's Save
// output, without the encoding: ev's confidence, run count and per-method
// examples with their counts, matched to prog by function name, with
// stale trees. Each method's distinct examples are shared copy-on-write
// and its counts copied (cart.Incremental.Fork), so forking costs
// O(methods × distinct examples) and later training on either learner
// never reaches the other.
func (ev *Evolver) Fork(prog *bytecode.Program, cfg Config) (*Evolver, error) {
	if ev.prog.Name != prog.Name {
		return nil, fmt.Errorf("core: state is for program %q, not %q", ev.prog.Name, prog.Name)
	}
	out := NewEvolver(prog, cfg)
	out.conf = ev.conf
	out.runs = ev.runs
	for fn, m := range ev.models {
		if m == nil || m.Len() == 0 {
			continue
		}
		name := ev.prog.Funcs[fn].Name
		idx, ok := prog.FuncIndex(name)
		if !ok {
			return nil, fmt.Errorf("core: state references unknown function %q", name)
		}
		out.models[idx] = m.Fork(cfg.Tree)
	}
	return out, nil
}

// Fork returns the selector LoadGCSelector(cfg, ·) builds from s's Save
// output, sharing its distinct examples copy-on-write and copying their
// counts like Evolver.Fork.
func (s *GCSelector) Fork(cfg Config) *GCSelector {
	out := NewGCSelector(cfg)
	out.conf = s.conf
	out.runs = s.runs
	out.model = s.model.Fork(cfg.Tree)
	return out
}

// LoadEvolver restores a learner saved by Save, binding it to prog. The
// program must declare every function named in the state (extra functions
// are fine — they simply have no model yet).
func LoadEvolver(prog *bytecode.Program, cfg Config, r io.Reader) (*Evolver, error) {
	var st persistState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	if st.Program != prog.Name {
		return nil, fmt.Errorf("core: state is for program %q, not %q", st.Program, prog.Name)
	}
	ev := NewEvolver(prog, cfg)
	ev.conf = st.Confidence
	ev.runs = st.Runs
	for _, pm := range st.Models {
		fn, ok := prog.FuncIndex(pm.Fn)
		if !ok {
			return nil, fmt.Errorf("core: state references unknown function %q", pm.Fn)
		}
		inc, err := decodeExamples(pm.Examples, cfg.Tree)
		if err != nil {
			return nil, fmt.Errorf("core: load: function %q: %w", pm.Fn, err)
		}
		ev.models[fn] = inc
	}
	return ev, nil
}
