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

type persistFeature struct {
	Name string  `json:"name"`
	Kind string  `json:"kind"`
	Num  float64 `json:"num,omitempty"`
	Cat  string  `json:"cat,omitempty"`
}

type persistExample struct {
	Label    int              `json:"label"`
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
		pm := persistModel{Fn: ev.prog.Funcs[fn].Name}
		for _, ex := range m.Examples() {
			pe := persistExample{Label: ex.Label}
			for _, f := range ex.Features {
				pf := persistFeature{Name: f.Name, Kind: f.Kind.String(), Num: f.Num, Cat: f.Cat}
				pe.Features = append(pe.Features, pf)
			}
			pm.Examples = append(pm.Examples, pe)
		}
		st.Models = append(st.Models, pm)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(st)
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
	st := persistGCState{Confidence: s.conf, Runs: s.runs}
	for _, ex := range s.model.Examples() {
		pe := persistExample{Label: ex.Label}
		for _, f := range ex.Features {
			pe.Features = append(pe.Features,
				persistFeature{Name: f.Name, Kind: f.Kind.String(), Num: f.Num, Cat: f.Cat})
		}
		st.Examples = append(st.Examples, pe)
	}
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
	s := NewGCSelector(cfg)
	s.conf = st.Confidence
	s.runs = st.Runs
	for _, pe := range st.Examples {
		ex := cart.Example{Label: pe.Label}
		for _, pf := range pe.Features {
			if pf.Kind == xicl.Categorical.String() {
				ex.Features = append(ex.Features, xicl.CatFeature(pf.Name, pf.Cat))
			} else {
				ex.Features = append(ex.Features, xicl.NumFeature(pf.Name, pf.Num))
			}
		}
		s.model.Add(ex)
	}
	return s, nil
}

// Fork returns the learner LoadEvolver(prog, cfg, ·) builds from ev's Save
// output, without the encoding: ev's confidence, run count and per-method
// examples, matched to prog by function name, with an empty run history
// and stale trees. Example histories are shared copy-on-write
// (cart.Incremental.Fork), so forking costs O(methods) and later training
// on either learner never reaches the other.
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
// output, sharing its examples copy-on-write like Evolver.Fork.
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
		inc := cart.NewIncremental(cfg.Tree)
		for _, pe := range pm.Examples {
			ex := cart.Example{Label: pe.Label}
			for _, pf := range pe.Features {
				var f xicl.Feature
				if pf.Kind == xicl.Categorical.String() {
					f = xicl.CatFeature(pf.Name, pf.Cat)
				} else {
					f = xicl.NumFeature(pf.Name, pf.Num)
				}
				ex.Features = append(ex.Features, f)
			}
			inc.Add(ex)
		}
		ev.models[fn] = inc
	}
	return ev, nil
}
