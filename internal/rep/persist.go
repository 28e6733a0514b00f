package rep

import (
	"encoding/json"
	"fmt"
	"io"

	"evolvevm/internal/bytecode"
)

// The repository's persistent state is its raw work history: plans are
// derived on demand from the history and the current compiler cost
// model, so they are never stored.

type persistState struct {
	Program string    `json:"program"`
	Work    [][]int64 `json:"work"`
}

// Save writes the repository's recorded history as JSON.
func (r *Repository) Save(w io.Writer) error {
	st := persistState{Program: r.prog.Name, Work: r.workHist}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(st)
}

// LoadRepository restores a repository saved by Save, binding it to prog.
func LoadRepository(prog *bytecode.Program, rd io.Reader) (*Repository, error) {
	var st persistState
	if err := json.NewDecoder(rd).Decode(&st); err != nil {
		return nil, fmt.Errorf("rep: load: %w", err)
	}
	return bind(prog, st.Program, st.Work)
}

// Fork returns the repository LoadRepository(prog, ·) builds from r's
// Save output, without the encoding: the same work history and an empty
// plan cache. The history is shared with its capacity clipped, so the
// first Record on either side copies it; recorded rows are never modified.
func (r *Repository) Fork(prog *bytecode.Program) (*Repository, error) {
	n := len(r.workHist)
	return bind(prog, r.prog.Name, r.workHist[:n:n])
}

// bind checks a recorded history against prog and wraps it.
func bind(prog *bytecode.Program, name string, work [][]int64) (*Repository, error) {
	if name != prog.Name {
		return nil, fmt.Errorf("rep: state is for program %q, not %q", name, prog.Name)
	}
	nf := len(prog.Funcs)
	for i, run := range work {
		if len(run) != nf {
			return nil, fmt.Errorf("rep: run %d records %d functions, program has %d", i, len(run), nf)
		}
	}
	repo := NewRepository(prog)
	repo.workHist = work
	return repo, nil
}
