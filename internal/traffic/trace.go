package traffic

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// TraceVersion is the current trace file format version. Loaders reject
// other versions rather than guess: a trace is a reproducibility
// artifact, and silently reinterpreting an old one would defeat it.
const TraceVersion = 1

// Outcome records what one request's run produced when the trace was
// captured live, keyed by the request's Seq. Replay uses it two ways:
// the deterministic fields (Status, Checksum, Cycles) are the golden
// values replay must reproduce, and Status "canceled" marks runs that a
// wall-clock deadline aborted — those never committed learner state, so
// replay skips executing them instead of depending on live timing.
type Outcome struct {
	Seq int64 `json:"seq"`
	// Status is "ok", "trap", or "canceled".
	Status string `json:"status"`
	// Checksum is the request's virtual-observable checksum (0 for
	// canceled runs, which have none).
	Checksum uint64 `json:"checksum,omitempty"`
	// Cycles is the run's total virtual cycles (0 for canceled runs).
	Cycles int64 `json:"cycles,omitempty"`
	// Trap is the normalized runtime-error message for Status "trap".
	Trap string `json:"trap,omitempty"`
}

// Run statuses recorded in Outcome.Status.
const (
	StatusOK       = "ok"
	StatusTrap     = "trap"
	StatusCanceled = "canceled"
)

// Trace is a complete replayable workload: the generator config it came
// from (if generated), the request sequence, and — once run — the
// recorded outcomes.
type Trace struct {
	Version  int       `json:"version"`
	Config   GenConfig `json:"config"`
	Requests []Request `json:"requests"`
	Outcomes []Outcome `json:"outcomes,omitempty"`
}

// OutcomeMap indexes the recorded outcomes by Seq, building the map on
// each call.
func (t *Trace) OutcomeMap() map[int64]Outcome {
	m := make(map[int64]Outcome, len(t.Outcomes))
	for _, o := range t.Outcomes {
		m[o.Seq] = o
	}
	return m
}

// Save writes the trace to w as indented JSON. The encoding is
// deterministic (fixed field order, sorted map keys are not involved),
// so identical traces serialize to identical bytes — the property the
// golden replay tests pin.
func (t *Trace) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(t)
}

// Load reads a trace written by Save and validates its version and
// request numbering.
func Load(r io.Reader) (*Trace, error) {
	var t Trace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("traffic: decode trace: %w", err)
	}
	if t.Version != TraceVersion {
		return nil, fmt.Errorf("traffic: trace version %d, want %d", t.Version, TraceVersion)
	}
	for i, req := range t.Requests {
		if req.Seq != int64(i) {
			return nil, fmt.Errorf("traffic: request %d has seq %d; traces must be densely numbered", i, req.Seq)
		}
		if req.Tenant == "" || req.Bench == "" {
			return nil, fmt.Errorf("traffic: request %d missing tenant or bench", i)
		}
	}
	return &t, nil
}

// WriteFile saves the trace to path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a trace from path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
