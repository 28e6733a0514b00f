package main

import (
	"context"
	"fmt"
	"math"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/exec"
	"evolvevm/internal/harness"
	"evolvevm/internal/programs"
	"evolvevm/internal/traffic"
)

// plainSubstrate turns every host-performance mechanism off: no shared
// code cache, no batching or fusion, no closure or register tiers, no
// OSR or inlining, inline compilation only.
var plainSubstrate = exec.Substrate{
	NoCodeCache:  true,
	NoFusion:     true,
	NoBatching:   true,
	NoClosures:   true,
	NoRegTier:    true,
	NoOSR:        true,
	NoCallInline: true,
	SyncCompile:  true,
}

// refOut is what the reference produced for one input: a value, or a
// trap message.
type refOut struct {
	Value bytecode.Value
	Trap  string
}

// reference is the independent output oracle: a plain harness.Runner per
// benchmark, run under ScenarioNull (no optimizer, no learner) on the
// plain substrate. A program's value and trap are a function of its input
// alone, so every served or batch outcome must match it.
type reference struct {
	runners map[string]*harness.Runner
	want    map[string]refOut // bench/inputID → reference outcome
}

func newReference(benches []string, corpus int, seed int64) (*reference, error) {
	ref := &reference{runners: make(map[string]*harness.Runner), want: make(map[string]refOut)}
	for _, name := range benches {
		b := programs.ByName(name)
		if b == nil {
			return nil, fmt.Errorf("reference: unknown benchmark %q", name)
		}
		r, err := harness.NewRunner(b, corpus, seed)
		if err != nil {
			return nil, fmt.Errorf("reference: %s: %w", name, err)
		}
		r.Substrate = plainSubstrate
		ref.runners[name] = r
	}
	return ref, nil
}

// outcome returns the reference outcome of one input, running it on first
// use.
func (ref *reference) outcome(ctx context.Context, bench, inputID string) (refOut, error) {
	key := bench + "/" + inputID
	if out, ok := ref.want[key]; ok {
		return out, nil
	}
	r := ref.runners[bench]
	if r == nil {
		return refOut{}, fmt.Errorf("reference: benchmark %q not loaded", bench)
	}
	for _, in := range r.Inputs {
		if in.ID != inputID {
			continue
		}
		res, err := r.RunRequest(ctx, harness.ScenarioNull, in)
		if err != nil {
			return refOut{}, fmt.Errorf("reference: %s: %w", key, err)
		}
		out := refOut{Value: res.Result, Trap: res.Trap}
		ref.want[key] = out
		return out, nil
	}
	return refOut{}, fmt.Errorf("reference: %s: no such input in the corpus", key)
}

// check compares one outcome with the reference. Canceled or unknown
// statuses never match: the benchmark sets no deadlines.
func (ref *reference) check(ctx context.Context, bench, inputID, status string, value bytecode.Value, trap string) error {
	want, err := ref.outcome(ctx, bench, inputID)
	if err != nil {
		return err
	}
	switch {
	case status == traffic.StatusOK && want.Trap == "" && sameValue(value, want.Value):
		return nil
	case status == traffic.StatusTrap && want.Trap != "" && trap == want.Trap:
		return nil
	}
	return fmt.Errorf("%s/%s: got status %q value %+v trap %q, reference value %+v trap %q",
		bench, inputID, status, value, trap, want.Value, want.Trap)
}

// sameValue compares values bit for bit, floats included.
func sameValue(a, b bytecode.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F)
}
