package main

import (
	"context"
	"testing"

	"evolvevm/internal/serve"
)

// TestCorruptedReferenceFailsCheck shows the output check can fail: real
// served outcomes pass against the reference and fail once the reference
// is corrupted.
func TestCorruptedReferenceFailsCheck(t *testing.T) {
	ctx := context.Background()
	w := workloadByName("warm-closed")
	s, err := serve.New(w.serverConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var resps []*serve.Response
	for i := 0; i < 2*w.Corpus; i++ {
		bench := w.Benches[i%len(w.Benches)]
		resp, err := s.Submit(ctx, "t0", bench, i/len(w.Benches), 0)
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, resp)
	}
	if err := s.LedgerBalanced(); err != nil {
		t.Fatal(err)
	}

	ref, err := newReference(w.Benches, w.Corpus, corpusSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resps {
		if err := ref.check(ctx, r.Bench, r.InputID, r.Status, r.Value, r.Trap); err != nil {
			t.Fatalf("served outcome fails the intact reference: %v", err)
		}
	}
	for key, out := range ref.want {
		out.Value.I ^= 1
		out.Value.F += 0.5
		if out.Trap != "" {
			out.Trap += " (corrupted)"
		}
		ref.want[key] = out
	}
	for _, r := range resps {
		if err := ref.check(ctx, r.Bench, r.InputID, r.Status, r.Value, r.Trap); err == nil {
			t.Errorf("%s/%s passes a corrupted reference", r.Bench, r.InputID)
		}
	}
}
