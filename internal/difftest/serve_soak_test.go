package difftest

import (
	"context"
	"fmt"
	"testing"

	"evolvevm/internal/exec"
	"evolvevm/internal/harness"
	"evolvevm/internal/programs"
	"evolvevm/internal/serve"
	"evolvevm/internal/traffic"
)

func programByName(t *testing.T, name string) *programs.Benchmark {
	t.Helper()
	b := programs.ByName(name)
	if b == nil {
		t.Fatalf("unknown benchmark %q", name)
	}
	return b
}

// This file extends the substrate soak through the serving stack: the
// same multi-tenant trace served on every host execution tier must
// produce byte-identical virtual outcomes, and the serve path must agree
// with a direct interpreter-harness oracle run outside the server.

// serveTiers pins the serving front end onto each of the three host
// execution tiers: the original per-instruction switch, the fused
// batching switch, and the register-converted trace tier, which is the
// production default.
var serveTiers = []struct {
	name string
	sub  exec.Substrate
}{
	{"switch", exec.Substrate{NoBatching: true}},
	{"fused", exec.Substrate{NoRegTier: true}},
	{"reg", exec.Substrate{}},
}

// soakTrace is the shared serving workload: three tenants over two
// input-sensitive benchmarks, dense arrivals, no deadlines.
func soakTrace(t *testing.T, requests int) (*traffic.Trace, []string) {
	t.Helper()
	benches := []string{"compress", "search"}
	tr, err := traffic.Generate(traffic.GenConfig{
		Seed:     17,
		Requests: requests,
		Tenants:  3,
		Benches:  benches,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr, benches
}

func serveSoakConfig(benches []string, sc harness.Scenario, sub exec.Substrate) serve.Config {
	return serve.Config{
		Workers:     4,
		QueueDepth:  32,
		EpochLength: 12,
		Scenario:    sc,
		Seed:        17,
		CorpusSize:  4,
		Benches:     benches,
		Substrate:   sub,
	}
}

// serveTrace replays tr on a recording server and returns its outcomes.
func serveTrace(t *testing.T, cfg serve.Config, tr *traffic.Trace) []traffic.Outcome {
	t.Helper()
	cfg.Record = true
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	if err := s.LedgerBalanced(); err != nil {
		t.Fatal(err)
	}
	return s.Outcomes()
}

// TestServeSoakAcrossHostTiers serves one trace under the Evolve
// scenario on all three host tiers and asserts every virtual outcome —
// status, trap, cycles, and the full response checksum (which folds the
// result value and the prediction bit) — is identical. The host
// execution tier must be unobservable through the entire serving stack:
// admission, chain scheduling, epoch barriers, shared-tier seeding, and
// the learner itself.
func TestServeSoakAcrossHostTiers(t *testing.T) {
	requests := 48
	if !testing.Short() {
		requests = 120
	}
	tr, benches := soakTrace(t, requests)

	base := serveTiers[0]
	ref := serveTrace(t, serveSoakConfig(benches, harness.ScenarioEvolve, base.sub), tr)
	if len(ref) != requests {
		t.Fatalf("reference served %d outcomes, want %d", len(ref), requests)
	}
	for _, tier := range serveTiers[1:] {
		got := serveTrace(t, serveSoakConfig(benches, harness.ScenarioEvolve, tier.sub), tr)
		if len(got) != len(ref) {
			t.Fatalf("tier %s: %d outcomes, want %d", tier.name, len(got), len(ref))
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("tier %s: seq %d diverged from tier %s:\nref: %+v\ngot: %+v",
					tier.name, ref[i].Seq, base.name, ref[i], got[i])
			}
		}
	}
	t.Logf("serve soak: %d outcomes bit-identical across %d host tiers", len(ref), len(serveTiers))
}

// TestServeSoakMatchesDirectOracle serves a trace under the Null
// scenario — no cross-run learning, so every request's outcome is a pure
// function of (benchmark, input) — and checks each outcome against a
// direct harness run that never touches the server: same program, same
// corpus, no pool, no admission, no session. Any disagreement means the
// serving stack itself perturbed an execution. The oracle leg repeats on
// every host tier, so a tier-specific serving bug cannot hide behind the
// tier-invariance test above.
func TestServeSoakMatchesDirectOracle(t *testing.T) {
	requests := 32
	if !testing.Short() {
		requests = 80
	}
	tr, benches := soakTrace(t, requests)

	// Direct oracle: one runner per benchmark at the default substrate.
	type oracleKey struct {
		bench string
		input int
	}
	oracle := make(map[oracleKey]*harness.RunResult)
	runners := make(map[string]*harness.Runner)
	for _, name := range benches {
		r, err := harness.NewRunner(programByName(t, name), 4, 17)
		if err != nil {
			t.Fatal(err)
		}
		runners[name] = r
	}
	for _, req := range tr.Requests {
		r := runners[req.Bench]
		idx := ((req.Input % len(r.Inputs)) + len(r.Inputs)) % len(r.Inputs)
		key := oracleKey{req.Bench, idx}
		if oracle[key] != nil {
			continue
		}
		res, err := r.RunRequest(context.Background(), harness.ScenarioNull, r.Inputs[idx])
		if err != nil {
			t.Fatalf("oracle %s input %d: %v", req.Bench, idx, err)
		}
		oracle[key] = res
	}

	for _, tier := range serveTiers {
		out := serveTrace(t, serveSoakConfig(benches, harness.ScenarioNull, tier.sub), tr)
		for i, o := range out {
			req := tr.Requests[i]
			if o.Seq != req.Seq {
				t.Fatalf("tier %s: outcome %d has seq %d, want %d", tier.name, i, o.Seq, req.Seq)
			}
			r := runners[req.Bench]
			idx := ((req.Input % len(r.Inputs)) + len(r.Inputs)) % len(r.Inputs)
			want := oracle[oracleKey{req.Bench, idx}]
			ctx := fmt.Sprintf("tier %s seq %d %s/%s input %s",
				tier.name, o.Seq, req.Tenant, req.Bench, r.Inputs[idx].ID)
			wantStatus := traffic.StatusOK
			if want.Trap != "" {
				wantStatus = traffic.StatusTrap
			}
			if o.Status != wantStatus || o.Trap != want.Trap {
				t.Fatalf("%s: serve status %q trap %q, oracle status %q trap %q",
					ctx, o.Status, o.Trap, wantStatus, want.Trap)
			}
			if o.Cycles != want.Cycles {
				t.Fatalf("%s: serve cycles %d, oracle cycles %d", ctx, o.Cycles, want.Cycles)
			}
		}
	}
	t.Logf("serve soak: %d outcomes match the direct oracle on all host tiers", len(tr.Requests))
}
