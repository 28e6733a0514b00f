package traffic

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden trace testdata")

// goldenConfig is the committed reference workload: 8 warm tenants, two
// benchmarks, Poisson arrivals, plus a cold tenant joining at 75%.
func goldenConfig() GenConfig {
	return GenConfig{
		Seed:          42,
		Requests:      96,
		Tenants:       8,
		Benches:       []string{"compress", "matmul"},
		MeanGapMicros: 500,
		ColdTenant:    "cold",
		ColdRequests:  8,
	}
}

const goldenPath = "testdata/golden_trace.json"

// TestGoldenTrace pins the generator: the same config must serialize to
// the exact committed bytes, release after release. Any intentional
// change to the generator or the trace format is a format break that
// must re-mint the golden (go test ./internal/traffic -update) and bump
// TraceVersion if old traces no longer replay identically.
func TestGoldenTrace(t *testing.T) {
	tr, err := Generate(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to mint the golden)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("generated trace differs from committed golden %s;\nif the generator changed intentionally, re-run with -update", goldenPath)
	}
}

// TestGenerateDeterministic regenerates the same config many times —
// including from parallel subtests — and demands identical request
// sequences: order, tenant assignment, inputs, arrivals.
func TestGenerateDeterministic(t *testing.T) {
	cfg := goldenConfig()
	ref, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		t.Run(fmt.Sprintf("par%d", i), func(t *testing.T) {
			t.Parallel()
			got, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Requests) != len(ref.Requests) {
				t.Fatalf("got %d requests, want %d", len(got.Requests), len(ref.Requests))
			}
			for j := range got.Requests {
				if got.Requests[j] != ref.Requests[j] {
					t.Fatalf("request %d differs:\ngot  %+v\nwant %+v", j, got.Requests[j], ref.Requests[j])
				}
			}
		})
	}
}

// TestTraceRoundTrip checks Save→Load is lossless, including recorded
// outcomes.
func TestTraceRoundTrip(t *testing.T) {
	tr, err := Generate(GenConfig{Seed: 7, Requests: 10, Tenants: 3, Benches: []string{"compress"}})
	if err != nil {
		t.Fatal(err)
	}
	tr.Outcomes = []Outcome{
		{Seq: 0, Status: StatusOK, Checksum: 0xdeadbeef, Cycles: 1234},
		{Seq: 3, Status: StatusTrap, Trap: "division by zero"},
		{Seq: 7, Status: StatusCanceled},
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Requests) != len(tr.Requests) {
		t.Fatalf("got %d requests, want %d", len(got.Requests), len(tr.Requests))
	}
	for i := range got.Requests {
		if got.Requests[i] != tr.Requests[i] {
			t.Fatalf("request %d differs after round trip", i)
		}
	}
	om := got.OutcomeMap()
	if len(om) != 3 || om[3].Trap != "division by zero" || om[7].Status != StatusCanceled {
		t.Fatalf("outcomes lost in round trip: %+v", got.Outcomes)
	}
	// Re-save must be byte-identical: the trace format is canonical.
	var buf2 bytes.Buffer
	if err := got.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("trace serialization is not canonical across a round trip")
	}
}

// TestLoadRejects checks the loader's validation paths.
func TestLoadRejects(t *testing.T) {
	for _, tc := range []struct {
		name, blob string
	}{
		{"bad version", `{"version":99,"config":{},"requests":[]}`},
		{"sparse seqs", `{"version":1,"config":{},"requests":[{"seq":5,"tenant":"t0","bench":"b","input":0,"arrival_us":0}]}`},
		{"missing tenant", `{"version":1,"config":{},"requests":[{"seq":0,"tenant":"","bench":"b","input":0,"arrival_us":0}]}`},
		{"garbage", `{{{`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Load(bytes.NewReader([]byte(tc.blob))); err == nil {
				t.Fatal("Load accepted an invalid trace")
			}
		})
	}
}

// TestGenerateColdTenant checks the cold-start probe shape: the cold
// tenant's first request appears only after the configured fraction of
// warm traffic, and all its requests target the first benchmark.
func TestGenerateColdTenant(t *testing.T) {
	cfg := goldenConfig()
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := -1
	cold := 0
	for i, req := range tr.Requests {
		if req.Tenant == cfg.ColdTenant {
			cold++
			if first < 0 {
				first = i
			}
			if req.Bench != cfg.Benches[0] {
				t.Fatalf("cold request %d targets %q, want %q", i, req.Bench, cfg.Benches[0])
			}
		}
	}
	if cold != cfg.ColdRequests {
		t.Fatalf("cold tenant has %d requests, want %d", cold, cfg.ColdRequests)
	}
	if min := cfg.Requests / 2; first < min {
		t.Fatalf("cold tenant first appears at request %d, want ≥ %d", first, min)
	}
	// Warm tenants use the configured name shape and count.
	for i, req := range tr.Requests {
		if req.Tenant == cfg.ColdTenant {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(req.Tenant, "t%d", &n); err != nil || n < 0 || n >= cfg.Tenants {
			t.Fatalf("request %d has unexpected tenant %q", i, req.Tenant)
		}
	}
	// Arrivals are nondecreasing — replay pacing depends on it.
	for i := 1; i < len(tr.Requests); i++ {
		if tr.Requests[i].ArrivalMicros < tr.Requests[i-1].ArrivalMicros {
			t.Fatalf("arrival order violated at %d: %d after %d",
				i, tr.Requests[i].ArrivalMicros, tr.Requests[i-1].ArrivalMicros)
		}
	}
}

// TestHistogramBuckets checks exact bucket placement and the quantile
// upper-bound rule.
func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 1, 2, 3, 4, 7, 8, 1 << 20} {
		h.Observe(v)
	}
	wantBuckets := map[int]int64{0: 1, 1: 2, 2: 2, 3: 2, 4: 1, 21: 1}
	for i, c := range h.Buckets {
		if c != wantBuckets[i] {
			t.Fatalf("bucket %d has %d, want %d", i, c, wantBuckets[i])
		}
	}
	if h.Count != 9 || h.Sum != 26+1<<20 {
		t.Fatalf("count=%d sum=%d", h.Count, h.Sum)
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("q0 = %d, want 0", q)
	}
	if q := h.Quantile(0.5); q != 4 { // rank 4 lands in bucket 2 (values 2,3); upper edge 4
		t.Fatalf("q50 = %d, want 4", q)
	}
	if q := h.Quantile(1); q != 1<<21 {
		t.Fatalf("q1 = %d, want %d", q, int64(1)<<21)
	}
}

// TestHistogramDeterministicAcrossOrder: bucket counts are independent
// of observation order — the property that lets parallel workers merge
// per-worker histograms into a deterministic aggregate.
func TestHistogramDeterministicAcrossOrder(t *testing.T) {
	vals := []int64{5, 100, 3, 77, 1 << 12, 9, 9, 2}
	var fwd, rev Histogram
	for _, v := range vals {
		fwd.Observe(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		rev.Observe(vals[i])
	}
	if fwd != rev {
		t.Fatalf("histogram depends on observation order:\nfwd %v\nrev %v", fwd, rev)
	}
}
