package serve

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"evolvevm/internal/traffic"
)

// LoadConfig parameterizes a deterministic load test: a generated
// workload (traffic.GenConfig) served by a Server (Config). Everything
// the test observes virtually is a pure function of these two configs;
// only wall-clock throughput and latency vary with the host.
type LoadConfig struct {
	Traffic traffic.GenConfig
	Server  Config
	// Compare additionally replays the workload against an Isolated
	// server — the no-shared-learning control arm — to measure what the
	// shared tier buys a cold tenant's first request.
	Compare bool
}

// LoadReport summarizes one load test. Checksums and virtual quantiles
// are deterministic; wall metrics are reporting-only. WallP50 and WallP99
// are exact nearest-rank percentiles of the executed requests' wall
// times.
type LoadReport struct {
	Requests int   `json:"requests"`
	Chains   int   `json:"chains"`
	Tenants  int   `json:"tenants"`
	Traps    int64 `json:"traps"`
	Canceled int64 `json:"canceled"`

	WallSeconds float64 `json:"wall_seconds"`
	Throughput  float64 `json:"throughput_rps"`
	WallP50     int64   `json:"wall_p50_ns"`
	WallP99     int64   `json:"wall_p99_ns"`
	VirtualP50  int64   `json:"virtual_p50"`
	VirtualP99  int64   `json:"virtual_p99"`

	TenantChecksums map[string]uint64 `json:"tenant_checksums"`
	// Checksum folds every tenant's checksum in sorted tenant order —
	// the single drift-gate value CI compares across runs.
	Checksum uint64 `json:"checksum"`

	// Cold-start comparison (Compare; requires Traffic.ColdTenant).
	ColdShared   *ColdStart `json:"cold_shared,omitempty"`
	ColdIsolated *ColdStart `json:"cold_isolated,omitempty"`
}

// ColdStart summarizes the cold tenant's prediction trajectory. The
// shared-vs-isolated benefit shows up two ways: FirstPredictedSeq
// arrives earlier (a tier-seeded learner is already past — or nearly
// past — the confidence threshold, an isolated one must climb from
// zero), and PredictedCount is higher over the same request sequence.
type ColdStart struct {
	Seq       int64   `json:"seq"`
	Predicted bool    `json:"predicted"`
	Cycles    int64   `json:"cycles"`
	Speedup   float64 `json:"speedup"`
	// FirstPredictedSeq is the sequence number of the tenant's first
	// predicted outcome, or -1 if no request ever predicted.
	FirstPredictedSeq int64 `json:"first_predicted_seq"`
	// PredictedCount counts predicted outcomes across all of the
	// tenant's deterministic requests.
	PredictedCount int `json:"predicted_count"`
	// Requests counts the tenant's deterministic outcomes.
	Requests int `json:"requests"`
}

// LoadTest generates the workload, serves it, and reports. The returned
// trace carries recorded outcomes and can be saved for byte-identical
// re-runs with Replay. Both servers record (Config.Record): the report
// reads their outcomes.
func LoadTest(ctx context.Context, cfg LoadConfig) (*LoadReport, *traffic.Trace, error) {
	tr, err := traffic.Generate(cfg.Traffic)
	if err != nil {
		return nil, nil, err
	}
	if len(cfg.Server.Benches) == 0 {
		cfg.Server.Benches = cfg.Traffic.Benches
	}
	cfg.Server.Record = true
	s, err := New(cfg.Server)
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()

	start := time.Now()
	if err := s.Run(ctx, tr); err != nil {
		return nil, nil, err
	}
	wall := time.Since(start)
	if err := s.LedgerBalanced(); err != nil {
		return nil, nil, err
	}

	rep := report(s, len(tr.Requests), wall)
	tr.Outcomes = s.Outcomes()
	if cfg.Traffic.ColdTenant != "" {
		rep.ColdShared = coldStart(s, cfg.Traffic.ColdTenant)
	}

	if cfg.Compare {
		iso := cfg.Server
		iso.Isolated = true
		si, err := New(iso)
		if err != nil {
			return nil, nil, err
		}
		defer si.Close()
		if err := si.Run(ctx, tr); err != nil {
			return nil, nil, err
		}
		if cfg.Traffic.ColdTenant != "" {
			rep.ColdIsolated = coldStart(si, cfg.Traffic.ColdTenant)
		}
	}
	return rep, tr, nil
}

// report summarizes a drained recording server.
func report(s *Server, requests int, wall time.Duration) *LoadReport {
	st := s.StatsNow()
	sums := s.TenantChecksums()
	var walls []int64
	for _, resp := range s.recorded() {
		if resp.Wall > 0 { // replayed cancellations never executed
			walls = append(walls, resp.Wall.Nanoseconds())
		}
	}
	slices.Sort(walls)
	tenants := make([]string, 0, len(sums))
	for t := range sums {
		tenants = append(tenants, t)
	}
	slices.Sort(tenants)
	var fold fnvState
	fold.sum = 14695981039346656037
	for _, t := range tenants {
		for _, b := range []byte(t) {
			fold.fold(uint64(b))
		}
		fold.fold(sums[t])
	}
	rep := &LoadReport{
		Requests:        requests,
		Chains:          st.Chains,
		Tenants:         st.Tenants,
		Traps:           st.Traps,
		Canceled:        st.Canceled,
		WallSeconds:     wall.Seconds(),
		WallP50:         nearestRank(walls, 50),
		WallP99:         nearestRank(walls, 99),
		VirtualP50:      st.VirtualP50,
		VirtualP99:      st.VirtualP99,
		TenantChecksums: sums,
		Checksum:        fold.sum,
	}
	if wall > 0 {
		rep.Throughput = float64(requests) / wall.Seconds()
	}
	return rep
}

// nearestRank returns the pct-th percentile (1 ≤ pct ≤ 100) of sorted by
// the nearest-rank method: the smallest value with at least pct% of the
// values at or below it, or 0 when sorted is empty.
func nearestRank(sorted []int64, pct int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[(pct*len(sorted)+99)/100-1] // rank ⌈pct/100 × n⌉
}

// coldStart extracts the cold tenant's prediction trajectory.
func coldStart(s *Server, tenant string) *ColdStart {
	var resps []*Response
	for _, resp := range s.recorded() {
		if resp.Tenant != tenant || resp.Status == traffic.StatusCanceled {
			continue
		}
		resps = append(resps, resp)
	}
	if len(resps) == 0 {
		return nil
	}
	cs := &ColdStart{
		Seq:               resps[0].Seq,
		Predicted:         resps[0].Predicted,
		Cycles:            resps[0].Cycles,
		Speedup:           resps[0].Speedup,
		FirstPredictedSeq: -1,
		Requests:          len(resps),
	}
	for _, resp := range resps {
		if resp.Predicted {
			cs.PredictedCount++
			if cs.FirstPredictedSeq < 0 {
				cs.FirstPredictedSeq = resp.Seq
			}
		}
	}
	return cs
}

// WriteBench emits the report as go-bench-format lines so cmd/benchreport
// folds serving latency and throughput into the benchmark trajectory.
// ns/op is wall p50; p99-ns, req/s, and the virtual quantiles ride along
// as custom metrics.
func (r *LoadReport) WriteBench(w io.Writer, name string) {
	fmt.Fprintf(w, "Benchmark%s 	%8d	%12d ns/op	%12d p99-ns	%12.1f req/s	%12d vp50-cycles	%12d vp99-cycles\n",
		name, r.Requests, r.WallP50, r.WallP99, r.Throughput, r.VirtualP50, r.VirtualP99)
}
