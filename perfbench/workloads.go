package main

import (
	"strconv"

	"evolvevm/internal/stats"
	"evolvevm/internal/traffic"
)

// workload is one traffic mix of the benchmark. Every field is fixed here
// so that two commits measured with the same seed see the same inputs and
// the same request counts — and therefore the same learner history
// lengths, which is what per-request cost depends on.
type workload struct {
	Name string
	// Kind selects the pass implementation: "closed" (closed loop in
	// process through Server.TrySubmit), "http" (closed loop over
	// loopback HTTP), or "batch" (the paper's figures, no serving layer).
	Kind string

	// Serving workloads: the traffic.Generate mix and the server config.
	Tenants int
	Benches []string
	// Corpus is the per-benchmark input corpus size; the corpus itself is
	// drawn from corpusSeed, so --seed varies the request sequence while
	// per-input costs stay the same from seed to seed.
	Corpus int
	Epoch  int
	// MeanGapUs is the Poisson inter-arrival mean. The closed loops ignore
	// arrival times; it decides where the cold tenant's requests fall.
	MeanGapUs    int64
	ColdTenant   string
	ColdRequests int
	// Warm requests are replayed untimed before the window (set-up);
	// Timed requests form one pass's timed window.
	Warm  int
	Timed int

	// LimitMs is the latency limit behind slo_met_frac: for serving
	// workloads per request, for paper-batch per regeneration of the
	// figures.
	LimitMs float64
}

// corpusSeed generates the serving workloads' input corpora (the CI
// load-test seed).
const corpusSeed = 42

// workloads are the benchmark's traffic mixes; see README.md for why each
// was chosen.
var workloads = []*workload{
	{
		// Per-request cost apart from HTTP and chain churn: eight chains
		// with long learner histories (the corpus of
		// BenchmarkServeHotPath), driven closed loop in process so a
		// host stall delays only the requests in flight.
		Name:    "warm-closed",
		Kind:    "closed",
		Tenants: 4,
		Benches: []string{"compress", "search"},
		Corpus:  4,
		Epoch:   32,
		Warm:    400,
		Timed:   1000,
		LimitMs: 25,
	},
	{
		// The CI load-test mix (Zipf tenants in the hundreds, four
		// benchmarks, epoch 64) plus a late cold tenant, driven closed
		// loop over HTTP: most requests land on young chains, so fork,
		// restore, feature and baseline misses are frequent.
		Name:         "churn-http",
		Kind:         "http",
		Tenants:      512,
		Benches:      []string{"compress", "search", "euler", "moldyn"},
		Corpus:       4,
		Epoch:        64,
		MeanGapUs:    100, // as the CI load test
		ColdTenant:   "cold",
		ColdRequests: 16,
		Warm:         200,
		Timed:        1500,
		LimitMs:      25,
	},
	{
		// Serve-free control: Figure 10 and Figure 8 in quick mode, at
		// the batchSeeds experiment seeds, 16 runs per benchmark over a
		// corpus of 32 so that runs rarely repeat an input.
		Name:    "paper-batch",
		Kind:    "batch",
		Corpus:  32,
		LimitMs: 8000,
	},
}

// batchRuns pins the runs per benchmark of the paper-batch figures.
const batchRuns = 16

// batchSeeds is the number of fixed experiment seeds paper-batch
// regenerates the figures at, one per pass, cycling. A seed's corpus
// sets a pass's time (mtrt and raytracer scenes differ in cost more than
// tenfold; passes of different seeds spread by ±20%), so every run
// regenerates the same seeds, as the serving workloads keep one corpus.
// --seed orders the benchmarks each pass submits to the scheduler.
const batchSeeds = 10

// batchSeed is the experiment seed of paper-batch pass i.
func batchSeed(pass int) int64 {
	return stats.StreamSeed(corpusSeed, "perfbench", "batch", strconv.Itoa(pass%batchSeeds))
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// genConfig is the traffic generator config of a serving workload.
func (w *workload) genConfig(seed int64) traffic.GenConfig {
	return traffic.GenConfig{
		Seed:          seed,
		Requests:      w.Warm + w.Timed - w.ColdRequests,
		Tenants:       w.Tenants,
		Benches:       w.Benches,
		MeanGapMicros: w.MeanGapUs,
		ColdTenant:    w.ColdTenant,
		ColdRequests:  w.ColdRequests,
	}
}
