package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"evolvevm/internal/core"
	"evolvevm/internal/harness"
	"evolvevm/internal/programs"
	"evolvevm/internal/session"
)

// batchPass is one regeneration of the paper's Figure 10 and Figure 8,
// each in a fresh process like an expdriver invocation.
type batchPass struct {
	SetupS float64 `json:"setup_s"`
	BatchS float64 `json:"batch_s"`
	Fig10S float64 `json:"fig10_s"`
	Fig8S  float64 `json:"fig8_s"`
	// Runs counts the scenario runs both figures execute.
	Runs int `json:"runs"`
	// Medians are Figure 10's per-benchmark Evolve median speedups.
	Medians []float64 `json:"medians"`
	// Predicted of Decisions Figure 8 Evolve runs passed the
	// discriminative guard.
	Predicted     int     `json:"predicted"`
	Decisions     int     `json:"decisions"`
	HeapMB        float64 `json:"heap_mb"`
	AllocKBPerRun float64 `json:"alloc_kb_per_run"`
	GCCycles      float64 `json:"gc_cycles"`
	CheckpointMs  float64 `json:"checkpoint_ms"`
	// Digest hashes both figures' results; passes of one seed must agree.
	Digest   uint64   `json:"digest"`
	Problems []string `json:"problems,omitempty"`
}

func (w *workload) batchOptions(seed int64) harness.Options {
	// Runs and Corpus are pinned rather than left to Quick's defaults so
	// the replay can reproduce Figure 10's run sequences exactly.
	return harness.Options{Seed: seed, Quick: true, Runs: batchRuns, Corpus: w.Corpus, Parallel: true}
}

// benchOrder is every benchmark's name in an order drawn from seed: the
// order Figure 10 submits them to the scheduler.
func benchOrder(seed int64) []string {
	all := programs.All()
	names := make([]string, len(all))
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(all)) {
		names[i] = all[j].Name
	}
	return names
}

// runBatchPass times runner construction (set-up), then Figure 10, its
// benchmarks submitted in the order orderSeed draws, and Figure 8, both
// at pass's experiment seed. With verify it also replays Figure 10
// serially, untimed, and checks its rows and every run's value against
// the reference.
func runBatchPass(ctx context.Context, w *workload, pass int, orderSeed int64, verify bool) (*batchPass, error) {
	seed := batchSeed(pass)
	sess := session.New()
	opts := w.batchOptions(seed)
	opts.Session = sess
	fig10 := opts
	fig10.Benchmarks = benchOrder(orderSeed)
	p := &batchPass{}
	start := time.Now()
	for _, b := range programs.All() {
		if _, err := harness.NewRunner(b, opts.Corpus, seed); err != nil {
			return nil, err
		}
	}
	p.SetupS = time.Since(start).Seconds()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	rows, err := harness.Figure10(ctx, io.Discard, fig10)
	if err != nil {
		return nil, err
	}
	p.Fig10S = time.Since(t).Seconds()
	t = time.Now()
	series, err := harness.Figure8(ctx, io.Discard, opts)
	if err != nil {
		return nil, err
	}
	p.Fig8S = time.Since(t).Seconds()
	p.BatchS = p.Fig10S + p.Fig8S
	runtime.ReadMemStats(&after)

	p.Runs = 2 * batchRuns * len(rows)
	// Rows come in submission order; the medians, digest and replay
	// check use the canonical benchmark order.
	canon := make(map[string]int)
	for i, b := range programs.All() {
		canon[b.Name] = i
	}
	sort.Slice(rows, func(i, j int) bool { return canon[rows[i].Program] < canon[rows[j].Program] })
	for _, r := range rows {
		p.Medians = append(p.Medians, r.Evolve.Median)
	}
	threshold := core.DefaultConfig().ConfidenceThreshold
	for _, s := range series {
		p.Runs += len(s.EvolveSpd) + len(s.RepSpd)
		// A run predicts when the confidence left by the run before it
		// passes the guard.
		for k := range s.Confidence {
			p.Decisions++
			if k > 0 && s.Confidence[k-1] > threshold {
				p.Predicted++
			}
		}
	}
	p.AllocKBPerRun = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(p.Runs)
	p.GCCycles = float64(after.NumGC - before.NumGC)
	// Two collections: the first only moves sync.Pool contents to the
	// victim cache, the second frees them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	p.HeapMB = float64(after.HeapAlloc) / (1 << 20)
	cp := time.Now()
	if err := sess.Save(io.Discard); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	p.CheckpointMs = msSince(cp)

	raw, err := json.Marshal(struct {
		Rows   []harness.Fig10Row
		Series []harness.Fig8Series
	}{rows, series})
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write(raw)
	p.Digest = h.Sum64()

	if verify {
		rep, err := replayBatch(ctx, w, seed, false)
		if err != nil {
			return nil, err
		}
		p.Problems = append(p.Problems, rep.Problems...)
		if len(rep.Evolve) != len(rows) {
			p.Problems = append(p.Problems, fmt.Sprintf("figure 10 has %d rows, its serial replay %d", len(rows), len(rep.Evolve)))
		}
		for i, r := range rows {
			if i >= len(rep.Evolve) || r.Evolve != rep.Evolve[i] || r.Rep != rep.Rep[i] {
				p.Problems = append(p.Problems, fmt.Sprintf("figure 10 row %s differs from its serial replay", r.Program))
			}
		}
	}
	return p, nil
}
