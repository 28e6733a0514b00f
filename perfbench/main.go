// Command perfbench is the repository benchmark. It measures the
// evolvable VM where users meet it — served requests (closed loops in
// process and over HTTP) and the paper's Figure 10/8 batch — and,
// in a separate traced run, the self time of each layer a request
// crosses. See README.md for the workloads and metrics.
//
//	perfbench --workload warm-closed --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a
// human-readable report. Every timed pass runs in a child process of its
// own, so passes start from identical cold state.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"evolvevm/internal/stats"
)

// Passes per run: at least minPasses, then more while the timed windows
// have not yet covered --seconds, up to maxPasses.
const (
	minPasses = 3
	maxPasses = 12
	// runBudget bounds one whole run, children included.
	runBudget = 170 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(parentMain(os.Args[1:]))
}

func parentMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: warm-closed, churn-http or paper-batch")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "timed-window seconds to cover per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	// A signal or the run budget cancels ctx, which kills the running
	// child; the child is always waited for before the run returns.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()

	var res *result
	var err error
	switch {
	case *trace != 0 && w.Kind == "batch":
		res, err = traceBatch(ctx, w, *seed)
	case *trace != 0:
		res, err = traceServe(ctx, w, *seed)
	case w.Kind == "batch":
		res, err = measureBatch(ctx, w, *seed, *seconds)
	default:
		res, err = measureServe(ctx, w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// child runs one pass or replay in a fresh process and decodes its JSON
// result into out.
func child(ctx context.Context, out any, w *workload, seed int64, pass int, mode string, extra ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	args := append([]string{"child", "-mode", mode, "-workload", w.Name,
		"-seed", strconv.FormatInt(seed, 10), "-pass", strconv.Itoa(pass)}, extra...)
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s %s pass: %w", w.Name, mode, err)
	}
	return json.Unmarshal(raw, out)
}

func childMain(args []string) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	mode := fs.String("mode", "pass", "pass or replay")
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	pass := fs.Int("pass", 0, "pass number; each pass draws its inputs from its own seed")
	traced := fs.Bool("traced", false, "replay: time every layer span")
	verify := fs.Bool("verify", false, "batch pass: also check Figure 10 against its serial replay")
	checkpoint := fs.Bool("checkpoint", false, "serving pass: also time Server.Checkpoint after the window")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx := context.Background()
	s := passSeed(*seed, *pass)

	var out any
	var err error
	switch {
	case *mode == "replay" && w.Kind == "batch":
		out, err = replayBatch(ctx, w, batchSeed(*pass), *traced)
	case *mode == "replay":
		out, err = replayServe(ctx, w, s, *traced)
	case w.Kind == "batch":
		out, err = runBatchPass(ctx, w, *pass, s, *verify)
	default:
		out, err = runServePass(ctx, w, s, *checkpoint)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// servePasses runs timed passes until their windows cover seconds.
func servePasses(ctx context.Context, w *workload, seed int64, seconds float64, atLeast int, extra ...string) ([]*servePass, error) {
	var passes []*servePass
	covered := 0.0
	for len(passes) < atLeast || (covered < seconds && len(passes) < maxPasses) {
		p := new(servePass)
		if err := child(ctx, p, w, seed, len(passes), "pass", extra...); err != nil {
			return nil, err
		}
		passes = append(passes, p)
		covered += p.WindowS
	}
	return passes, nil
}

// measureServe reports the serving metrics of a run: each timing is the
// median over passes of that pass's figure, which keeps a pass slowed by
// host noise, or sped up by a cheap request sequence, from setting it.
func measureServe(ctx context.Context, w *workload, seed int64, seconds float64) (*result, error) {
	passes, err := servePasses(ctx, w, seed, seconds, minPasses)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: make(map[string]metric)}
	var p50s, p99s, slo, setup, heap, window, thr, spd []float64
	pred, det := 0, 0
	for i, p := range passes {
		ok, met := 0, 0
		lat := make([]float64, 0, len(p.Recs))
		for _, r := range p.Recs {
			res.Attempted++
			l := r.LatMs
			if r.Fail != "" {
				res.Failed++
				l = math.Inf(1)
			} else {
				ok++
			}
			if l <= w.LimitMs {
				met++
			}
			lat = append(lat, l)
			if r.Det {
				det++
				if r.Pred {
					pred++
				}
			}
			if r.Fail == "" && r.Speedup > 0 {
				spd = append(spd, r.Speedup)
			}
		}
		res.Failed += serveChecks(w, i, p, res)
		setup = append(setup, p.SetupS)
		heap = append(heap, p.HeapMB)
		window = append(window, p.WindowS)
		thr = append(thr, float64(ok)/p.WindowS)
		slo = append(slo, frac(met, len(p.Recs)))
		label := fmt.Sprintf("%s pass %d latency", w.Name, i)
		p50s = append(p50s, percentile(label, lat, 0.50))
		p99s = append(p99s, percentile(label, lat, 0.99))
		fmt.Printf("# %s pass %d: setup %.3f s, window %.3f s, %d requests, %.1f req/s, drift %.3f, heap %.1f MB\n",
			w.Name, i, p.SetupS, p.WindowS, len(p.Recs), thr[len(thr)-1], drift(p.Recs), p.HeapMB)
	}
	fmt.Printf("# %s error_rate %.6f (%d of %d attempted failed)\n", w.Name, frac(res.Failed, res.Attempted), res.Failed, res.Attempted)

	m := res.Metrics
	m["throughput_rps"] = metric{median(thr), "1/s"}
	m["latency_p50_ms"] = metric{median(p50s), "ms"}
	m["latency_p99_ms"] = metric{median(p99s), "ms"}
	m["slo_met_frac"] = metric{median(slo), "frac"}
	m["setup_s"] = metric{median(setup), "s"}
	m["heap_live_mb"] = metric{median(heap), "MB"}
	m["predicted_frac"] = metric{frac(pred, det), "frac"}
	m["speedup_gmean"] = metric{gmean(spd), "x"}
	m["batch_s"] = metric{median(window), "s"}
	return res, nil
}

// measureBatch reports the paper-batch metrics of a run, timings as
// medians over passes as in measureServe. A request is one regeneration
// of both figures, one per pass. A run regenerates them at every one of
// the batchSeeds experiment seeds, then more while the passes have not
// yet covered seconds.
func measureBatch(ctx context.Context, w *workload, seed int64, seconds float64) (*result, error) {
	res := &result{Correct: true, Metrics: make(map[string]metric)}
	var passes []*batchPass
	covered := 0.0
	for len(passes) < batchSeeds || (covered < seconds && len(passes) < 2*batchSeeds) {
		p := new(batchPass)
		var extra []string
		if len(passes) == 0 {
			extra = []string{"-verify"}
		}
		if err := child(ctx, p, w, seed, len(passes), "pass", extra...); err != nil {
			return nil, err
		}
		passes = append(passes, p)
		covered += p.BatchS
	}
	var lat, setup, heap, batch, thr, spd []float64
	slo, pred, decisions := 0, 0, 0
	for i, p := range passes {
		res.Attempted += p.Runs
		res.Failed += reportProblems(w, i, p.Problems, res)
		spd = append(spd, p.Medians...)
		pred += p.Predicted
		decisions += p.Decisions
		lat = append(lat, p.BatchS*1000)
		if p.BatchS*1000 <= w.LimitMs {
			slo++
		}
		setup = append(setup, p.SetupS)
		heap = append(heap, p.HeapMB)
		batch = append(batch, p.BatchS)
		thr = append(thr, float64(p.Runs)/p.BatchS)
		fmt.Printf("# %s pass %d: setup %.3f s, figure10 %.3f s, figure8 %.3f s, %d runs, heap %.1f MB\n",
			w.Name, i, p.SetupS, p.Fig10S, p.Fig8S, p.Runs, p.HeapMB)
	}
	m := res.Metrics
	m["throughput_rps"] = metric{median(thr), "1/s"}
	m["latency_p50_ms"] = metric{percentile(w.Name+" regeneration", lat, 0.50), "ms"}
	m["latency_p99_ms"] = metric{percentile(w.Name+" regeneration", lat, 0.99), "ms"}
	m["slo_met_frac"] = metric{frac(slo, len(lat)), "frac"}
	m["setup_s"] = metric{median(setup), "s"}
	m["heap_live_mb"] = metric{median(heap), "MB"}
	m["predicted_frac"] = metric{frac(pred, decisions), "frac"}
	m["speedup_gmean"] = metric{gmean(spd), "x"}
	m["batch_s"] = metric{median(batch), "s"}
	return res, nil
}

// traceServe is the traced run of a serving workload: one timed pass
// (client-side layer split, drift, memory), then the serial replays.
func traceServe(ctx context.Context, w *workload, seed int64) (*result, error) {
	passes, err := servePasses(ctx, w, seed, 0, 1, "-checkpoint")
	if err != nil {
		return nil, err
	}
	p := passes[0]
	res := &result{Correct: true, Metrics: make(map[string]metric)}
	traced, untraced, err := replays(ctx, w, seed, res)
	if err != nil {
		return nil, err
	}
	var exec, outside []float64
	for _, r := range p.Recs {
		res.Attempted++
		if r.Fail != "" {
			res.Failed++
			continue
		}
		exec = append(exec, r.ExecMs)
		outside = append(outside, r.LatMs-r.ExecMs)
	}
	res.Failed += serveChecks(w, 0, p, res)
	m := layerMetrics(w, res, traced, untraced)
	m["request.execute_p50_ms"] = metric{percentile(w.Name+" execute", exec, 0.50), "ms"}
	m["request.execute_p99_ms"] = metric{percentile(w.Name+" execute", exec, 0.99), "ms"}
	m["request.outside_p50_ms"] = metric{percentile(w.Name+" outside", outside, 0.50), "ms"}
	m["request.outside_p99_ms"] = metric{percentile(w.Name+" outside", outside, 0.99), "ms"}
	m["steady.drift_ratio"] = metric{drift(p.Recs), "ratio"}
	m["runtime.alloc_kb_per_req"] = metric{p.AllocKBPerReq, "KiB"}
	m["runtime.gc_cycles"] = metric{p.GCCycles, "count"}
	m["session.checkpoint_ms"] = metric{p.CheckpointMs, "ms"}
	m["harness.figure10_s"] = metric{0, "s"}
	m["harness.figure8_s"] = metric{0, "s"}
	return res, nil
}

// traceBatch is the traced run of paper-batch: two batch passes (the
// figures' own layer split, drift, memory), then Figure 10's serial
// replays.
func traceBatch(ctx context.Context, w *workload, seed int64) (*result, error) {
	var passes []*batchPass
	for i := 0; i < 2; i++ {
		p := new(batchPass)
		var extra []string
		if i == 0 {
			extra = []string{"-verify"}
		}
		if err := child(ctx, p, w, seed, 0, "pass", extra...); err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	res := &result{Correct: true, Metrics: make(map[string]metric)}
	traced, untraced, err := replays(ctx, w, seed, res)
	if err != nil {
		return nil, err
	}
	p := passes[0]
	for i, q := range passes {
		res.Attempted += q.Runs
		res.Failed += reportProblems(w, i, q.Problems, res)
		if q.Digest != p.Digest {
			fmt.Printf("# %s pass %d: figures differ from pass 0 under the same seed\n", w.Name, i)
			res.Correct = false
		}
	}
	m := layerMetrics(w, res, traced, untraced)
	m["request.execute_p50_ms"] = metric{percentile(w.Name+" run", traced.ExecMs, 0.50), "ms"}
	m["request.execute_p99_ms"] = metric{percentile(w.Name+" run", traced.ExecMs, 0.99), "ms"}
	m["request.outside_p50_ms"] = metric{0, "ms"}
	m["request.outside_p99_ms"] = metric{0, "ms"}
	m["steady.drift_ratio"] = metric{passes[1].BatchS / p.BatchS, "ratio"}
	m["runtime.alloc_kb_per_req"] = metric{p.AllocKBPerRun, "KiB"}
	m["runtime.gc_cycles"] = metric{p.GCCycles, "count"}
	m["session.checkpoint_ms"] = metric{p.CheckpointMs, "ms"}
	m["harness.figure10_s"] = metric{p.Fig10S, "s"}
	m["harness.figure8_s"] = metric{p.Fig8S, "s"}
	return res, nil
}

// replays runs the serial replay untraced and traced, alternating, twice
// each, every one in a fresh process, and keeps the faster of each kind:
// on a shared host, noise only ever slows a replay down. Every replay's
// outcome check counts in res.
func replays(ctx context.Context, w *workload, seed int64, res *result) (traced, untraced *replayResult, err error) {
	for i := 0; i < 2; i++ {
		u, t := new(replayResult), new(replayResult)
		if err := child(ctx, u, w, seed, 0, "replay"); err != nil {
			return nil, nil, err
		}
		if err := child(ctx, t, w, seed, 0, "replay", "-traced"); err != nil {
			return nil, nil, err
		}
		for _, rep := range []*replayResult{u, t} {
			res.Attempted += rep.Requests
			res.Failed += reportProblems(w, -1, rep.Problems, res)
		}
		if untraced == nil || u.WallMs < untraced.WallMs {
			untraced = u
		}
		if traced == nil || t.WallMs < traced.WallMs {
			traced = t
		}
	}
	return traced, untraced, nil
}

// layerMetrics derives the per-layer metrics of the serial replays.
func layerMetrics(w *workload, res *result, traced, untraced *replayResult) map[string]metric {
	n := float64(traced.Requests)
	m := res.Metrics
	covered := 0.0
	for _, name := range spanNames {
		covered += traced.Spans[name]
		m[name] = metric{traced.Spans[name] / n, "ms"}
	}
	m["core.model_examples"] = metric{frac(traced.ModelExamples, traced.FVLookups), "count"}
	m["session.snapshot_kb"] = metric{frac(traced.SnapshotBytes, traced.Snapshots) / 1024, "KiB"}
	m["xicl.fv_hit_frac"] = metric{frac(traced.FVHits, traced.FVLookups), "frac"}
	m["harness.baseline_hit_frac"] = metric{frac(traced.BaselineHits, traced.BaselineLookups), "frac"}
	m["jit.code_cache_hit_frac"] = metric{frac(traced.CodeHits, traced.CodeLookups), "frac"}
	m["interp.trace_entries"] = metric{float64(traced.TraceEntries) / n, "count/req"}
	m["interp.side_exits"] = metric{float64(traced.SideExits) / n, "count/req"}
	m["interp.trace_builds"] = metric{float64(traced.TraceBuilds) / n, "count/req"}
	m["trace.coverage"] = metric{covered / traced.TotalMs, "ratio"}
	m["trace.overhead_ms"] = metric{(traced.WallMs - untraced.WallMs) / n, "ms"}
	fmt.Printf("# %s replay: %d requests, traced %.3f ms/request (spans cover %.3f), untraced %.3f ms/request\n",
		w.Name, traced.Requests, traced.WallMs/n, covered/traced.TotalMs, untraced.WallMs/float64(untraced.Requests))
	return m
}

// percentile prints and returns one exact latency percentile with its
// sample count and the number of samples beyond it.
func percentile(what string, xs []float64, q float64) float64 {
	xs = append([]float64(nil), xs...)
	v, beyond := quantile(xs, q)
	fmt.Printf("# %s p%g = %.4f ms (n=%d, beyond=%d)\n", what, q*100, v, len(xs), beyond)
	return v
}

// drift is the steady-state check: the p50 latency of the last quarter
// of a pass's requests over that of the first quarter (1 = steady).
func drift(recs []reqRec) float64 {
	q := len(recs) / 4
	if q == 0 {
		return 1
	}
	p50 := func(rs []reqRec) float64 {
		xs := make([]float64, 0, len(rs))
		for _, r := range rs {
			xs = append(xs, r.LatMs)
		}
		v, _ := quantile(xs, 0.5)
		return v
	}
	return p50(recs[len(recs)-q:]) / p50(recs[:q])
}

// passSeed derives pass i's input seed from the run's seed, so a run
// averages over several independent request sequences while the same
// seed still yields the same inputs.
func passSeed(seed int64, pass int) int64 {
	return stats.StreamSeed(seed, "perfbench", "pass", strconv.Itoa(pass))
}

// reportProblems prints a pass's failed checks, marks res incorrect when
// there are any, and returns their count.
func reportProblems(w *workload, pass int, problems []string, res *result) int {
	for i, p := range problems {
		if i == 5 {
			fmt.Printf("# %s pass %d: %d more problems\n", w.Name, pass, len(problems)-i)
			break
		}
		fmt.Printf("# %s pass %d: CHECK FAILED: %s\n", w.Name, pass, p)
	}
	if len(problems) > 0 {
		res.Correct = false
	}
	return len(problems)
}

// serveChecks reports a serving pass's failed checks and returns the
// failures not already counted per request: an unbalanced ledger.
func serveChecks(w *workload, pass int, p *servePass, res *result) int {
	reportProblems(w, pass, p.Problems, res)
	if p.Ledger != "" {
		fmt.Printf("# %s pass %d: CHECK FAILED: %s\n", w.Name, pass, p.Ledger)
		res.Correct = false
		return 1
	}
	return 0
}
