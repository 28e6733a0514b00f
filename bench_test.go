package evolvevm

// One benchmark per table/figure of the paper's evaluation (experiments
// E1–E8 in DESIGN.md), in quick mode so `go test -bench=.` stays in CI
// budgets, plus microbenchmarks for the substrate layers. Run the full
// paper-scale versions with cmd/expdriver.

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/cart"
	"evolvevm/internal/exec"
	"evolvevm/internal/harness"
	"evolvevm/internal/interp"
	"evolvevm/internal/opt"
	"evolvevm/internal/programs"
	"evolvevm/internal/serve"
	"evolvevm/internal/session"
	"evolvevm/internal/stats"
	"evolvevm/internal/xicl"
)

func quickOpts(seed int64) harness.Options {
	return harness.Options{Seed: seed, Quick: true}
}

// BenchmarkTable1 regenerates Table I (E1): per-benchmark input counts,
// running-time ranges, feature selection, confidence and accuracy.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table1(testCtx, io.Discard, quickOpts(int64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		var accs []float64
		for _, r := range rows {
			accs = append(accs, r.Acc)
		}
		b.ReportMetric(stats.Mean(accs), "mean-acc")
	}
}

// BenchmarkFigure8 regenerates Figure 8 (E2): temporal confidence,
// accuracy, and Evolve-vs-Rep speedups on mtrt and raytracer.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := harness.Figure8(testCtx, io.Discard, quickOpts(int64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		last := series[0].Confidence
		b.ReportMetric(last[len(last)-1], "final-conf")
	}
}

// substrateColumns are the host-tier variants the loop-heavy experiment
// benchmarks record: the full substrate (register traces included) vs
// the fused switch alone (register tier off). Virtual results are
// bit-identical across the columns (substrate equivalence suites); the
// ns/op spread is the register tier's end-to-end host-side win.
var substrateColumns = []struct {
	name string
	sub  exec.Substrate
}{
	{"reg", exec.Substrate{}},
	{"noreg", exec.Substrate{NoRegTier: true}},
}

// BenchmarkFigure9 regenerates Figure 9 (E3): speedup vs default running
// time on mtrt and compress, with and without the register trace tier.
func BenchmarkFigure9(b *testing.B) {
	for _, col := range substrateColumns {
		b.Run(col.name, func(b *testing.B) {
			// Warm the process-wide baseline and code caches untimed so the
			// columns compare steady states, not who ran first.
			opts := quickOpts(1)
			opts.Substrate = col.sub
			if _, err := harness.Figure9(testCtx, io.Discard, opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := quickOpts(int64(i) + 1)
				opts.Substrate = col.sub
				points, err := harness.Figure9(testCtx, io.Discard, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(points["mtrt"])), "mtrt-points")
			}
		})
	}
}

// BenchmarkFigure10 regenerates Figure 10 (E4): speedup boxplots for the
// whole suite under Evolve and Rep, with and without the register trace
// tier.
func BenchmarkFigure10(b *testing.B) {
	for _, col := range substrateColumns {
		b.Run(col.name, func(b *testing.B) {
			// Same untimed cache warmup as Figure9.
			opts := quickOpts(1)
			opts.Substrate = col.sub
			if _, err := harness.Figure10(testCtx, io.Discard, opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := quickOpts(int64(i) + 1)
				opts.Substrate = col.sub
				rows, err := harness.Figure10(testCtx, io.Discard, opts)
				if err != nil {
					b.Fatal(err)
				}
				var medians []float64
				for _, r := range rows {
					medians = append(medians, r.Evolve.Median)
				}
				b.ReportMetric(stats.Mean(medians), "mean-evolve-median")
			}
		})
	}
}

// BenchmarkOverhead regenerates the overhead analysis (E5).
func BenchmarkOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Overhead(testCtx, io.Discard, quickOpts(int64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, r := range rows {
			if r.MaxPct > worst {
				worst = r.MaxPct
			}
		}
		b.ReportMetric(worst, "max-overhead-%")
	}
}

// BenchmarkSensitivity regenerates the threshold and input-order
// sensitivity study (E6).
func BenchmarkSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Sensitivity(testCtx, io.Discard, quickOpts(int64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation runs the design ablations (E7): discriminative guard
// on/off and feature-vector truncation.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Ablation(testCtx, io.Discard, quickOpts(int64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[0].AccFull-res[0].AccTruncated, "feature-acc-gain")
	}
}

// --- substrate microbenchmarks ---

// BenchmarkDispatchTiers compares the host dispatch tiers on the same
// loops — a tight loop, a branchy one, and compress's run-length loop —
// honestly: one engine per tier, warmed before the timer so
// every mode runs its steady state (plans decoded, traces converted,
// pools populated) rather than paying one-time build costs inside the
// measurement. The columns are off (per-instruction dispatch and
// charging), switch (block-batched, unfused), fused (batched with
// superinstructions), and register (register-converted traces). The
// virtual results are bit-identical across all of them (see the
// substrate suites); the spread is pure host dispatch cost.
func BenchmarkDispatchTiers(b *testing.B) {
	tiers := []struct {
		name string
		sub  interp.Substrate
	}{
		{"off", interp.Substrate{NoBatching: true}},
		{"switch", interp.Substrate{NoFusion: true, NoRegTier: true}},
		{"fused", interp.Substrate{NoRegTier: true}},
		{"register", interp.Substrate{EagerRegTier: true}},
	}
	prog := assembleBench(b, "microloop", `
global n
func main() locals i acc
  const 0
  store acc
  const 0
  store i
loop:
  load i
  gload n
  ige
  jnz done
  load acc
  load i
  ixor
  store acc
  iinc i 1
  jmp loop
done:
  load acc
  ret
end
`)

	// Data-dependent branch shape: the same loop with an i&1 arm, so the
	// head trace side-exits every other iteration, the odd arm runs on
	// the fused path, and the trace is entered again at the head. The
	// register column tracks that round trip.
	branchProg := assembleBench(b, "microbranch", `
global n
func main() locals i acc
  const 0
  store acc
  const 0
  store i
loop:
  load i
  gload n
  ige
  jnz done
  load i
  const 1
  iand
  jnz odd
  load acc
  load i
  ixor
  store acc
  iinc i 1
  jmp loop
odd:
  load acc
  load i
  iadd
  store acc
  iinc i 1
  jmp loop
done:
  load acc
  ret
end
`)

	// The served idiom: compress's run-length loop. It loads data[i],
	// compares it with the previous value, and skips over the new-run arm
	// on two iterations of three; a fill loop of the same length builds
	// data first. The register column tracks the fused pairs of the
	// bounds test and load, the run counter and copy, and the skip.
	rleProg := assembleBench(b, "microrle", `
global n
global data
func main() locals i runs prev cur
  gload n
  newarr
  gstore data
fill:
  load i
  gload n
  ige
  jnz filled
  gload data
  load i
  load i
  const 3
  idiv
  astore
  iinc i 1
  jmp fill
filled:
  const -1
  store prev
  const 0
  store i
loop:
  load i
  gload n
  ige
  jnz done
  gload data
  load i
  aload
  store cur
  load cur
  load prev
  ieq
  jnz same
  iinc runs 1
  load cur
  store prev
same:
  iinc i 1
  jmp loop
done:
  load runs
  ret
end
`)

	for _, shape := range []struct {
		prefix string
		prog   *bytecode.Program
	}{{"", prog}, {"branch/", branchProg}, {"rle/", rleProg}} {
		for _, tier := range tiers {
			b.Run(shape.prefix+tier.name, func(b *testing.B) { runDispatch(b, shape.prog, tier.sub) })
		}
	}
}

// assembleBench assembles a microbenchmark program or fails the benchmark.
func assembleBench(b *testing.B, name, src string) *bytecode.Program {
	b.Helper()
	prog, err := bytecode.Assemble(name, src)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// runDispatch times prog under one substrate setting: a single engine,
// warmed untimed, then reset and rerun with n = 10000 per iteration.
func runDispatch(b *testing.B, prog *bytecode.Program, sub interp.Substrate) {
	e := interp.NewEngine(prog)
	run := func() {
		e.Reset()
		e.Substrate = sub
		if err := e.SetGlobal("n", bytecode.Int(10000)); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm: plans, traces, pooled scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkOptimizePipeline measures a level-2 compile of a mid-size
// method (mtrt's intersection kernel).
func BenchmarkOptimizePipeline(b *testing.B) {
	bench := programs.ByName("mtrt")
	prog, err := bench.Program()
	if err != nil {
		b.Fatal(err)
	}
	idx, _ := prog.FuncIndex("intersectall")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := opt.Optimize(prog, idx, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXICLTranslate measures command-line-to-feature-vector
// translation with file-reading extractors.
func BenchmarkXICLTranslate(b *testing.B) {
	bench := programs.ByName("mtrt")
	spec, err := bench.ParsedSpec()
	if err != nil {
		b.Fatal(err)
	}
	reg, err := bench.Registry()
	if err != nil {
		b.Fatal(err)
	}
	in := bench.GenInputs(rand.New(rand.NewSource(1)), 1)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := xicl.NewTranslator(spec, reg, in.Files)
		if _, err := tr.BuildFVector(in.Args); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeBuild measures classification-tree induction on a
// 200-example mixed-feature training set.
func BenchmarkTreeBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var examples []cart.Example
	for i := 0; i < 200; i++ {
		size := rng.Float64() * 100
		format := []string{"xml", "txt", "pdf"}[rng.Intn(3)]
		label := 0
		if size > 60 {
			label = 2
		} else if format == "xml" {
			label = 1
		}
		examples = append(examples, cart.Example{
			Features: xicl.Vector{
				xicl.NumFeature("size", size),
				xicl.CatFeature("fmt", format),
			},
			Label: label,
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cart.Build(examples, cart.Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndEvolveRun measures one full Evolve production run of
// compress, including feature extraction and model feedback.
func BenchmarkEndToEndEvolveRun(b *testing.B) {
	r, err := harness.NewRunner(programs.ByName("compress"), 6, 1)
	if err != nil {
		b.Fatal(err)
	}
	in := r.Inputs[0]
	// One warm-up run populates the process-wide pools (machines, run
	// scratch) and the program's decoded plans so the measurement reflects
	// the production steady state rather than one-time warm-up.
	if _, err := r.RunOne(testCtx, harness.ScenarioEvolve, in); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunOne(testCtx, harness.ScenarioEvolve, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeHotPath measures one warmed in-process request through
// the serving front end — admission, chain dispatch, execution, atomic
// stat and histogram updates (the server does not record, so it keeps
// nothing per request) — with no HTTP layer. RunParallel drives it from
// GOMAXPROCS submitters, so ns/op tracks the contention behavior of the
// admission path, the chain map and the shared memos, not just
// single-thread cost. Epoch barriers (every 64 seqs, the CI loadtest cadence) stay in
// the measurement: they are part of the steady-state serve path.
func BenchmarkServeHotPath(b *testing.B) {
	const tenants, inputs = 8, 4
	benches := []string{"compress", "search"}
	s, err := serve.New(serve.Config{
		Workers:     runtime.GOMAXPROCS(0),
		QueueDepth:  256,
		EpochLength: 64,
		Scenario:    harness.ScenarioEvolve,
		Seed:        42,
		CorpusSize:  inputs,
		Benches:     benches,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	// Warm every chain untimed: the first requests pay corpus generation,
	// compilation, and learner bootstrap; the hot path starts after.
	for t := 0; t < tenants; t++ {
		for _, bench := range benches {
			for in := 0; in < inputs; in++ {
				if _, err := s.Submit(testCtx, fmt.Sprintf("t%d", t), bench, in, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	s.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := seq.Add(1)
			tenant := fmt.Sprintf("t%d", i%tenants)
			bench := benches[i%int64(len(benches))]
			if _, err := s.Submit(testCtx, tenant, bench, int(i%inputs), 0); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkTierPublish times one hand-off through the serving tier's
// shared learning state: capture the best chain's state at an epoch
// barrier, then install it into a new chain. The state is compress
// trained for 175 Evolve runs over a corpus of 4 — one warm-closed
// chain's history (1400 requests over 8 chains). snapshot+restore goes
// through the JSON encoding that checkpoints use, freeze+adopt through
// the copy-on-write capture that serve publishes.
func BenchmarkTierPublish(b *testing.B) {
	r, err := harness.NewRunner(programs.ByName("compress"), 4, 42)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 175; i++ {
		if _, err := r.RunOne(testCtx, harness.ScenarioEvolve, r.Inputs[i%len(r.Inputs)]); err != nil {
			b.Fatal(err)
		}
	}
	dst := r.Fork().State
	b.Run("snapshot+restore", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			blob, err := r.State.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			if err := dst.Restore(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("freeze+adopt", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			f, err := r.State.Freeze()
			if err != nil {
				b.Fatal(err)
			}
			if err := dst.Adopt(f); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkChainAge measures one Evolve request on a chain that has
// already served 100, 1600 or 6400 requests: compress and search, corpus
// 4, seed 42, each request through RunRequest inside BeginRun/EndRun as
// the serving front end makes it. A learner stores each distinct example
// once with a count, so a request's cost follows the four distinct inputs
// and ns/op and B/op stay flat as the chain ages. Each chain is trained
// once per process and frozen at every age; each sub-benchmark adopts its
// frozen state into a fresh runner, so every -count repetition measures
// the same age.
func BenchmarkChainAge(b *testing.B) {
	ages := []int{100, 1600, 6400}
	for _, bench := range []string{"compress", "search"} {
		for _, age := range ages {
			b.Run(fmt.Sprintf("%s/age%d", bench, age), func(b *testing.B) {
				chain := agedChain(b, bench, ages)
				r := chain.runner.Fork()
				if err := r.State.Adopt(chain.frozen[age]); err != nil {
					b.Fatal(err)
				}
				// One untimed request per input warms the process-wide
				// pools, as in BenchmarkEndToEndEvolveRun; the fork
				// shares its chain's already filled feature-vector
				// memo. The timed requests go on from there.
				i := age
				for ; i < age+len(r.Inputs); i++ {
					if err := chainRequest(r, i); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				for ; b.Loop(); i++ {
					if err := chainRequest(r, i); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// agedChainState is one trained chain and its frozen state by age.
type agedChainState struct {
	runner *harness.Runner
	frozen map[int]*session.Frozen
}

// agedChains holds BenchmarkChainAge's trained chains by benchmark name.
var agedChains = map[string]agedChainState{}

// agedChain trains bench's chain through the given ascending ages the
// first time it is asked for, freezing its state at each.
func agedChain(b *testing.B, bench string, ages []int) agedChainState {
	if c, ok := agedChains[bench]; ok {
		return c
	}
	r, err := harness.NewRunner(programs.ByName(bench), 4, 42)
	if err != nil {
		b.Fatal(err)
	}
	frozen := map[int]*session.Frozen{}
	run := 0
	for _, age := range ages {
		for ; run < age; run++ {
			if err := chainRequest(r, run); err != nil {
				b.Fatal(err)
			}
		}
		if frozen[age], err = r.State.Freeze(); err != nil {
			b.Fatal(err)
		}
	}
	agedChains[bench] = agedChainState{r, frozen}
	return agedChains[bench]
}

// chainRequest serves request i of a chain, on input i mod the corpus.
func chainRequest(r *harness.Runner, i int) error {
	r.State.BeginRun()
	defer r.State.EndRun()
	res, err := r.RunRequest(testCtx, harness.ScenarioEvolve, r.Inputs[i%len(r.Inputs)])
	if err == nil && res.Trap != "" {
		err = fmt.Errorf("%s trapped: %s", res.InputID, res.Trap)
	}
	return err
}

// BenchmarkColdStartServe measures first-request latency for tenants
// the server has never seen: each iteration submits from a fresh tenant,
// with the cross-run code cache off so every run compiles its own tier
// plans inline at the promotion point.
func BenchmarkColdStartServe(b *testing.B) {
	s, err := serve.New(serve.Config{
		Workers:     runtime.GOMAXPROCS(0),
		QueueDepth:  256,
		EpochLength: 8,
		Scenario:    harness.ScenarioEvolve,
		Seed:        42,
		CorpusSize:  4,
		Benches:     []string{"compress"},
		Substrate:   exec.Substrate{NoCodeCache: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tenant := fmt.Sprintf("cold%d", i)
		if _, err := s.Submit(testCtx, tenant, "compress", i%4, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGCSelection runs the §VI extension (E8): learned per-input
// garbage-collector choice on the server workload.
func BenchmarkGCSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.GCSelection(testCtx, io.Discard, quickOpts(int64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		if res.Runs > 0 {
			b.ReportMetric(float64(res.Learned)/float64(res.Oracle), "learned/oracle")
		}
	}
}
