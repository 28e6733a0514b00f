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
	"evolvevm/internal/jit"
	"evolvevm/internal/opt"
	"evolvevm/internal/programs"
	"evolvevm/internal/serve"
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
// the previous fastest configuration (register tier off, closure tier
// and below unchanged). Virtual results are bit-identical across the
// columns (substrate equivalence suites); the ns/op spread is the
// register tier's end-to-end host-side win.
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

// BenchmarkInterpreterDispatch measures the raw execution engine on a
// tight arithmetic loop.
func BenchmarkInterpreterDispatch(b *testing.B) {
	prog, err := bytecode.Assemble("microloop", `
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
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := interp.NewEngine(prog)
		if err := e.SetGlobal("n", bytecode.Int(10000)); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpDispatch measures the same tight loop with the host
// performance substrate fully on, batching without fusion, and fully off
// — the spread between the sub-benchmarks is the dispatch saving of
// block-batched accounting and superinstruction fusion (the virtual
// results are bit-identical in all three modes; see the substrate suites
// in internal/difftest and internal/harness).
func BenchmarkInterpDispatch(b *testing.B) {
	prog, err := bytecode.Assemble("microloop", `
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
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		name               string
		noFuse, noBatching bool
		closures           bool
	}{
		{name: "closure", closures: true},
		{name: "substrate"},
		{name: "nofuse", noFuse: true},
		{name: "off", noBatching: true},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := interp.NewEngine(prog)
				e.DisableFusion = mode.noFuse
				e.DisableBatching = mode.noBatching
				e.DisableClosures = !mode.closures
				e.EagerClosures = mode.closures
				if err := e.SetGlobal("n", bytecode.Int(10000)); err != nil {
					b.Fatal(err)
				}
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDispatchTiers compares the four dispatch tiers — batched
// switch, fused switch, closure-threaded, and register-converted traces —
// on the same tight loop, honestly: one engine per tier, warmed before
// the timer so every mode runs its steady state (plans decoded, closures
// compiled, traces converted, pools populated) rather than paying
// one-time build costs inside the measurement. The virtual results are
// bit-identical across all four (see the substrate suites); the spread is
// pure host dispatch cost.
func BenchmarkDispatchTiers(b *testing.B) {
	prog, err := bytecode.Assemble("microloop", `
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
	if err != nil {
		b.Fatal(err)
	}
	tiers := []struct {
		name      string
		configure func(*interp.Engine)
	}{
		{"switch", func(e *interp.Engine) {
			e.DisableFusion = true
			e.DisableClosures = true
			e.DisableRegTier = true
		}},
		{"fused", func(e *interp.Engine) {
			e.DisableClosures = true
			e.DisableRegTier = true
		}},
		{"closure", func(e *interp.Engine) {
			e.EagerClosures = true
			e.DisableRegTier = true
		}},
		{"register", func(e *interp.Engine) {
			e.EagerClosures = true
			e.EagerRegTier = true
		}},
	}
	for _, tier := range tiers {
		b.Run(tier.name, func(b *testing.B) {
			e := interp.NewEngine(prog)
			run := func() {
				e.Reset()
				tier.configure(e)
				if err := e.SetGlobal("n", bytecode.Int(10000)); err != nil {
					b.Fatal(err)
				}
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
			run() // warm: plans, closures, traces, pooled scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}

	// Data-dependent branch shape: the same loop with an i&1 arm, so the
	// head trace side-exits every other iteration into the OSR tail of the
	// odd arm, which rejoins the head at the back edge. The register
	// column tracks linked exits: both transitions stay in-register.
	branchProg, err := bytecode.Assemble("microbranch", `
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
	if err != nil {
		b.Fatal(err)
	}
	for _, tier := range tiers {
		b.Run("branch/"+tier.name, func(b *testing.B) {
			e := interp.NewEngine(branchProg)
			run := func() {
				e.Reset()
				tier.configure(e)
				if err := e.SetGlobal("n", bytecode.Int(10000)); err != nil {
					b.Fatal(err)
				}
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}

	// Call-heavy shape: the same loop with a small non-recursive callee in
	// the body. Before CALL inlining this shape degraded out of the
	// register tier entirely; the register/register-noinline spread is the
	// per-commit tracking signal for the inlining win.
	callProg, err := bytecode.Assemble("microcall", `
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
  call leaf 1
  ixor
  store acc
  iinc i 1
  jmp loop
done:
  load acc
  ret
end
func leaf(x)
  load x
  load x
  imul
  const 7
  iadd
  ret
end
`)
	if err != nil {
		b.Fatal(err)
	}
	callTiers := append(tiers[:len(tiers):len(tiers)], struct {
		name      string
		configure func(*interp.Engine)
	}{"register-noinline", func(e *interp.Engine) {
		e.EagerClosures = true
		e.EagerRegTier = true
		e.DisableCallInline = true
	}})
	for _, tier := range callTiers {
		b.Run("call/"+tier.name, func(b *testing.B) {
			e := interp.NewEngine(callProg)
			run := func() {
				e.Reset()
				tier.configure(e)
				if err := e.SetGlobal("n", bytecode.Int(10000)); err != nil {
					b.Fatal(err)
				}
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
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

// BenchmarkEndToEndCallHeavy measures a full production run (machine
// pool, controller, code cache, ledger) of a call-dominated workload: a
// hot loop whose body calls two small leaves every iteration. The
// columns hold the virtual observables bit-identical (substrate suites)
// and differ only in host mechanism: `inline` is the full substrate with
// CALL inlining, `noinline` refuses inlining so the loop degrades out of
// the register tier at every call site, `noreg` turns the register tier
// off entirely. The inline/noinline spread is the per-commit tracking
// signal for the inlining win at end-to-end scope.
func BenchmarkEndToEndCallHeavy(b *testing.B) {
	prog, err := bytecode.Assemble("callheavy", `
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
  call mix 1
  iadd
  store acc
  load acc
  call clamp 1
  store acc
  iinc i 1
  jmp loop
done:
  load acc
  ret
end
func mix(x)
  load x
  load x
  imul
  load x
  ixor
  const 2654435761
  imul
  ret
end
func clamp(x)
  load x
  const 1048575
  iand
  ret
end
`)
	if err != nil {
		b.Fatal(err)
	}
	columns := []struct {
		name string
		sub  exec.Substrate
	}{
		{"inline", exec.Substrate{EagerRegTier: true}},
		{"noinline", exec.Substrate{EagerRegTier: true, NoCallInline: true}},
		{"noreg", exec.Substrate{NoRegTier: true}},
	}
	for _, col := range columns {
		b.Run(col.name, func(b *testing.B) {
			spec := &exec.RunSpec{
				Prog:      prog,
				Jit:       jit.DefaultConfig(),
				Substrate: col.sub,
				Setup: func(e *interp.Engine) error {
					return e.SetGlobal("n", bytecode.Int(20000))
				},
			}
			out := &exec.RunOutcome{}
			// Warm untimed: machine pooled, plans and traces built.
			if err := exec.RunInto(testCtx, spec, out); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := exec.RunInto(testCtx, spec, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeHotPath measures one warmed in-process request through
// the serving front end — admission, chain dispatch, execution, striped
// outcome recording — with no HTTP layer. RunParallel drives it from
// GOMAXPROCS submitters, so ns/op tracks the contention behavior of the
// admission path and the sharded bookkeeping, not just single-thread
// cost. Epoch barriers (every 64 seqs, the CI loadtest cadence) stay in
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

// BenchmarkColdStartServe measures first-request latency for tenants
// the server has never seen: each iteration submits from a fresh tenant,
// with the cross-run code cache off so every run compiles its own tier
// plans. The sync arm builds plans inline at the promotion point —
// stalling the request — while the async arm enqueues them on the
// background pool and answers from the current best tier. The gap
// between the two arms is the compile time the pool takes off the
// serving hot path.
func BenchmarkColdStartServe(b *testing.B) {
	run := func(b *testing.B, sub exec.Substrate) {
		sub.NoCodeCache = true
		s, err := serve.New(serve.Config{
			Workers:     runtime.GOMAXPROCS(0),
			QueueDepth:  256,
			EpochLength: 8,
			Scenario:    harness.ScenarioEvolve,
			Seed:        42,
			CorpusSize:  4,
			Benches:     []string{"compress"},
			Substrate:   sub,
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
	b.Run("sync", func(b *testing.B) { run(b, exec.Substrate{SyncCompile: true}) })
	b.Run("async", func(b *testing.B) { run(b, exec.Substrate{AsyncCompile: true}) })
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
