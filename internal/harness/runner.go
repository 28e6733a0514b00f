// Package harness runs benchmarks under the three optimization scenarios
// the paper compares — Default (reactive), Rep (repository-based), and
// Evolve (the evolvable VM) — and regenerates every table and figure of
// the paper's evaluation section (see experiments.go and DESIGN.md's
// per-experiment index).
//
// The harness is a thin orchestration layer: internal/exec executes one
// stateless run, internal/session owns the cross-run state, and
// internal/sched sequences experiment work units deterministically (see
// DESIGN.md §8 for the layering).
package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"evolvevm/internal/aos"
	"evolvevm/internal/bytecode"
	"evolvevm/internal/core"
	"evolvevm/internal/exec"
	"evolvevm/internal/gc"
	"evolvevm/internal/interp"
	"evolvevm/internal/jit"
	"evolvevm/internal/memo"
	"evolvevm/internal/programs"
	"evolvevm/internal/rep"
	"evolvevm/internal/session"
	"evolvevm/internal/vm"
	"evolvevm/internal/xicl"
)

// codeCache is the process-wide cross-run compiled-code cache. Every run
// still pays its own virtual compile cycles; the cache only removes
// repeated host-side optimizer work when thousands of runs compile the
// same functions at the same levels. interp.Code is immutable, so
// sharing across concurrently executing machines is safe.
var codeCache = jit.NewCache()

// baselineCache memoizes Default-scenario run outcomes process-wide. A
// reactive-controller run is a pure function of (benchmark, corpus seed
// and size, input, jit tier table, gc config) — the substrate switches
// provably cannot change a virtual observable (internal/difftest), so
// they stay out of the key, and the keys are bounded by the corpora and
// collector configs the process runs. Experiments re-measure the same
// baselines from freshly built runners constantly (every figure, every
// benchmark iteration); replaying the memoized outcome removes those
// redundant host executions without changing a single reported number.
var baselineCache memo.Map[baselineKey, *baselineOutcome]

type baselineKey struct {
	bench  string
	seed   int64
	corpus int
	input  string
	jit    jit.Config
	gc     gc.Config
}

// baselineOutcome is one Default measurement: total virtual cycles plus
// the per-function baseline-work profile (what rep prefilling records).
// It is stored before it is measured, so concurrent callers for its key
// wait instead of measuring again; done closes when the measurement
// ends, and the fields are immutable from then on. A failed measurement
// sets err and is removed from the cache before done closes.
type baselineOutcome struct {
	done   chan struct{}
	cycles int64
	work   []int64
	err    error
}

// CodeCacheStats reports the process-wide code cache's counters
// (diagnostics for benchmark reports).
func CodeCacheStats() memo.Stats {
	return codeCache.Stats()
}

// BaselineCacheStats reports the process-wide baseline-outcome cache's
// counters (diagnostics for benchmark reports).
func BaselineCacheStats() memo.Stats {
	return baselineCache.Stats()
}

// Scenario selects the optimization controller for a run.
type Scenario int

const (
	// ScenarioDefault is the reactive sample-driven optimizer.
	ScenarioDefault Scenario = iota
	// ScenarioRep is the repository-based cross-run optimizer.
	ScenarioRep
	// ScenarioEvolve is the evolvable VM.
	ScenarioEvolve
	// ScenarioNull never recompiles (pure baseline interpretation).
	ScenarioNull
)

func (s Scenario) String() string {
	switch s {
	case ScenarioDefault:
		return "default"
	case ScenarioRep:
		return "rep"
	case ScenarioEvolve:
		return "evolve"
	case ScenarioNull:
		return "null"
	default:
		return fmt.Sprintf("scenario(%d)", int(s))
	}
}

// RunResult captures one run's outcome.
type RunResult struct {
	InputID        string
	Scenario       Scenario
	Result         bytecode.Value
	Cycles         int64
	Speedup        float64 // default-run cycles / this run's cycles
	CompileCycles  int64
	OverheadCycles int64
	Recompilations int
	TotalSamples   int64
	Levels         []int
	// GCStats records collector behaviour when the runner enables GC.
	GCStats gc.Stats
	// Evolve learning record (nil for other scenarios).
	Evolve *core.RunRecord
	// FeatureCount is the raw feature-vector length (Evolve runs).
	FeatureCount int
	// Trap carries the normalized runtime-error message when the program
	// faulted (division by zero, bad array access, ...). Only RunRequest
	// fills it; RunOne keeps treating traps as errors. A trapped run has
	// no Result and no Speedup, but its ledger fields are fully
	// attributed.
	Trap string
}

// Runner binds one benchmark's corpus and configuration to its cross-run
// state and executes runs through the exec layer. The Runner itself is
// stateless between runs: everything that persists lives in State.
type Runner struct {
	Bench  *programs.Benchmark
	Prog   *bytecode.Program
	Spec   *xicl.Spec
	Reg    *xicl.Registry
	Inputs []programs.Input

	// corpusSeed and corpusSize identify the deterministic input corpus
	// (GenInputs is a pure function of both) — they key the process-wide
	// baseline-outcome cache.
	corpusSeed int64
	corpusSize int

	JitCfg    jit.Config
	EvolveCfg core.Config

	// TruncateFeatures collapses every feature vector to its first
	// element — the feature-ablation switch (experiment E7).
	TruncateFeatures bool

	// GC configures the heap collector for every run (zero: no GC, the
	// paper's main experiments). Used by the GC-selection extension.
	GC gc.Config

	// Substrate toggles the host-performance mechanisms (all default on;
	// see exec.Substrate).
	Substrate exec.Substrate

	// State is the benchmark's learned cross-run state: the Evolve
	// learner, the Rep repository, and the GC selector, plus the corpus's
	// feature-vector memo, which r shares with every fork. Replaceable
	// for checkpoint/resume (session.BenchState implements
	// session.CrossRunState).
	State *session.BenchState

	// Inspect, when non-nil, observes the machine after every scenario
	// run, exactly like exec.RunSpec.Inspect. The serving front end uses
	// it to cross-check the cycle ledger on every request.
	Inspect func(m *vm.Machine)
}

// NewRunner builds a runner with a deterministic input corpus of the
// given size (0 means the benchmark's default corpus size).
func NewRunner(b *programs.Benchmark, corpusSize int, seed int64) (*Runner, error) {
	prog, err := b.Program()
	if err != nil {
		return nil, err
	}
	spec, err := b.ParsedSpec()
	if err != nil {
		return nil, err
	}
	reg, err := b.Registry()
	if err != nil {
		return nil, err
	}
	if corpusSize <= 0 {
		corpusSize = b.DefaultCorpusSize
	}
	inputs := b.GenInputs(rand.New(rand.NewSource(seed)), corpusSize)
	if len(inputs) == 0 {
		return nil, fmt.Errorf("harness: %s generated no inputs", b.Name)
	}
	r := &Runner{
		Bench:      b,
		Prog:       prog,
		Spec:       spec,
		Reg:        reg,
		Inputs:     inputs,
		corpusSeed: seed,
		corpusSize: corpusSize,
		JitCfg:     jit.DefaultConfig(),
		EvolveCfg:  core.DefaultConfig(),
	}
	r.State = session.NewBenchState(prog, r.EvolveCfg, xicl.NewFVCache())
	return r, nil
}

// Fork returns a runner sharing the benchmark, program, corpus,
// configuration, and the corpus's feature-vector memo with r but owning
// fresh learned state. The shared pieces are read-only after
// construction or safe for concurrent use, so forks may run concurrently
// with each other and with r — the multi-tenant serving front end forks
// one runner per (tenant, benchmark) state chain off a per-benchmark
// prototype.
func (r *Runner) Fork() *Runner {
	c := *r
	c.State = session.NewBenchState(c.Prog, c.EvolveCfg, r.State.FVCache())
	return &c
}

// Evolver returns the cross-run Evolve learner.
func (r *Runner) Evolver() *core.Evolver { return r.State.Evolver() }

// Repo returns the cross-run Rep repository.
func (r *Runner) Repo() *rep.Repository { return r.State.Repo() }

// ResetState clears the learned state (Evolve models, Rep repository,
// GC selector), keeping the corpus, configs, and the corpus's
// feature-vector memo. Call after changing EvolveCfg so the fresh
// learner picks it up.
func (r *Runner) ResetState() {
	r.State = session.NewBenchState(r.Prog, r.EvolveCfg, r.State.FVCache())
}

// Features translates an input's command line into its feature vector,
// returning the extraction cost in cycles. Extraction is a pure function
// of the input, so the full vector and its cost are memoized per input ID
// in the corpus's memo, which r shares with its forks; every run is
// still charged the cost, exactly as if the translator had run again.
// Cached vectors are shared and must not be mutated (the harness paths
// only read them); the feature-ablation truncation is a reslice applied
// after the cache, so it composes with memoization without copying.
func (r *Runner) Features(in programs.Input) (xicl.Vector, int64, error) {
	cache := r.State.FVCache()
	vec, cost, ok := cache.Get(in.ID)
	if !ok {
		tr := xicl.NewTranslator(r.Spec, r.Reg, in.Files)
		var err error
		vec, err = tr.BuildFVector(in.Args)
		if err != nil {
			return nil, 0, fmt.Errorf("harness: %s: %w", in.ID, err)
		}
		cost = tr.Cost()
		cache.Put(in.ID, vec, cost)
	}
	if r.TruncateFeatures && len(vec) > 1 {
		vec = vec[:1]
	}
	return vec, cost, nil
}

// spec assembles the exec.RunSpec shared by every scenario.
func (r *Runner) spec(in programs.Input) *exec.RunSpec {
	return &exec.RunSpec{
		Prog:       r.Prog,
		Jit:        r.JitCfg,
		GC:         r.GC,
		Substrate:  r.Substrate,
		SharedCode: codeCache,
		Setup:      in.Setup,
		Inspect:    r.Inspect,
	}
}

// configure installs the scenario's controller into spec, returning the
// Evolve controller (nil for other scenarios) and the feature count.
func (r *Runner) configure(spec *exec.RunSpec, scenario Scenario, in programs.Input) (*core.Controller, int, error) {
	switch scenario {
	case ScenarioDefault:
		spec.Controller = func(*vm.Machine) vm.Controller { return aos.NewReactive() }
	case ScenarioNull:
		spec.Controller = nil
	case ScenarioRep:
		repo := r.State.Repo()
		spec.Controller = func(m *vm.Machine) vm.Controller {
			return repo.Controller(m.Compiler, m.Engine.SampleStride)
		}
	case ScenarioEvolve:
		vec, cost, err := r.Features(in)
		if err != nil {
			return nil, 0, err
		}
		evolveCtrl := r.State.Evolver().Controller(vec, cost)
		spec.Controller = func(*vm.Machine) vm.Controller { return evolveCtrl }
		return evolveCtrl, len(vec), nil
	default:
		return nil, 0, fmt.Errorf("harness: unknown scenario %v", scenario)
	}
	return nil, 0, nil
}

// result folds an exec outcome into a RunResult.
func (r *Runner) result(scenario Scenario, in programs.Input, out *exec.RunOutcome,
	evolveCtrl *core.Controller, featureCount int) *RunResult {
	res := &RunResult{
		InputID:        in.ID,
		Scenario:       scenario,
		Result:         out.Result,
		Cycles:         out.Cycles,
		CompileCycles:  out.CompileCycles,
		OverheadCycles: out.OverheadCycles,
		Recompilations: out.Recompilations,
		TotalSamples:   out.TotalSamples,
		Levels:         out.Levels,
		GCStats:        out.GCStats,
		FeatureCount:   featureCount,
	}
	if evolveCtrl != nil {
		res.Evolve = evolveCtrl.Report()
	}
	return res
}

// RunOne executes the input under the scenario, updating cross-run state
// for Rep and Evolve.
func (r *Runner) RunOne(ctx context.Context, scenario Scenario, in programs.Input) (*RunResult, error) {
	spec := r.spec(in)
	evolveCtrl, featureCount, err := r.configure(spec, scenario, in)
	if err != nil {
		return nil, err
	}
	out, err := exec.Run(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("harness: %s under %s: %w", in.ID, scenario, err)
	}
	res := r.result(scenario, in, out, evolveCtrl, featureCount)
	if def, err := r.DefaultCycles(ctx, in); err == nil && res.Cycles > 0 {
		res.Speedup = float64(def) / float64(res.Cycles)
	}
	return res, nil
}

// RunRequest executes one serving request: like RunOne, but a program
// trap is captured as part of the result (Trap set, ledger fields
// attributed, no Result or Speedup) instead of failing the call. An
// aborted run — context cancellation or deadline — still returns the
// typed *interp.CanceledError so the front end can answer with a timeout
// status; cross-run state is untouched by failed runs (the controller
// only commits in OnRunEnd, which aborted and trapped runs never reach).
//
// RunRequest takes no state locks of its own: a caller whose state is
// snapshotted concurrently (the serving front end under checkpoint or
// epoch publication) brackets the call with State.BeginRun/EndRun.
func (r *Runner) RunRequest(ctx context.Context, scenario Scenario, in programs.Input) (*RunResult, error) {
	spec := r.spec(in)
	evolveCtrl, featureCount, err := r.configure(spec, scenario, in)
	if err != nil {
		return nil, err
	}
	out := &exec.RunOutcome{}
	err = exec.RunInto(ctx, spec, out)
	if err != nil {
		var rerr *interp.RuntimeError
		if errors.As(err, &rerr) {
			res := r.result(scenario, in, out, evolveCtrl, featureCount)
			res.Trap = rerr.Msg
			return res, nil
		}
		return nil, err
	}
	res := r.result(scenario, in, out, evolveCtrl, featureCount)
	if def, err := r.DefaultCycles(ctx, in); err == nil && res.Cycles > 0 {
		res.Speedup = float64(def) / float64(res.Cycles)
	}
	return res, nil
}

// DefaultCycles returns the Default-scenario running time of an input
// under r's current jit and GC configs. The reactive controller is
// stateless, so one measurement per input and config is exact — and
// process-wide: a second runner over the same corpus replays the outcome
// from the baseline cache instead of re-executing.
func (r *Runner) DefaultCycles(ctx context.Context, in programs.Input) (int64, error) {
	bl, err := r.baseline(ctx, in)
	if err != nil {
		return 0, err
	}
	return bl.cycles, nil
}

func (r *Runner) baselineKey(in programs.Input) baselineKey {
	return baselineKey{
		bench:  r.Bench.Name,
		seed:   r.corpusSeed,
		corpus: r.corpusSize,
		input:  in.ID,
		jit:    r.JitCfg,
		gc:     r.GC,
	}
}

// baseline measures (or replays) the input's Default-scenario outcome.
// One caller measures each key; a concurrent caller for the same key
// waits for that measurement or for its own context. If the measurement
// fails — perhaps only because its caller's context ended — a waiter
// measures under its own context.
func (r *Runner) baseline(ctx context.Context, in programs.Input) (*baselineOutcome, error) {
	key := r.baselineKey(in)
	for {
		bl, ok := baselineCache.Lookup(key)
		if !ok {
			mine := &baselineOutcome{done: make(chan struct{})}
			if bl, ok = baselineCache.LoadOrStore(key, mine); !ok {
				return r.measureBaseline(ctx, in, key, mine)
			}
		}
		// A finished measurement wins over an ended context.
		select {
		case <-bl.done:
		default:
			select {
			case <-bl.done:
			case <-ctx.Done():
				return nil, context.Cause(ctx)
			}
		}
		if bl.err == nil {
			return bl, nil
		}
	}
}

// measureBaseline runs the Default measurement for bl, which the caller
// stored under key.
func (r *Runner) measureBaseline(ctx context.Context, in programs.Input, key baselineKey, bl *baselineOutcome) (*baselineOutcome, error) {
	defer close(bl.done)
	spec := r.spec(in)
	spec.Controller = func(*vm.Machine) vm.Controller { return aos.NewReactive() }
	userInspect := spec.Inspect
	spec.Inspect = func(m *vm.Machine) {
		bl.work = append([]int64(nil), m.Engine.Work...)
		if userInspect != nil {
			userInspect(m)
		}
	}
	out, err := exec.Run(ctx, spec)
	if err != nil {
		bl.err = err
		baselineCache.Delete(key)
		return nil, err
	}
	bl.cycles = out.Cycles
	return bl, nil
}

// WarmDefaults measures the Default-scenario baseline of every corpus
// input concurrently and memoizes the results. Each measurement is an
// independent deterministic run, so parallelism cannot change any value —
// it only moves host work off the sequential experiment path.
func (r *Runner) WarmDefaults(ctx context.Context) error {
	return r.warmDefaults(ctx, r.Inputs)
}

func (r *Runner) warmDefaults(ctx context.Context, inputs []programs.Input) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(inputs) {
		workers = len(inputs)
	}
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan programs.Input)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			failed := false
			for in := range jobs {
				if failed {
					continue // drain so the feeder never blocks
				}
				if _, err := r.DefaultCycles(ctx, in); err != nil {
					failed = true
					select {
					case errs <- err:
					default:
					}
				}
			}
		}()
	}
	for _, in := range inputs {
		jobs <- in
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// Order draws a random sequence of input indices — the arrival order of
// production runs. The same order can be replayed under every scenario.
func (r *Runner) Order(rng *rand.Rand, runs int) []int {
	order := make([]int, runs)
	for i := range order {
		order[i] = rng.Intn(len(r.Inputs))
	}
	return order
}

// RunSequence executes the inputs selected by order under one scenario,
// evolving the scenario's cross-run state along the way. A learner's
// sequence is a strict chain — run k+1's prediction depends on run k's
// model update — so the runs execute serially; only the default-baseline
// warming ahead of the chain is concurrent.
func (r *Runner) RunSequence(ctx context.Context, scenario Scenario, order []int) ([]*RunResult, error) {
	// Warm the default-cycles baselines of the inputs this sequence will
	// touch, in parallel. Errors are deliberately ignored here: a failing
	// input fails identically (and with better context) inside RunOne.
	seen := make(map[int]bool, len(order))
	var warm []programs.Input
	for _, idx := range order {
		if !seen[idx] {
			seen[idx] = true
			warm = append(warm, r.Inputs[idx])
		}
	}
	_ = r.warmDefaults(ctx, warm)
	results := make([]*RunResult, 0, len(order))
	for _, idx := range order {
		res, err := r.RunOne(ctx, scenario, r.Inputs[idx])
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// Speedups extracts the speedup series from results.
func Speedups(results []*RunResult) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = r.Speedup
	}
	return out
}
