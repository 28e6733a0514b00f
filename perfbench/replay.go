package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/harness"
	"evolvevm/internal/interp"
	"evolvevm/internal/programs"
	"evolvevm/internal/session"
	"evolvevm/internal/stats"
	"evolvevm/internal/traffic"
	"evolvevm/internal/vm"
)

// Layer spans of the traced replay. Each is a leaf around one call into
// a layer's public API, so a span's duration is that layer's self time.
const (
	spanFork     = "session.fork_ms"     // harness.Runner.Fork + Session.Attach
	spanRestore  = "session.restore_ms"  // BenchState.Restore from the shared tier
	spanSnapshot = "session.snapshot_ms" // BenchState.Snapshot at an epoch barrier
	spanCommit   = "session.commit_ms"   // BeginRun, Session.CompleteUnit, EndRun
	spanFeatures = "xicl.features_ms"    // Runner.Features
	spanPredict  = "core.predict_ms"     // Evolver.PredictStrategy (lazy CART rebuild)
	spanBaseline = "harness.baseline_ms" // Runner.DefaultCycles
	spanRun      = "harness.run_ms"      // Runner.RunRequest / RunOne: exec, vm, interp, feedback
)

var spanNames = []string{spanFork, spanRestore, spanSnapshot, spanCommit, spanFeatures, spanPredict, spanBaseline, spanRun}

// replayResult is one serial replay of a workload's request sequence.
// Span totals and counters are only filled when the replay is traced.
type replayResult struct {
	Requests int     `json:"requests"`
	TotalMs  float64 `json:"total_ms"` // end to end, summed over requests
	// WallMs is the whole replay loop's wall time, traced or not.
	WallMs float64            `json:"wall_ms"`
	Spans  map[string]float64 `json:"spans"` // per-layer self time, summed over requests
	// ExecMs is each request's summed layer time.
	ExecMs []float64 `json:"exec_ms,omitempty"`

	FVHits          int64 `json:"fv_hits"`
	FVLookups       int64 `json:"fv_lookups"`
	BaselineHits    int64 `json:"baseline_hits"`
	BaselineLookups int64 `json:"baseline_lookups"`
	CodeHits        int64 `json:"code_hits"`
	CodeLookups     int64 `json:"code_lookups"`
	TraceEntries    int64 `json:"trace_entries"`
	SideExits       int64 `json:"side_exits"`
	TraceBuilds     int64 `json:"trace_builds"`
	ModelExamples   int64 `json:"model_examples"`
	Snapshots       int64 `json:"snapshots"`
	SnapshotBytes   int64 `json:"snapshot_bytes"`

	// Evolve and Rep are paper-batch's per-benchmark speedup summaries,
	// which must equal Figure 10's rows.
	Evolve []stats.FiveNum `json:"evolve,omitempty"`
	Rep    []stats.FiveNum `json:"rep,omitempty"`

	Problems []string `json:"problems,omitempty"`
}

// tracer times spans when on and costs two branches when off, so the
// untraced replay makes the same calls without the clock reads.
type tracer struct {
	on  bool
	res *replayResult
	req float64 // the current request's summed span time
}

func (t *tracer) start() time.Time {
	if !t.on {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) end(span string, st time.Time) {
	if !t.on {
		return
	}
	d := msSince(st)
	t.res.Spans[span] += d
	t.req += d
}

// request closes one request: its end-to-end time and summed spans.
func (t *tracer) request(st time.Time) {
	t.res.Requests++
	if !t.on {
		return
	}
	t.res.TotalMs += msSince(st)
	t.res.ExecMs = append(t.res.ExecMs, t.req)
	t.req = 0
}

// counters snapshots the process-wide layer counters around a run.
type counters struct {
	code, codeMiss, baseMiss int64
	trace                    interp.TraceStats
}

func readCounters() counters {
	code, base := harness.CodeCacheStats(), harness.BaselineCacheStats()
	return counters{
		code: code.Hits, codeMiss: code.Misses,
		baseMiss: base.Misses,
		trace:    interp.ReadTraceStats(),
	}
}

func (t *tracer) addRun(a, b counters) {
	if !t.on {
		return
	}
	t.res.CodeHits += b.code - a.code
	t.res.CodeLookups += b.code - a.code + b.codeMiss - a.codeMiss
	t.res.TraceEntries += b.trace.HeadEntries + b.trace.OSREntries - a.trace.HeadEntries - a.trace.OSREntries
	t.res.SideExits += b.trace.SideExits - a.trace.SideExits
	t.res.TraceBuilds += b.trace.Built - a.trace.Built
}

// baseline times Runner.DefaultCycles; a lookup that executed no
// Default-scenario run (no process-wide baseline miss) is a hit.
func (t *tracer) baseline(ctx context.Context, r *harness.Runner, in programs.Input) {
	var a counters
	if t.on {
		a = readCounters()
	}
	st := t.start()
	_, _ = r.DefaultCycles(ctx, in) // an input that fails does so again, with context, in the run
	t.end(spanBaseline, st)
	if t.on {
		t.res.BaselineLookups++
		if harness.BaselineCacheStats().Misses == a.baseMiss {
			t.res.BaselineHits++
		}
	}
}

// features times Runner.Features and then Evolver.PredictStrategy, the
// calls an Evolve run makes before it executes.
func (t *tracer) features(r *harness.Runner, in programs.Input) error {
	var fvHits int64
	if t.on {
		fvHits = r.State.FVCache().Stats().Hits
	}
	st := t.start()
	vec, _, err := r.Features(in)
	t.end(spanFeatures, st)
	if err != nil {
		return err
	}
	ev := r.Evolver()
	if t.on {
		t.res.FVLookups++
		t.res.FVHits += r.State.FVCache().Stats().Hits - fvHits
		for fn := range r.Prog.Funcs {
			if m := ev.ModelFor(fn); m != nil {
				t.res.ModelExamples += int64(m.Len())
			}
		}
	}
	st = t.start()
	ev.PredictStrategy(vec)
	t.end(spanPredict, st)
	return nil
}

// replayChain is a serve chain rebuilt from public calls.
type replayChain struct {
	tenant string
	bench  string
	runner *harness.Runner
	runs   int
}

// replayServe replays a serving workload's whole request sequence, warm
// prefix included, serially in sequence order through the calls that
// serve.Server's execute, chain and publish make — no pool, no admission,
// no HTTP — so every span is free of contention.
func replayServe(ctx context.Context, w *workload, seed int64, traced bool) (*replayResult, error) {
	tr, err := traffic.Generate(w.genConfig(seed))
	if err != nil {
		return nil, err
	}
	res := &replayResult{Spans: make(map[string]float64)}
	t := &tracer{on: traced, res: res}
	var ledgerErrs []string
	protos := make(map[string]*harness.Runner)
	for _, name := range w.Benches {
		r, err := harness.NewRunner(programs.ByName(name), w.Corpus, corpusSeed)
		if err != nil {
			return nil, err
		}
		r.Inspect = func(m *vm.Machine) {
			if err := m.LedgerError(); err != nil {
				ledgerErrs = append(ledgerErrs, err.Error())
			}
		}
		protos[name] = r
	}
	chains := make(map[string]*replayChain)
	tier := make(map[string]json.RawMessage)
	sess := session.New()
	lastEpoch := int64(-1)
	type outcome struct {
		bench string
		input string
		res   *harness.RunResult
	}
	outs := make([]outcome, 0, len(tr.Requests))

	loop := time.Now()
	for _, req := range tr.Requests {
		reqStart := t.start()
		if epoch := req.Seq / int64(w.Epoch); epoch > lastEpoch {
			lastEpoch = epoch
			if epoch > 0 {
				t.publish(chains, tier)
			}
		}
		key := req.Chain()
		ch := chains[key]
		if ch == nil {
			st := t.start()
			ch = &replayChain{tenant: req.Tenant, bench: req.Bench, runner: protos[req.Bench].Fork()}
			chains[key] = ch
			t.end(spanFork, st)
			if blob := tier[req.Bench]; blob != nil {
				st = t.start()
				_ = ch.runner.State.Restore(blob) // a failed seed leaves the chain cold, as in serve
				t.end(spanRestore, st)
			}
			st = t.start()
			_ = sess.Attach(key, ch.runner.State)
			t.end(spanFork, st)
		}
		r := ch.runner
		n := len(r.Inputs)
		in := r.Inputs[((req.Input%n)+n)%n]

		st := t.start()
		r.State.BeginRun()
		t.end(spanCommit, st)
		if err := t.features(r, in); err != nil {
			return nil, err
		}
		t.baseline(ctx, r, in)
		var a counters
		if traced {
			a = readCounters()
		}
		st = t.start()
		rr, err := r.RunRequest(ctx, harness.ScenarioEvolve, in)
		t.end(spanRun, st)
		if traced {
			t.addRun(a, readCounters())
		}
		if err != nil {
			return nil, fmt.Errorf("replay seq %d: %w", req.Seq, err)
		}
		st = t.start()
		sess.CompleteUnit(fmt.Sprintf("seq:%d", req.Seq), nil)
		ch.runs++
		r.State.EndRun()
		t.end(spanCommit, st)
		t.request(reqStart)
		outs = append(outs, outcome{req.Bench, in.ID, rr})
	}
	res.WallMs = msSince(loop)

	res.Problems = append(res.Problems, ledgerErrs...)
	if units := len(sess.UnitKeys()); units != len(tr.Requests) {
		res.Problems = append(res.Problems, fmt.Sprintf("session ledger: %d units for %d requests", units, len(tr.Requests)))
	}
	ref, err := newReference(w.Benches, w.Corpus, corpusSeed)
	if err != nil {
		return nil, err
	}
	for _, o := range outs {
		status := traffic.StatusOK
		if o.res.Trap != "" {
			status = traffic.StatusTrap
		}
		if err := ref.check(ctx, o.bench, o.input, status, o.res.Result, o.res.Trap); err != nil {
			res.Problems = append(res.Problems, err.Error())
		}
	}
	return res, nil
}

// publish is serve's epoch barrier: snapshot each benchmark's most
// trained chain (ties to the smallest tenant) into the shared tier.
func (t *tracer) publish(chains map[string]*replayChain, tier map[string]json.RawMessage) {
	best := make(map[string]*replayChain)
	for _, ch := range chains {
		if ch.runs == 0 {
			continue
		}
		b := best[ch.bench]
		if b == nil || ch.runs > b.runs || (ch.runs == b.runs && ch.tenant < b.tenant) {
			best[ch.bench] = ch
		}
	}
	for bench, ch := range best {
		st := t.start()
		blob, err := ch.runner.State.Snapshot()
		t.end(spanSnapshot, st)
		if err != nil {
			continue
		}
		tier[bench] = blob
		if t.on {
			t.res.Snapshots++
			t.res.SnapshotBytes += int64(len(blob))
		}
	}
}

// replayBatch replays Figure 10's run sequences — every benchmark, the
// Evolve arm then the Rep arm over the same input order — serially
// through the runner calls RunSequence makes, and summarizes each arm's
// speedups exactly as Figure 10 does.
func replayBatch(ctx context.Context, w *workload, seed int64, traced bool) (*replayResult, error) {
	res := &replayResult{Spans: make(map[string]float64)}
	t := &tracer{on: traced, res: res}
	opts := w.batchOptions(seed)
	suite := programs.All()
	runners := make([]*harness.Runner, len(suite))
	for i, b := range suite {
		r, err := harness.NewRunner(b, opts.Corpus, seed)
		if err != nil {
			return nil, err
		}
		runners[i] = r
	}
	type outcome struct {
		bench string
		input string
		value bytecode.Value
	}
	var outs []outcome

	loop := time.Now()
	for i, b := range suite {
		r := runners[i]
		order := r.Order(stats.Stream(seed, "figure10", "order", b.Name), opts.Runs)
		for _, scenario := range []harness.Scenario{harness.ScenarioEvolve, harness.ScenarioRep} {
			speedups := make([]float64, 0, len(order))
			for _, idx := range order {
				in := r.Inputs[idx]
				reqStart := t.start()
				if scenario == harness.ScenarioEvolve {
					if err := t.features(r, in); err != nil {
						return nil, err
					}
				}
				t.baseline(ctx, r, in)
				var a counters
				if traced {
					a = readCounters()
				}
				st := t.start()
				rr, err := r.RunOne(ctx, scenario, in)
				t.end(spanRun, st)
				if traced {
					t.addRun(a, readCounters())
				}
				t.request(reqStart)
				if err != nil {
					return nil, fmt.Errorf("replay %s: %w", b.Name, err)
				}
				speedups = append(speedups, rr.Speedup)
				outs = append(outs, outcome{b.Name, in.ID, rr.Result})
			}
			if scenario == harness.ScenarioEvolve {
				res.Evolve = append(res.Evolve, stats.Summary(speedups))
			} else {
				res.Rep = append(res.Rep, stats.Summary(speedups))
			}
		}
	}
	res.WallMs = msSince(loop)

	names := make([]string, len(suite))
	for i, b := range suite {
		names[i] = b.Name
	}
	ref, err := newReference(names, opts.Corpus, seed)
	if err != nil {
		return nil, err
	}
	for _, o := range outs {
		if err := ref.check(ctx, o.bench, o.input, traffic.StatusOK, o.value, ""); err != nil {
			res.Problems = append(res.Problems, err.Error())
		}
	}
	return res, nil
}
