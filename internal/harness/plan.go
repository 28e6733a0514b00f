package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"

	"evolvevm/internal/sched"
	"evolvevm/internal/session"
)

// Experiments execute as graphs of *work units*. A unit is the atom of
// both parallelism and checkpointing: it runs at most once per session,
// its JSON-encoded output is memoized in the session, and on resume a
// completed unit is replayed from the checkpoint instead of re-running.
// Units that share a Runner only ever touch disjoint cross-run state (or
// the process-wide baseline memo, which measures each key once), so the
// scheduler may execute any ready units concurrently; all result
// assembly and printing happens after the graph completes, in canonical
// (insertion) order — which is why every experiment's output is
// bit-identical regardless of worker count (see DESIGN.md §8).

// planner accumulates an experiment's work units.
type planner struct {
	g      *sched.Graph
	sess   *session.Session
	prefix string
}

func (o Options) planner(experiment string) *planner {
	return &planner{
		g:    sched.NewGraph(),
		sess: o.session(),
		// The key prefix pins every option that changes a unit's meaning,
		// so a checkpoint resumed under different flags recomputes instead
		// of replaying stale results.
		prefix: fmt.Sprintf("%s/seed=%d/runs=%d/corpus=%d/quick=%t",
			experiment, o.Seed, o.Runs, o.Corpus, o.Quick),
	}
}

// run executes the planned graph on the option's worker budget.
func (p *planner) run(ctx context.Context, o Options) error {
	return p.g.Run(ctx, o.workers())
}

// unit registers one work unit. Its output is computed by fn, delivered
// into *out, and memoized in the session under the planner's key prefix.
// Fresh outputs are round-tripped through their JSON encoding before
// delivery, so a value computed now and the same value replayed from a
// checkpoint are bit-identical — the keystone of the resume-equivalence
// guarantee. deps name units (of this planner) that must complete first.
// The returned key names the unit for dependents.
func unit[T any](p *planner, name string, out *T, deps []string, fn func(ctx context.Context) (T, error)) string {
	key := p.prefix + "/" + name
	if raw, ok := p.sess.Unit(key); ok {
		var v T
		if err := json.Unmarshal(raw, &v); err == nil {
			*out = v
			p.g.Add(key, func(context.Context) error { return nil }, deps...)
			p.g.Done(key)
			return key
		}
		// Undecodable blob (format drift): fall through and recompute.
	}
	p.g.Add(key, func(ctx context.Context) error {
		v, err := fn(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		raw, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("%s: encode: %w", name, err)
		}
		var rt T
		if err := json.Unmarshal(raw, &rt); err != nil {
			return fmt.Errorf("%s: round-trip: %w", name, err)
		}
		*out = rt
		p.sess.CompleteUnit(key, raw)
		return nil
	}, deps...)
	return key
}

// workers resolves the option set to a worker count: explicit Workers
// wins, otherwise Parallel means one worker per CPU and serial means one.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	if o.Parallel {
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// session returns the experiment's session, creating an ephemeral one
// when the caller did not supply a checkpointable session.
func (o Options) session() *session.Session {
	if o.Session != nil {
		return o.Session
	}
	return session.New()
}
