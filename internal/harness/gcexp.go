package harness

import (
	"context"
	"fmt"
	"io"

	"evolvevm/internal/gc"
	"evolvevm/internal/programs"
	"evolvevm/internal/stats"
)

// GCBudgetCells is the heap budget of the GC-selection experiment: small
// enough that every server input collects, large enough that the
// highest-retention input fits.
const GCBudgetCells = 6000

// GCRow is one input's outcome in the GC-selection study.
type GCRow struct {
	InputID   string
	MarkSweep int64 // total run cycles under fixed mark-sweep
	Copying   int64 // total run cycles under fixed copying
	Ideal     gc.Policy
}

// GCResult summarizes experiment E8.
type GCResult struct {
	Rows []GCRow
	// Totals over the learned sequence and its comparators.
	FixedMarkSweep int64
	FixedCopying   int64
	Learned        int64
	Oracle         int64
	// PredictedRuns counts runs where the guard released a prediction;
	// CorrectRuns those matching the posterior ideal.
	Runs, PredictedRuns, CorrectRuns int
	FinalConfidence                  float64
}

// gcLearnedRun is one run of the learned-selector sequence.
type gcLearnedRun struct {
	InputID   string
	Cycles    int64
	Predicted bool
	Correct   bool
}

type gcLearned struct {
	Runs            []gcLearnedRun
	FinalConfidence float64
}

// GCSelection runs the §VI extension experiment: cross-input learning of
// the garbage collector on the allocation-heavy server program. Four
// configurations are compared on one random arrival sequence: the two
// fixed collectors, the evolvable selector (discriminative, defaulting
// to mark-sweep while unconfident), and the per-input oracle. The fixed
// per-input measurements are independent work units; the learned
// sequence is a strict chain and runs as one unit alongside them.
func GCSelection(ctx context.Context, w io.Writer, opts Options) (*GCResult, error) {
	b := programs.Server()
	mkRunner := func(policy gc.Policy) (*Runner, error) {
		r, err := NewRunner(b, opts.corpusFor(b), opts.Seed)
		if err != nil {
			return nil, err
		}
		r.GC = gc.Config{Policy: policy, BudgetCells: GCBudgetCells}
		return r, nil
	}
	// The fixed-policy runners are shared across the per-input units:
	// Default-scenario runs touch no learner state, so concurrent inputs
	// only share the process-wide baseline memo and code cache.
	msRunner, err := mkRunner(gc.MarkSweep)
	if err != nil {
		return nil, err
	}
	cpRunner, err := mkRunner(gc.Copying)
	if err != nil {
		return nil, err
	}

	p := opts.planner("gcselection")
	rows := make([]GCRow, len(msRunner.Inputs))
	var learned gcLearned
	for i := range msRunner.Inputs {
		i := i
		unit(p, fmt.Sprintf("fixed/%d", i), &rows[i], nil, func(ctx context.Context) (GCRow, error) {
			var row GCRow
			in := msRunner.Inputs[i]
			ms, err := msRunner.RunOne(ctx, ScenarioDefault, in)
			if err != nil {
				return row, err
			}
			cp, err := cpRunner.RunOne(ctx, ScenarioDefault, cpRunner.Inputs[i])
			if err != nil {
				return row, err
			}
			return GCRow{
				InputID:   in.ID,
				MarkSweep: ms.Cycles,
				Copying:   cp.Cycles,
				Ideal:     gc.IdealPolicy(ms.GCStats.Collections, ms.GCStats.Allocs),
			}, nil
		})
	}
	unit(p, "learned", &learned, nil, func(ctx context.Context) (gcLearned, error) {
		var out gcLearned
		learnedRunner, err := mkRunner(gc.MarkSweep) // policy set per run below
		if err != nil {
			return out, err
		}
		selector := learnedRunner.State.GCSelector(learnedRunner.EvolveCfg)
		order := learnedRunner.Order(stats.Stream(opts.Seed, "gcselection", "order"), opts.runsFor(b))
		for _, idx := range order {
			in := learnedRunner.Inputs[idx]
			vec, _, err := learnedRunner.Features(in)
			if err != nil {
				return out, err
			}
			policy, predicted := selector.Choose(vec)
			if !predicted {
				policy = gc.MarkSweep // the VM's shipped default collector
			}
			learnedRunner.GC = gc.Config{Policy: policy, BudgetCells: GCBudgetCells}
			run, err := learnedRunner.RunOne(ctx, ScenarioDefault, in)
			if err != nil {
				return out, err
			}
			ideal := selector.Observe(vec, run.GCStats)
			out.Runs = append(out.Runs, gcLearnedRun{
				InputID:   in.ID,
				Cycles:    run.Cycles,
				Predicted: predicted,
				Correct:   predicted && policy == ideal,
			})
		}
		out.FinalConfidence = selector.Confidence()
		return out, nil
	})
	if err := p.run(ctx, opts); err != nil {
		return nil, err
	}

	res := &GCResult{Rows: rows, FinalConfidence: learned.FinalConfidence}
	perInput := make(map[string]GCRow, len(rows))
	for _, row := range rows {
		perInput[row.InputID] = row
	}
	for _, run := range learned.Runs {
		row := perInput[run.InputID]
		res.Runs++
		res.Learned += run.Cycles
		res.FixedMarkSweep += row.MarkSweep
		res.FixedCopying += row.Copying
		// The oracle takes the measured per-input best. (The cost-model
		// label row.Ideal can disagree on near-ties, because collection
		// timing perturbs the reactive JIT's sampling slightly between
		// policies.)
		if row.Copying < row.MarkSweep {
			res.Oracle += row.Copying
		} else {
			res.Oracle += row.MarkSweep
		}
		if run.Predicted {
			res.PredictedRuns++
			if run.Correct {
				res.CorrectRuns++
			}
		}
	}

	fmt.Fprintf(w, "GC selection — server benchmark, %d inputs, %d runs, budget %d cells\n",
		len(res.Rows), res.Runs, GCBudgetCells)
	fmt.Fprintf(w, "%-28s %12s %12s %10s\n", "input", "marksweep", "copying", "ideal")
	for _, row := range res.Rows {
		fmt.Fprintf(w, "%-28s %12d %12d %10s\n", row.InputID, row.MarkSweep, row.Copying, row.Ideal)
	}
	fmt.Fprintf(w, "\ntotal cycles over the sequence:\n")
	fmt.Fprintf(w, "  fixed mark-sweep: %d\n", res.FixedMarkSweep)
	fmt.Fprintf(w, "  fixed copying:    %d\n", res.FixedCopying)
	fmt.Fprintf(w, "  learned:          %d\n", res.Learned)
	fmt.Fprintf(w, "  oracle:           %d\n", res.Oracle)
	fmt.Fprintf(w, "selector: %d/%d predicted runs correct, final confidence %.3f\n",
		res.CorrectRuns, res.PredictedRuns, res.FinalConfidence)
	return res, nil
}
