package interp

import "sync/atomic"

// This file is the register tier's promotion point: the helpers the
// generated run loop calls at frame entry and sampler ticks to find (and,
// once the code is hot, build) a Code's trace plan, plus the counters for
// install races between concurrent engines sharing one Code.
//
// Plans build inline, on the promoting engine's goroutine, and install
// CAS-once (Code.installTracePlan). Which host tier executes an iteration
// is never a virtual observable — results, traps, cycles, samples, and
// ledgers are proven bit-identical across all three tiers by the difftest
// soaks — so which of several racing engines lands a plan changes only
// host speed (see DESIGN.md §15).

// traceHot reports whether the code has earned register conversion.
func (e *Engine) traceHot(code *Code) bool {
	return e.EagerRegTier || (code.Level >= 0 && code.samples.Load() >= TraceHotSamples)
}

// traceTier returns the register trace plan code should run under, or
// nil. A hot code without a plan builds one inline at the promotion
// point.
func (e *Engine) traceTier(code *Code) *tracePlan {
	if p := code.traces.Load(); p != nil {
		return p
	}
	if !e.traceHot(code) {
		return nil
	}
	code.installTracePlan()
	return code.traces.Load()
}

// compileStats counts plan-install CAS races lost process-wide: a loser
// paid for a full build whose result was discarded. Nonzero values are
// expected under concurrent engines sharing Codes; the counters exist so
// "how much build work is wasted" is measurable rather than folklore.
var compileStats struct {
	lostPlans  atomic.Int64
	lostTraces atomic.Int64
}

// PlanInstallStats is a point-in-time snapshot of the plan-install race
// counters (host-side diagnostics, never a virtual observable).
type PlanInstallStats struct {
	// Lost* count CompareAndSwap installs that found the slot already
	// filled by a concurrent builder, per plan form.
	LostPlans  int64 `json:"lost_plans"`
	LostTraces int64 `json:"lost_traces"`
}

// ReadPlanInstallStats snapshots the process-global install-race counters.
func ReadPlanInstallStats() PlanInstallStats {
	return PlanInstallStats{
		LostPlans:  compileStats.lostPlans.Load(),
		LostTraces: compileStats.lostTraces.Load(),
	}
}
