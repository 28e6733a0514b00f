package interp

import "sync/atomic"

// This file is the register tier's promotion point: the helper the
// generated run loop calls at every frame entry to find (and, on the
// Code's first frame, build) its trace plan, plus the counters for
// install races between concurrent engines sharing one Code.
//
// The tier has one promotion rule: every Code, whatever its level, gets
// its trace plan at its first frame entry, and a trace runs at every
// head arrival whose iteration fits the sample window (Engine.mayRun).
// A running frame never changes its Code, so frame entry is the only
// point that needs to ask. Plans build inline, on the entering engine's
// goroutine, and install CAS-once (Code.installTracePlan). Which host
// tier executes an iteration is never a virtual observable — results,
// traps, cycles, samples, and ledgers are proven bit-identical across
// all three tiers by the difftest soaks — so which of several racing
// engines lands a plan changes only host speed (see DESIGN.md §15).

// traceTier returns the register trace plan of code, building and
// installing it on first use.
func (e *Engine) traceTier(code *Code) *tracePlan {
	if p := code.traces.Load(); p != nil {
		return p
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
