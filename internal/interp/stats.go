package interp

import "sync/atomic"

// This file exports the trace tier's build- and run-time counters: why
// loops degrade off the register tier (per reason), how often traces are
// entered at their head, and how often they hand back to the switch
// loop. The counters are host-side only — they never feed back into any
// virtual observable — and exist so a benchmark regression is
// attributable: a loop that stops tracing shows up as a degradation
// count, not just a slower wall clock. Surfaced by `evolvevm serve`
// /v1/stats and `expdriver -tracestats`.
//
// Build-time counters are process-global atomics (plans are built rarely,
// by whichever engine promotes the code). Run-time counters are plain
// per-run counts in the run's scratch (traceCounts), added to the process
// totals once when Engine.Run returns: the register tier's hot loop never
// touches a cache line another worker shares.

// Degradation reasons, in the order of the DegradeReasons names.
const (
	degCall     = iota // CALL on the traced path
	degRet             // RET on the traced path
	degNewArr          // NEWARR (allocation can start a collection)
	degHalt            // HALT
	degTooLarge        // linearized iteration exceeds traceMaxInstrs
	degRegs            // register file overflow (≥ traceMaxRegs locals+temps)
	degStack           // unbalanced stack: pops below entry or non-neutral back edge
	degCold            // a needed pc has no batchable segment (cold glue code)
	degInner           // walk revisits a segment: an inner loop's back edge
	degOther
	degCount
)

// DegradeReasons names the per-reason degradation counters, index-aligned
// with the TraceStats.Degrade slice.
var DegradeReasons = [degCount]string{
	"call", "ret", "newarr", "halt", "too-large", "regs",
	"unbalanced-stack", "cold", "inner-loop", "other",
}

// Run-time counters, indexes into traceCounts (see TraceStats for their
// meaning).
const (
	tcHeadEntries = iota
	tcSideExits
	tcTraps
	tcDeopts
	tcCount
)

// traceCounts is one run's trace-tier activity, counted without atomics.
type traceCounts [tcCount]int64

// flush adds the run's counts to the process totals and zeroes them.
func (c *traceCounts) flush() {
	for i, n := range c {
		if n != 0 {
			traceStats.run[i].Add(n)
			c[i] = 0
		}
	}
}

var traceStats struct {
	built    atomic.Int64
	degraded [degCount]atomic.Int64
	run      [tcCount]atomic.Int64
}

// TraceStats is a point-in-time snapshot of the trace tier's counters.
type TraceStats struct {
	// Built counts loops successfully converted to register traces;
	// Degrade counts refusals per reason (DegradeReasons order).
	Built   int64            `json:"built"`
	Degrade map[string]int64 `json:"degrade,omitempty"`

	// HeadEntries counts trace activations, each an entry from the
	// engine loop at a loop head. OSREntries is always zero: traces have
	// no mid-iteration entries. It stays only because perfbench/replay.go
	// still reads it; delete it once that file stops.
	HeadEntries int64 `json:"head_entries"`
	OSREntries  int64 `json:"osr_entries"`

	// SideExits counts deoptimizations through a side exit back to the
	// engine loop (symbolic stack rematerialized, suffix charge rolled
	// back); Traps counts trapping deoptimizations; Deopts counts forced
	// per-iteration returns under ForcedDeopt.
	SideExits int64 `json:"side_exits"`
	Traps     int64 `json:"traps"`
	Deopts    int64 `json:"stress_deopts"`
}

// ReadTraceStats snapshots the process-global trace-tier counters. Runs
// still executing have not added their counts yet.
func ReadTraceStats() TraceStats {
	r := &traceStats.run
	st := TraceStats{
		Built:       traceStats.built.Load(),
		HeadEntries: r[tcHeadEntries].Load(),
		SideExits:   r[tcSideExits].Load(),
		Traps:       r[tcTraps].Load(),
		Deopts:      r[tcDeopts].Load(),
	}
	for i := 0; i < degCount; i++ {
		if n := traceStats.degraded[i].Load(); n != 0 {
			if st.Degrade == nil {
				st.Degrade = make(map[string]int64, degCount)
			}
			st.Degrade[DegradeReasons[i]] = n
		}
	}
	return st
}

// ResetTraceStats zeroes the process-global trace-tier counters (tests).
func ResetTraceStats() {
	traceStats.built.Store(0)
	for i := range traceStats.degraded {
		traceStats.degraded[i].Store(0)
	}
	for i := range traceStats.run {
		traceStats.run[i].Store(0)
	}
}

func noteDegrade(reason int) {
	if reason < 0 || reason >= degCount {
		reason = degOther
	}
	traceStats.degraded[reason].Add(1)
}
