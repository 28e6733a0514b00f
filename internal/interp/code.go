// Package interp implements the execution engine of the evolvable VM: an
// evaluator that runs executable code forms under a deterministic
// virtual-cycle clock with stride-based method sampling.
//
// The same evaluator executes every compilation tier. The baseline tier
// (level −1) runs a function's original bytecode at the baseline per-opcode
// cycle costs; optimized tiers (levels 0–2, produced by internal/jit) run
// rewritten bytecode at reduced per-opcode costs, modelling better code
// generation. Virtual cycles make every run bit-reproducible — the
// substitution for wall-clock time on the paper's hardware (see DESIGN.md).
package interp

import (
	"sync/atomic"

	"evolvevm/internal/bytecode"
)

// BaselineScalePct is the per-op cost multiplier of the baseline
// interpreter tier, in percent.
const BaselineScalePct = 100

// Code is an executable form of one function: instructions (original or
// optimizer-rewritten), a constant pool, and precomputed per-instruction
// cycle costs. The VM keeps one current Code per function and swaps it on
// recompilation.
type Code struct {
	FnIdx    int
	Name     string
	Level    int // −1 baseline, 0..2 optimized tiers
	Instrs   []bytecode.Instr
	Consts   []bytecode.Value
	NArgs    int
	NLocals  int
	MaxStack int
	// Cost[i] is the cycle charge of executing Instrs[i].
	Cost []int64
	// Base[i] is the unscaled baseline cost of Instrs[i], used to
	// attribute tier-independent "work" to functions (the oracle's view
	// of how much computation a method performed).
	Base []int64

	// plans caches the host-performance execution plans (see fuse.go):
	// slot 0 without superinstruction fusion, slot 1 with it. Plans are
	// built lazily on first execution and are immutable afterwards, so a
	// Code may be shared by concurrently running engines (the harness
	// code cache does exactly that).
	plans [2]atomic.Pointer[plan]

	// traces caches the register-converted hot-loop traces (trace.go,
	// regir.go). Trace conversion reads the raw instruction stream over
	// the plan's segment geometry, which is identical with and without
	// superinstruction fusion, so fused and unfused runs share one trace
	// program. Built once hot, immutable after, shared across engines and
	// runs exactly like plans — a Code cached in jit.Cache carries its
	// register plans to every later run.
	traces atomic.Pointer[tracePlan]

	// samples counts deterministic sampler ticks attributed to this code
	// across every engine and run sharing it — the hotness signal that
	// triggers the register tier. Host-side only: the count never feeds
	// back into any virtual observable.
	samples atomic.Int64
}

// TraceHotSamples is the sampler-tick threshold after which an optimized
// Code's (level ≥ 0) loops are register-converted (trace.go). One tick
// equals a full sample stride of executed cycles attributed to the
// function, so two ticks mark genuinely hot code while staying early
// enough that the register form covers most of the remaining execution;
// a trace additionally proves itself by back-edge arrivals before it
// runs (traceHotEntries).
const TraceHotSamples = 2

// noteSample records one sampler tick for hotness tracking.
func (c *Code) noteSample() { c.samples.Add(1) }

// Samples returns the cumulative sampler ticks attributed to this code
// (diagnostics).
func (c *Code) Samples() int64 { return c.samples.Load() }

// installTracePlan builds the register-converted trace plan and installs
// it CAS-once. The build is deterministic, so whichever of several
// concurrent builders wins installs an identical plan; losers discard
// their build (counted in PlanInstallStats). Promotion policy — hotness
// and eagerness — lives in Engine.traceTier; this is only the build step.
func (c *Code) installTracePlan() {
	if !c.traces.CompareAndSwap(nil, buildTracePlan(c)) {
		compileStats.lostTraces.Add(1)
	}
}

// TraceReady reports whether a trace plan has been built for this code
// (diagnostics; cache tests use it to prove register plans travel with
// cached Codes).
func (c *Code) TraceReady() bool { return c.traces.Load() != nil }

// HeadTraceLens returns the register-instruction count of each loop-head
// trace by head pc, a closing rEnd of its own not counted, or nil when no
// plan is built: the dispatches of one full trace iteration, less the
// sentinel's. Diagnostics: jit tests pin the served loops' counts with
// it and check that the plans travel with cached Codes.
func (c *Code) HeadTraceLens() map[int]int {
	tp := c.traces.Load()
	if tp == nil {
		return nil
	}
	lens := map[int]int{}
	for pc, t := range tp.tr {
		if t == nil {
			continue
		}
		n := len(t.ins)
		if t.ins[n-1].op == rEnd {
			n--
		}
		lens[pc] = n
	}
	return lens
}

// planFor returns the execution plan of the code, building it on first
// use. The build is deterministic, so whichever of several concurrent
// builders wins the CAS installs an identical plan; losers discard
// theirs (counted in PlanInstallStats) rather than overwriting.
func (c *Code) planFor(fuse bool) *plan {
	slot := 0
	if fuse {
		slot = 1
	}
	if p := c.plans[slot].Load(); p != nil {
		return p
	}
	p := buildPlan(c, fuse)
	if !c.plans[slot].CompareAndSwap(nil, p) {
		compileStats.lostPlans.Add(1)
		return c.plans[slot].Load()
	}
	return p
}

// NewCode builds an executable form from a function body at the given
// tier cost scale (percent of baseline per-op cost, minimum charge 1).
func NewCode(fnIdx int, f *bytecode.Function, level, scalePct int) *Code {
	c := &Code{
		FnIdx:    fnIdx,
		Name:     f.Name,
		Level:    level,
		Instrs:   f.Code,
		Consts:   f.Consts,
		NArgs:    f.NArgs,
		NLocals:  f.NLocals,
		MaxStack: f.MaxStack,
		Cost:     make([]int64, len(f.Code)),
		Base:     make([]int64, len(f.Code)),
	}
	for i, in := range f.Code {
		cost := bytecode.OpCost(in.Op) * int64(scalePct) / 100
		if cost < 1 {
			cost = 1
		}
		c.Cost[i] = cost
		c.Base[i] = bytecode.OpCost(in.Op)
	}
	return c
}
