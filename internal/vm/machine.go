// Package vm assembles the execution engine, the multi-level JIT, and a
// pluggable optimization controller into a complete virtual machine for
// one program run. The controller — reactive (internal/aos), repository
// based (internal/rep), or evolvable (internal/core) — observes
// invocations and samples and issues recompilation requests; the machine
// charges every compile to the run's virtual-cycle clock, exactly as the
// paper accounts compilation time in total run time.
package vm

import (
	"context"
	"fmt"
	"time"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/interp"
	"evolvevm/internal/jit"
)

// Controller reacts to runtime events and drives recompilation through
// Machine.RequestCompile.
type Controller interface {
	// Name identifies the optimization scenario ("default", "rep",
	// "evolve", ...).
	Name() string
	// OnRunStart fires before the entry function is invoked.
	OnRunStart(m *Machine)
	// OnInvoke fires at each function entry with its cumulative
	// invocation count. Compiles requested here take effect from the
	// function's next invocation.
	OnInvoke(m *Machine, fnIdx int, count int64)
	// OnSample fires on every sampler tick, attributed to the executing
	// function.
	OnSample(m *Machine, fnIdx int)
	// OnRunEnd fires after the program finishes, with the full profile
	// available.
	OnRunEnd(m *Machine)
}

// NullController performs no recompilation: every method runs at the
// baseline level forever (a pure interpreter VM).
type NullController struct{}

func (NullController) Name() string                  { return "null" }
func (NullController) OnRunStart(*Machine)           {}
func (NullController) OnInvoke(*Machine, int, int64) {}
func (NullController) OnSample(*Machine, int)        {}
func (NullController) OnRunEnd(*Machine)             {}

// Machine executes one program run under a controller.
type Machine struct {
	Prog       *bytecode.Program
	Engine     *interp.Engine
	Compiler   *jit.Compiler
	Controller Controller

	// Samples[fn] counts sampler ticks attributed to fn — the profile p
	// of the paper's Figure 7.
	Samples []int64

	// Compile accounting.
	CompileCycles        int64
	BaseCompileCycles    int64
	CompileCyclesByLevel map[int]int64
	Recompilations       int

	// OverheadCycles accumulates controller bookkeeping charged via
	// AddOverhead (feature extraction, prediction) — the quantity
	// reported in the paper's overhead analysis.
	OverheadCycles int64

	current []*interp.Code
	levels  []int

	// Hook closures wired into the engine, created once at New so Reset
	// can rewire them without allocating.
	onInvoke func(fnIdx int, count int64)
	onSample func(fnIdx int)
}

// New builds a machine for a single run of prog.
func New(prog *bytecode.Program, cfg jit.Config, ctrl Controller) *Machine {
	if ctrl == nil {
		ctrl = NullController{}
	}
	m := &Machine{
		Prog:                 prog,
		Engine:               interp.NewEngine(prog),
		Compiler:             jit.NewCompiler(prog, cfg),
		Controller:           ctrl,
		Samples:              make([]int64, len(prog.Funcs)),
		CompileCyclesByLevel: make(map[int]int64),
		current:              make([]*interp.Code, len(prog.Funcs)),
		levels:               make([]int, len(prog.Funcs)),
	}
	for i := range m.levels {
		m.levels[i] = jit.MinLevel - 1 // not yet base-compiled
	}
	m.onInvoke = func(fnIdx int, count int64) {
		m.Controller.OnInvoke(m, fnIdx, count)
	}
	m.onSample = func(fnIdx int) {
		m.Samples[fnIdx]++
		m.Controller.OnSample(m, fnIdx)
	}
	m.Engine.Provider = m.provide
	m.Engine.OnInvoke = m.onInvoke
	m.Engine.OnSample = m.onSample
	return m
}

// Reset prepares the machine for a fresh run of the same program:
// compiler per-run memo cleared (each run pays its own virtual compile
// charges; reattach a shared cache with Compiler.UseShared), ledgers
// zeroed, code table and levels back to never-invoked, engine fully reset
// with its hooks rewired, controller back to Null until the caller
// installs one. With an unchanged tier table this allocates nothing —
// internal/exec pools machines per program on top of it.
func (m *Machine) Reset(cfg jit.Config) {
	if cfg == m.Compiler.Config() {
		m.Compiler.Reset()
	} else {
		m.Compiler = jit.NewCompiler(m.Prog, cfg)
	}
	m.Controller = NullController{}
	clear(m.Samples)
	m.CompileCycles = 0
	m.BaseCompileCycles = 0
	clear(m.CompileCyclesByLevel)
	m.Recompilations = 0
	m.OverheadCycles = 0
	clear(m.current)
	for i := range m.levels {
		m.levels[i] = jit.MinLevel - 1 // not yet base-compiled
	}
	m.Engine.Reset()
	m.Engine.OnInvoke = m.onInvoke
	m.Engine.OnSample = m.onSample
}

// provide returns the current code form of fnIdx, lazily base-compiling
// at the first encounter (the analogue of Jikes RVM's baseline compile).
func (m *Machine) provide(fnIdx int) *interp.Code {
	if m.current[fnIdx] == nil {
		code, cycles := m.Compiler.Baseline(fnIdx)
		m.current[fnIdx] = code
		m.levels[fnIdx] = jit.MinLevel
		m.BaseCompileCycles += cycles
		m.Engine.AddCycles(cycles)
	}
	return m.current[fnIdx]
}

// Level returns the compilation level fnIdx currently runs at (−1 if only
// base-compiled; −2 if never invoked).
func (m *Machine) Level(fnIdx int) int { return m.levels[fnIdx] }

// Levels returns a copy of the current per-function levels.
func (m *Machine) Levels() []int { return append([]int(nil), m.levels...) }

// LevelsInto appends the current per-function levels to dst (pass
// dst[:0] to reuse its backing) — the allocation-free form of Levels.
func (m *Machine) LevelsInto(dst []int) []int { return append(dst, m.levels...) }

// RequestCompile recompiles fnIdx at level if that is an upgrade over its
// current tier, charging the compile cycles to the run clock. The new
// code takes effect at the function's next invocation. Downgrade or
// same-level requests are ignored, as in Jikes RVM.
func (m *Machine) RequestCompile(fnIdx, level int) error {
	if fnIdx < 0 || fnIdx >= len(m.Prog.Funcs) {
		return fmt.Errorf("vm: function index %d out of range", fnIdx)
	}
	if level <= m.levels[fnIdx] || level < 0 {
		return nil
	}
	if level > jit.MaxLevel {
		level = jit.MaxLevel
	}
	code, cycles, err := m.Compiler.Compile(fnIdx, level)
	if err != nil {
		return err
	}
	m.current[fnIdx] = code
	m.levels[fnIdx] = level
	m.CompileCycles += cycles
	m.CompileCyclesByLevel[level] += cycles
	m.Recompilations++
	m.Engine.AddCycles(cycles)
	return nil
}

// AddOverhead charges controller bookkeeping (feature extraction,
// prediction, model work) to the run clock and the overhead ledger.
func (m *Machine) AddOverhead(cycles int64) {
	if cycles <= 0 {
		return
	}
	m.OverheadCycles += cycles
	m.Engine.AddCycles(cycles)
}

// SetContext arranges for the run to abort with a *interp.CanceledError at
// the next sample boundary once ctx is done, wrapping context.Cause(ctx)
// so an abort reports why the context was canceled. A nil or
// never-canceled context clears the hook. Call before Run.
func (m *Machine) SetContext(ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		m.Engine.Interrupt = nil
		return
	}
	dl, hasDeadline := ctx.Deadline()
	m.Engine.Interrupt = func() error {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		// Check the deadline against the wall clock rather than relying
		// on ctx.Err() alone: Err() only flips after the runtime timer
		// fires, and timer delivery latency can exceed a tight deadline
		// by more than the run's own wall time on coarse-tick kernels.
		if hasDeadline && !time.Now().Before(dl) {
			return context.DeadlineExceeded
		}
		return nil
	}
}

// Run executes the program to completion.
func (m *Machine) Run() (bytecode.Value, error) {
	m.Controller.OnRunStart(m)
	v, err := m.Engine.Run()
	if err != nil {
		return v, err
	}
	m.Controller.OnRunEnd(m)
	return v, nil
}

// TotalCycles returns the run's total virtual time (execution + compiles +
// overhead).
func (m *Machine) TotalCycles() int64 { return m.Engine.Cycles }

// LedgerError cross-checks the machine's cycle accounting after a run:
// every cycle on the engine clock must be attributable to executed code
// (Σ FnCycles), compilation, controller overhead, or the collector.
// A nonzero discrepancy means a subsystem charged the clock without
// recording the charge (or vice versa).
func (m *Machine) LedgerError() error {
	var exec int64
	for _, c := range m.Engine.FnCycles {
		exec += c
	}
	charged := exec + m.BaseCompileCycles + m.CompileCycles + m.OverheadCycles +
		m.Engine.GCStats.GCCycles + m.Engine.GCStats.AllocCycles
	if charged != m.Engine.Cycles {
		return fmt.Errorf("vm: cycle ledger off by %d: clock %d, charged %d (exec %d, base-compile %d, compile %d, overhead %d, gc %d, alloc %d)",
			m.Engine.Cycles-charged, m.Engine.Cycles, charged, exec,
			m.BaseCompileCycles, m.CompileCycles, m.OverheadCycles,
			m.Engine.GCStats.GCCycles, m.Engine.GCStats.AllocCycles)
	}
	return nil
}

// Profile returns a copy of the sample counts per function.
func (m *Machine) Profile() []int64 { return append([]int64(nil), m.Samples...) }
