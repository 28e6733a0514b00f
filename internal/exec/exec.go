// Package exec is the stateless per-run execution layer of the system:
// it turns one immutable RunSpec — program, input binding, scenario
// controller, jit/GC configuration, substrate switches — into one
// RunOutcome. It holds no cross-run state of its own (that lives in
// internal/session) and no experiment logic (internal/harness); a spec
// may therefore be executed from any goroutine, and thousands of
// concurrent runs only share immutable inputs plus the explicitly
// thread-safe shared code cache.
//
// Cancellation is first-class: the run's context is threaded into the
// engine's sample-boundary check, so a canceled or deadline-exceeded run
// aborts cleanly mid-flight with a typed *interp.CanceledError and a
// fully attributed cycle ledger (see vm.Machine.LedgerError).
//
// Machines are pooled per program: a run acquires a reset vm.Machine
// from a sync.Pool keyed by the program and releases it on the way out,
// so the steady state of repeated runs allocates no machine, engine,
// compiler, or ledger memory. Correctness does not depend on the pool —
// a Reset machine is observationally a fresh one (the substrate and
// scheduler equivalence suites run with pooling active).
package exec

import (
	"context"
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"evolvevm/internal/bgcompile"
	"evolvevm/internal/bytecode"
	"evolvevm/internal/gc"
	"evolvevm/internal/interp"
	"evolvevm/internal/jit"
	"evolvevm/internal/vm"
)

// Substrate toggles the host-performance mechanisms of a run. The zero
// value enables everything; each switch exists so the determinism suites
// can prove bit-identical virtual results with any combination disabled.
type Substrate struct {
	NoCodeCache bool // skip the shared cross-run code cache
	NoFusion    bool // batch blocks but without superinstruction fusion
	NoBatching  bool // original per-instruction dispatch only
	NoClosures  bool // fused switch only, no closure-threaded tier
	NoRegTier   bool // no register-converted hot-loop traces

	// EagerRegTier builds and enters register traces without any hotness
	// gate, at every tier including baseline. The equivalence suites and
	// CI use it to force the register tier over code that would otherwise
	// stay below the promotion thresholds.
	EagerRegTier bool

	// NoOSR disables mid-iteration (on-stack replacement) trace entries;
	// traces activate at loop heads only. EagerOSR activates OSR entry
	// points without the parent trace's back-edge hotness gate (forced
	// OSR entry, EVOLVEVM_EAGER_OSR in the difftest soak). ForcedDeopt
	// makes every trace run deoptimize back to the accounted loop after
	// one iteration, exercising the exit/re-entry state mapping on every
	// boundary. NoCallInline refuses CALL during trace building (the
	// pre-inlining per-loop degradation). All host-side only.
	NoOSR        bool
	EagerOSR     bool
	ForcedDeopt  bool
	NoCallInline bool

	// AsyncCompile routes closure- and trace-plan builds through a
	// background compilation pool (RunSpec.Compile when set, else the
	// process-global DefaultCompilePool) instead of building them inline
	// at the promotion point; the engine keeps executing in its current
	// best tier until the built plan lands. The EVOLVEVM_ASYNC_COMPILE
	// environment knob turns it on for every run that does not pin
	// SyncCompile, which forces inline builds regardless — the
	// equivalence suites use the pair to hold both modes to bit-identical
	// virtual results. Host-side only, like every other switch here.
	AsyncCompile bool
	SyncCompile  bool
}

// asyncCompileEnv caches the EVOLVEVM_ASYNC_COMPILE knob: set non-empty,
// every run without Substrate.SyncCompile compiles through the
// background pool, so CI can sweep the whole difftest and harness
// matrix in async mode without touching each suite.
var asyncCompileEnv = os.Getenv("EVOLVEVM_ASYNC_COMPILE") != ""

// AsyncCompileEnv reports whether the EVOLVEVM_ASYNC_COMPILE knob was
// set at process start. Serving and test layers use it to decide whether
// to attach their own compile pools.
func AsyncCompileEnv() bool { return asyncCompileEnv }

// defaultCompilePool is the lazily created process-global background
// compilation pool used by batch runs (env knob or Substrate.AsyncCompile
// without an explicit RunSpec.Compile). It lives for the process — batch
// drivers have no shutdown point, and an idle pool costs a few parked
// goroutines.
var (
	defaultCompilePool atomic.Pointer[bgcompile.Pool]
	defaultCompileMu   sync.Mutex
)

// DefaultCompilePool returns the process-global compilation pool,
// creating it (default workers and depth) on first use.
func DefaultCompilePool() *bgcompile.Pool {
	if p := defaultCompilePool.Load(); p != nil {
		return p
	}
	defaultCompileMu.Lock()
	defer defaultCompileMu.Unlock()
	if p := defaultCompilePool.Load(); p != nil {
		return p
	}
	p := bgcompile.NewPool(0, 0)
	defaultCompilePool.Store(p)
	return p
}

// CompilePoolStats snapshots the process-global pool's counters, or nil
// when no batch run ever created it (diagnostics: expdriver -tracestats).
func CompilePoolStats() *bgcompile.Stats {
	p := defaultCompilePool.Load()
	if p == nil {
		return nil
	}
	st := p.Stats()
	return &st
}

// ProfileLabels, when enabled, wraps every run in a runtime/pprof label
// set (exec_prog, exec_controller) so CPU profiles attribute time by
// program and scenario. Off by default: attaching labels allocates per
// run, which would break the allocation-free steady state, so the
// profiling CLIs switch it on only when a profile is requested.
var ProfileLabels = false

// RunSpec describes one run completely. It is immutable from Run's point
// of view: Run never writes to it, so one spec value may be reused (or
// copied) freely.
type RunSpec struct {
	Prog *bytecode.Program
	Jit  jit.Config
	GC   gc.Config

	Substrate Substrate
	// SharedCode, when non-nil and not disabled by the substrate, lets the
	// run reuse host-side compilation work across runs. Virtual compile
	// charges are unaffected.
	SharedCode *jit.Cache

	// Compile, when non-nil, is the background compilation queue for this
	// run's plan builds (the serving front end passes its per-server
	// pool). Ignored under Substrate.SyncCompile; when nil, the
	// AsyncCompile switch or env knob falls back to DefaultCompilePool.
	Compile interp.CompileQueue

	// Controller builds the run's optimization controller once the machine
	// exists (repository controllers need the compiler's cost model). A
	// nil Controller runs under vm.NullController.
	Controller func(m *vm.Machine) vm.Controller

	// Setup binds the input to the engine (globals, array arguments)
	// before execution. May be nil.
	Setup func(e *interp.Engine) error

	// Inspect, when non-nil, observes the machine after the run finishes —
	// on success and on abort — before Run returns. Used by ledger
	// cross-checks and tests; production callers usually leave it nil.
	Inspect func(m *vm.Machine)
}

// RunOutcome captures the virtual observables of one finished run.
type RunOutcome struct {
	Result         bytecode.Value
	Cycles         int64
	CompileCycles  int64
	OverheadCycles int64
	Recompilations int
	TotalSamples   int64
	Levels         []int
	GCStats        gc.Stats
}

// machinePools maps *bytecode.Program → *sync.Pool of reset vm.Machines.
// Programs are memoized package-level values (programs.Registry), so the
// key set stays small and the pools live for the process.
var machinePools sync.Map

// acquireMachine returns a machine for prog, reusing a pooled one when
// available. The machine comes back in its post-New state (vm.Machine.Reset).
func acquireMachine(prog *bytecode.Program, cfg jit.Config) *vm.Machine {
	if p, ok := machinePools.Load(prog); ok {
		if m, _ := p.(*sync.Pool).Get().(*vm.Machine); m != nil {
			m.Reset(cfg)
			return m
		}
	}
	return vm.New(prog, cfg, nil)
}

// releaseMachine returns a machine to its program's pool. Callers must be
// done with every reference into the machine (the outcome copies all of
// them out).
func releaseMachine(m *vm.Machine) {
	p, ok := machinePools.Load(m.Prog)
	if !ok {
		p, _ = machinePools.LoadOrStore(m.Prog, &sync.Pool{})
	}
	p.(*sync.Pool).Put(m)
}

// Run executes spec under ctx. On success it returns the run's outcome;
// on failure the error is either the program's own runtime error or, for
// a canceled/expired context, a *interp.CanceledError wrapping
// context.Cause(ctx).
func Run(ctx context.Context, spec *RunSpec) (*RunOutcome, error) {
	out := &RunOutcome{}
	if err := RunInto(ctx, spec, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RunInto executes spec like Run but fills a caller-owned outcome,
// reusing its Levels and GC-stats backing when capacities allow. Callers
// that measure many runs and fold each outcome into aggregates (baseline
// warming, sequence driving) reuse one outcome value to keep the steady
// state allocation-free; callers that retain the outcome use Run.
//
// On a failed run — a program trap (*interp.RuntimeError) or an abort
// (*interp.CanceledError) — RunInto still fills the outcome's ledger
// fields (Cycles, CompileCycles, OverheadCycles, Recompilations, Levels,
// samples, GC stats) before returning the error: a trap is a legitimate,
// fully attributed outcome for a serving front end, not a measurement
// failure. Only Result is left zero, since a failed run has none.
func RunInto(ctx context.Context, spec *RunSpec, out *RunOutcome) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return &interp.CanceledError{Prog: spec.Prog.Name, Cause: context.Cause(ctx)}
	}
	m := acquireMachine(spec.Prog, spec.Jit)
	defer releaseMachine(m)
	if spec.Controller != nil {
		m.Controller = spec.Controller(m)
	}
	m.SetContext(ctx)
	m.Engine.GC = spec.GC
	m.Engine.DisableBatching = spec.Substrate.NoBatching
	m.Engine.DisableFusion = spec.Substrate.NoFusion
	m.Engine.DisableClosures = spec.Substrate.NoClosures
	m.Engine.DisableRegTier = spec.Substrate.NoRegTier
	m.Engine.EagerRegTier = spec.Substrate.EagerRegTier
	m.Engine.DisableOSR = spec.Substrate.NoOSR
	m.Engine.EagerOSR = spec.Substrate.EagerOSR
	m.Engine.StressDeopt = spec.Substrate.ForcedDeopt
	m.Engine.DisableCallInline = spec.Substrate.NoCallInline
	m.Engine.SyncCompile = spec.Substrate.SyncCompile
	if !spec.Substrate.SyncCompile {
		if spec.Compile != nil {
			m.Engine.BgCompile = spec.Compile
		} else if spec.Substrate.AsyncCompile || asyncCompileEnv {
			m.Engine.BgCompile = DefaultCompilePool()
		}
	}
	if !spec.Substrate.NoCodeCache && spec.SharedCode != nil {
		m.Compiler.UseShared(spec.SharedCode)
	}
	if spec.Setup != nil {
		if err := spec.Setup(m.Engine); err != nil {
			return fmt.Errorf("exec: setup: %w", err)
		}
	}
	var v bytecode.Value
	var err error
	if ProfileLabels {
		pprof.Do(ctx, pprof.Labels(
			"exec_prog", spec.Prog.Name,
			"exec_controller", m.Controller.Name(),
		), func(context.Context) {
			v, err = m.Run()
		})
	} else {
		v, err = m.Run()
	}
	if spec.Inspect != nil {
		spec.Inspect(m)
	}
	out.Result = v
	out.Cycles = m.TotalCycles()
	out.CompileCycles = m.CompileCycles
	out.OverheadCycles = m.OverheadCycles
	out.Recompilations = m.Recompilations
	out.Levels = m.LevelsInto(out.Levels[:0])
	out.GCStats = m.Engine.GCStats
	out.TotalSamples = 0
	for _, s := range m.Samples {
		out.TotalSamples += s
	}
	if err != nil {
		out.Result = bytecode.Value{}
		return err
	}
	return nil
}
