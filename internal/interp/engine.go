package interp

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/gc"
)

// RuntimeError describes a dynamic failure (division by zero, bad array
// access, resource exhaustion) with its program location.
type RuntimeError struct {
	Prog string
	Fn   string
	PC   int
	Msg  string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("runtime: %s.%s+%d: %s", e.Prog, e.Fn, e.PC, e.Msg)
}

// CanceledError reports a run aborted by its interrupt hook (context
// cancellation or deadline). The abort happens at a sample boundary, after
// the crossing instruction's cycles were charged, so the engine's cycle
// ledger remains fully attributed: every cycle on the clock is accounted
// to executed code, compilation, overhead, or the collector.
type CanceledError struct {
	Prog string
	// Fn and PC locate the executing function when the abort fired. Fn is
	// empty when the run was canceled before its first instruction.
	Fn     string
	PC     int
	Cycles int64 // virtual cycles charged before the abort
	Cause  error // the interrupt hook's error (e.g. context.Canceled)
}

func (e *CanceledError) Error() string {
	if e.Fn == "" {
		return fmt.Sprintf("canceled: %s before execution: %v", e.Prog, e.Cause)
	}
	return fmt.Sprintf("canceled: %s.%s+%d after %d cycles: %v", e.Prog, e.Fn, e.PC, e.Cycles, e.Cause)
}

// Unwrap exposes the cancellation cause so errors.Is(err,
// context.Canceled) and errors.Is(err, context.DeadlineExceeded) work.
func (e *CanceledError) Unwrap() error { return e.Cause }

// Defaults for engine limits.
const (
	DefaultSampleStride = 20_000         // cycles between method samples
	DefaultMaxCycles    = 50_000_000_000 // runaway-loop fuse
	DefaultMaxHeapCells = 64 << 20       // max live array cells
	maxCallDepth        = 4096
)

// Substrate toggles the host-performance mechanisms of a run. The zero
// value enables everything; each switch exists so the determinism suites
// can prove bit-identical virtual results with any combination disabled
// or forced. Every field is host-side only: no setting changes a cycle,
// sample, trap, ledger, or output. The engine reads the execution
// switches; NoCodeCache is read by internal/exec, which owns the shared
// code cache.
type Substrate struct {
	NoCodeCache bool // exec: skip the shared cross-run code cache
	NoFusion    bool // batch blocks but without superinstruction fusion
	NoBatching  bool // original per-instruction dispatch only
	NoRegTier   bool // no register-converted hot-loop traces (trace.go, regir.go)

	// EagerRegTier builds and enters register traces for every executed
	// Code immediately, regardless of level or hotness. The equivalence
	// suites use it to hold the register tier to bit identity from the
	// first instruction.
	EagerRegTier bool

	// ForcedDeopt makes every trace run hand back to the accounted loop
	// after a single iteration, hammering the exit/re-entry state
	// mapping.
	ForcedDeopt bool

	// NoClosures, SyncCompile, NoCallInline and NoOSR have no effect: the
	// closure-threaded tier, the background compile pool, trace-level
	// CALL inlining and mid-iteration (OSR) trace entries they switched
	// off no longer exist. Trace plans always build inline at the
	// promotion point, a loop with a CALL on its traced path always runs
	// on the fused path, and traces are entered at loop heads only. They
	// stay only because perfbench/check.go still sets them; delete all
	// four once that file stops.
	NoClosures   bool
	SyncCompile  bool
	NoCallInline bool
	NoOSR        bool
}

// Engine executes a program under a virtual-cycle clock.
//
// The executable form of each function is obtained through Provider at
// every call, so a controller may swap in recompiled code between
// invocations (the activation that is already running keeps its old code,
// as in a JIT without on-stack replacement).
//
// OnInvoke fires after the code for a new activation has been fetched,
// with the function's cumulative invocation count (1 on first call). It
// may charge cycles, swap code and write globals: it never runs inside a
// register trace, and every entry into a trace from the engine loop
// reloads the globals the trace reads ahead of their loads.
// OnSample fires once per SampleStride cycles of executed code, attributed
// to the function executing when the stride boundary is crossed — the
// deterministic analogue of Jikes RVM's timer-based sampler.
type Engine struct {
	Prog     *bytecode.Program
	Provider func(fnIdx int) *Code
	OnInvoke func(fnIdx int, count int64)
	OnSample func(fnIdx int)

	SampleStride int64
	MaxCycles    int64
	MaxHeapCells int64

	// Interrupt, when set, is polled once before the first instruction and
	// then at every sample boundary (every SampleStride cycles of executed
	// code). A non-nil return aborts the run with a *CanceledError wrapping
	// it. The poll sits off the batched fast path — segments never cross a
	// sample boundary — so an idle hook costs nothing per instruction.
	// Typically wired to a context.Context's Err method (vm.Machine.SetContext).
	Interrupt func() error

	// Substrate selects the host execution tiers and their promotion
	// policy (see Substrate). Host-side only: virtual results are
	// bit-identical under every setting.
	Substrate

	Globals     []bytecode.Value
	Output      []bytecode.Value
	Cycles      int64
	Invocations []int64
	// Work[fn] accumulates tier-independent baseline cost of the
	// instructions fn executed; FnCycles[fn] accumulates the actual
	// (tier-scaled) cycles charged to fn.
	Work     []int64
	FnCycles []int64

	// GC enables heap collection (zero value: the heap only grows).
	// GCStats records the collector's behaviour for the run.
	GC      gc.Config
	GCStats gc.Stats

	heap      [][]bytecode.Value
	heapCells int64
	freeSlots []int64
	// spares are the previous run's arrays at full capacity, sorted by
	// descending capacity: Reset moves the finished run's heap here and
	// newArray reuses them instead of allocating.
	spares [][]bytecode.Value

	// Root sets published for the collector. During Run these alias the
	// evaluator's live locals arena and operand stack; they are synced
	// at every allocation site (the only place a collection can start).
	rootLocals []bytecode.Value
	rootStack  []bytecode.Value

	nextSample int64
	halted     bool
}

// NewEngine returns an engine for prog with default limits and a baseline
// Provider that interprets every function at level −1. Callers typically
// replace Provider with a tier-aware one.
func NewEngine(prog *bytecode.Program) *Engine {
	e := &Engine{
		Prog:         prog,
		SampleStride: DefaultSampleStride,
		MaxCycles:    DefaultMaxCycles,
		MaxHeapCells: DefaultMaxHeapCells,
		Globals:      make([]bytecode.Value, len(prog.Globals)),
		Invocations:  make([]int64, len(prog.Funcs)),
		Work:         make([]int64, len(prog.Funcs)),
		FnCycles:     make([]int64, len(prog.Funcs)),
	}
	// The default provider base-compiles lazily: engines are created per
	// run by the thousands during experiments, and most replace Provider
	// (or never touch most functions) before the eager forms would pay
	// off. NewCode is pure, so laziness is unobservable.
	baseline := make([]*Code, len(prog.Funcs))
	e.Provider = func(fnIdx int) *Code {
		c := baseline[fnIdx]
		if c == nil {
			c = NewCode(fnIdx, prog.Funcs[fnIdx], -1, BaselineScalePct)
			baseline[fnIdx] = c
		}
		return c
	}
	return e
}

// SetGlobal stores v in the named global slot.
func (e *Engine) SetGlobal(name string, v bytecode.Value) error {
	idx, ok := e.Prog.GlobalIndex(name)
	if !ok {
		return fmt.Errorf("interp: no global %q in %s", name, e.Prog.Name)
	}
	e.Globals[idx] = v
	return nil
}

// Global reads the named global slot.
func (e *Engine) Global(name string) (bytecode.Value, error) {
	idx, ok := e.Prog.GlobalIndex(name)
	if !ok {
		return bytecode.Value{}, fmt.Errorf("interp: no global %q in %s", name, e.Prog.Name)
	}
	return e.Globals[idx], nil
}

// NewArray allocates a heap array of n zero cells and returns its
// reference value, collecting garbage first when a GC policy is enabled
// and the heap budget would be exceeded. Exposed so harnesses can pass
// array inputs to programs.
func (e *Engine) NewArray(n int64) (bytecode.Value, error) {
	ref, _, err := e.newArray(n, true)
	return ref, err
}

// NewArrayCells allocates like NewArray but returns the new array's cells
// uncleared, for a caller that fills the array itself: a recycled array
// still holds its last run's values, so the caller must write every cell
// before the program runs.
func (e *Engine) NewArrayCells(n int64) (bytecode.Value, []bytecode.Value, error) {
	return e.newArray(n, false)
}

// newArray is the one allocation path: budget, collection, overhead and
// limit accounting, then a spare of the previous run (cleared when zero
// is set) or fresh memory.
func (e *Engine) newArray(n int64, zero bool) (bytecode.Value, []bytecode.Value, error) {
	if n < 0 {
		return bytecode.Value{}, nil, fmt.Errorf("interp: negative array length %d", n)
	}
	collecting := e.GC.Policy != gc.None && e.GC.BudgetCells > 0
	if collecting && e.heapCells+n > e.GC.BudgetCells {
		e.Collect()
		if e.heapCells+n > e.GC.BudgetCells {
			return bytecode.Value{}, nil, fmt.Errorf(
				"interp: out of memory: %d live + %d requested cells exceed budget %d",
				e.heapCells, n, e.GC.BudgetCells)
		}
	}
	if e.heapCells+n > e.MaxHeapCells {
		return bytecode.Value{}, nil, fmt.Errorf("interp: heap limit exceeded (%d cells)", e.MaxHeapCells)
	}
	if collecting {
		e.GCStats.Allocs++
		overhead := gc.AllocOverhead(e.GC.Policy)
		e.GCStats.AllocCycles += overhead
		e.Cycles += overhead
	}
	e.heapCells += n
	cells := e.takeSpare(n)
	if cells == nil {
		cells = make([]bytecode.Value, n)
	} else if zero {
		clear(cells)
	}
	// MarkSweep reuses freed slots; Copying and None bump-append.
	if e.GC.Policy == gc.MarkSweep && len(e.freeSlots) > 0 {
		slot := e.freeSlots[len(e.freeSlots)-1]
		e.freeSlots = e.freeSlots[:len(e.freeSlots)-1]
		e.heap[slot] = cells
		return bytecode.Arr(slot), cells, nil
	}
	e.heap = append(e.heap, cells)
	return bytecode.Arr(int64(len(e.heap) - 1)), cells, nil
}

// takeSpare removes the smallest spare of at least n cells and returns
// its first n, uncleared, or nil when none fits. spares is sorted by
// descending capacity, so that is the last spare that fits; a run that
// allocates many equal arrays takes them from the end.
func (e *Engine) takeSpare(n int64) []bytecode.Value {
	if n == 0 {
		return nil // an empty make allocates nothing
	}
	i := sort.Search(len(e.spares), func(i int) bool { return int64(cap(e.spares[i])) < n }) - 1
	if i < 0 {
		return nil
	}
	cells := e.spares[i][:n]
	last := len(e.spares) - 1
	copy(e.spares[i:], e.spares[i+1:])
	e.spares[last] = nil
	e.spares = e.spares[:last]
	return cells
}

// Array returns the backing slice of an array reference. It inlines
// into every tier's array ops: the error is a plain value whose message
// is formatted only when read.
func (e *Engine) Array(v bytecode.Value) ([]bytecode.Value, error) {
	if v.Kind == bytecode.KArr && uint64(v.I) < uint64(len(e.heap)) {
		if arr := e.heap[v.I]; arr != nil {
			return arr, nil
		}
	}
	return nil, notArrayError{v}
}

// notArrayError is Array's error for a value that is not a live array
// reference.
type notArrayError struct{ v bytecode.Value }

func (e notArrayError) Error() string {
	return fmt.Sprintf("interp: %s is not a live array reference", e.v)
}

// LiveCells returns the number of live heap cells.
func (e *Engine) LiveCells() int64 { return e.heapCells }

// Collect runs one garbage collection under the configured policy,
// charging its cost to the clock. Reachability roots are the globals,
// the published locals arena and operand stack, and array interiors.
func (e *Engine) Collect() {
	if e.GC.Policy == gc.None {
		return
	}
	e.GCStats.Policy = e.GC.Policy
	mark := make([]bool, len(e.heap))
	var liveCells int64
	var work []int64
	visit := func(v bytecode.Value) {
		if v.Kind == bytecode.KArr && v.I >= 0 && v.I < int64(len(e.heap)) && !mark[v.I] {
			mark[v.I] = true
			work = append(work, v.I)
		}
	}
	for _, v := range e.Globals {
		visit(v)
	}
	for _, v := range e.rootLocals {
		visit(v)
	}
	for _, v := range e.rootStack {
		visit(v)
	}
	for len(work) > 0 {
		idx := work[len(work)-1]
		work = work[:len(work)-1]
		arr := e.heap[idx]
		liveCells += int64(len(arr))
		for _, v := range arr {
			visit(v)
		}
	}

	rec := gc.Collection{
		LiveCells:  liveCells,
		TotalCells: e.heapCells,
		FreedCells: e.heapCells - liveCells,
	}

	switch e.GC.Policy {
	case gc.MarkSweep:
		for i, arr := range e.heap {
			if arr != nil && !mark[i] {
				e.heap[i] = nil
				e.freeSlots = append(e.freeSlots, int64(i))
			}
		}
	case gc.Copying:
		newHeap := make([][]bytecode.Value, 0, len(e.heap))
		remap := make([]int64, len(e.heap))
		for i := range remap {
			remap[i] = -1
		}
		for i, arr := range e.heap {
			if arr != nil && mark[i] {
				remap[i] = int64(len(newHeap))
				newHeap = append(newHeap, arr)
			}
		}
		fix := func(vals []bytecode.Value) {
			for i, v := range vals {
				if v.Kind == bytecode.KArr && v.I >= 0 && v.I < int64(len(remap)) && remap[v.I] >= 0 {
					vals[i].I = remap[v.I]
				}
			}
		}
		fix(e.Globals)
		fix(e.rootLocals)
		fix(e.rootStack)
		for _, arr := range newHeap {
			fix(arr)
		}
		e.heap = newHeap
		e.freeSlots = nil
	}
	e.heapCells = liveCells

	cost := gc.CollectionCost(e.GC.Policy, rec)
	e.GCStats.GCCycles += cost
	e.GCStats.FreedCells += rec.FreedCells
	e.GCStats.Collections = append(e.GCStats.Collections, rec)
	e.AddCycles(cost)
}

// AddCycles charges n cycles of non-executing work (e.g. compilation) to
// the clock. Stride boundaries crossed this way produce no samples,
// mirroring Jikes RVM, where the sampler observes only application code.
// Compilation charges reach hundreds of strides, so the boundary skip is
// closed-form rather than a loop (this sits on the hot compile-charge
// path of every recompilation).
func (e *Engine) AddCycles(n int64) {
	e.Cycles += n
	if e.nextSample <= e.Cycles {
		e.nextSample += ((e.Cycles-e.nextSample)/e.SampleStride + 1) * e.SampleStride
	}
}

type frame struct {
	code       *Code
	pc         int
	localsBase int
	spBase     int
}

// runScratch is the pooled per-run working memory of the evaluator: the
// locals arena, operand stack, frame stack, and the trace-tier register
// file. Engines are created (or reset) per run by the thousands during
// experiments; recycling the arenas makes the steady state
// allocation-free. Values carry no pointers, so retaining their backing
// arrays in the pool pins nothing.
type runScratch struct {
	locals []bytecode.Value
	stack  []bytecode.Value
	frames []frame
	regs   *regFile

	// tc counts the run's trace-tier activity, flushed to the process
	// totals when Run returns (stats.go).
	tc traceCounts
}

var scratchPool = sync.Pool{
	New: func() any {
		return &runScratch{
			locals: make([]bytecode.Value, 0, 256),
			stack:  make([]bytecode.Value, 0, 256),
			frames: make([]frame, 0, 32),
		}
	},
}

// Reset returns the engine to its post-NewEngine state for a fresh run of
// the same program, keeping the Provider (and any baseline-code cache
// behind it) and the allocated ledger slices. Pooled vm.Machines use this
// to make repeated runs allocation-free; everything a run can observe —
// globals, output, clocks, ledgers, heap, GC state, limits, hooks, and
// substrate toggles — is restored to defaults.
//
// The finished run's arrays become the spares the next run allocates
// from, replacing the previous spares, so an engine holds at most one
// run's arrays between runs. A spare is cleared (NewArray) or written
// whole (NewArrayCells) before the program can read it, so recycling is
// unobservable.
func (e *Engine) Reset() {
	e.OnInvoke = nil
	e.OnSample = nil
	e.SampleStride = DefaultSampleStride
	e.MaxCycles = DefaultMaxCycles
	e.MaxHeapCells = DefaultMaxHeapCells
	e.Interrupt = nil
	e.Substrate = Substrate{}
	clear(e.Globals)
	e.Output = e.Output[:0]
	e.Cycles = 0
	clear(e.Invocations)
	clear(e.Work)
	clear(e.FnCycles)
	e.GC = gc.Config{}
	e.GCStats = gc.Stats{}
	clear(e.spares)
	e.spares = e.spares[:0]
	for i, arr := range e.heap {
		if cap(arr) > 0 {
			e.spares = append(e.spares, arr[:cap(arr)])
		}
		e.heap[i] = nil
	}
	slices.SortFunc(e.spares, func(a, b []bytecode.Value) int { return cap(b) - cap(a) })
	e.heap = e.heap[:0]
	e.heapCells = 0
	e.freeSlots = e.freeSlots[:0]
	e.rootLocals, e.rootStack = nil, nil
	e.nextSample = 0
	e.halted = false
}

// Halted reports whether the last Run ended on a HALT instruction.
func (e *Engine) Halted() bool { return e.halted }
