package interp

import (
	"fmt"
	"sync/atomic"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/opt"
)

// This file implements the trace tier, the fourth host tier: hot loop
// bodies run as register programs (regir.go) instead of stack programs.
// A trace anchors at a loop head from opt.Loops and linearizes the hot
// path through the fusion plan's segment geometry — following
// fall-throughs and unconditional jumps, recording a side exit at every
// conditional branch — until the path closes back at the head. One
// iteration becomes one register program; the engine runs it in a flat
// loop (runTrace, generated into trace_run_gen.go) that charges the whole
// iteration in a single batched debit. A branch whose taken target is
// later on the path is a forward skip instead of a side exit: it jumps
// over the instructions in between and subtracts their charge, so the
// clock always holds the executed prefix plus the linear suffix.
//
// On-stack replacement (OSR) widens the tier's reach beyond whole simple
// loops. Besides the head trace, the plan carries partial traces anchored
// at the head trace's in-loop side-exit pcs (forward skips never leave the
// trace and need none). When the switch/fused interpreter finds itself
// mid-iteration at such a pc — most often right after a side exit took the
// cold arm of a branch — it enters the register tier there, runs the REST
// of the iteration as a register program, and rejoins the head trace at
// the back edge (tr.once). Entry state mapping is the same locals→register
// copy as a head entry; no operand-stack mapping is needed because a
// partial trace is built from an empty symbolic stack and refuses to pop
// below its entry depth, so it can only exist at pcs where the remainder
// of the iteration is stack-neutral — any values the interpreter left on
// the stack stay untouched beneath it. Deoptimization from any side exit
// reconstructs interpreter state exactly as head-trace exits do: suffix
// charge rollback, register→locals writeback, symbolic-stack
// rematerialization.
//
// A loop with a CALL on its traced path gets no trace (reason "call")
// and runs on the fused path; the callee's own loops trace in the
// callee's frame.
//
// Bit identity follows the same two-part argument as the fused tier
// (fuse.go): an iteration (or iteration remainder, for OSR) is entered
// only when its full charge fits inside the current sample window, so no
// sampler tick, cycle-fuse check, or interrupt poll can fall inside it;
// and every side exit and trap subtracts the summed charge of the
// not-yet-executed suffix, landing on exactly the ledger state, stack,
// locals, frames, and pc of the per-instruction loop. Loops the
// converter cannot express simply never get a trace and keep running on
// the fused path — per-loop degradation, never a virtual difference.
//
// Trace activation is two-staged and deterministic on the host side:
// the Code must be hot by sampler count (TraceHotSamples), and then each
// individual loop must prove itself by back-edge arrivals
// (traceHotEntries) before its register program runs. OSR traces inherit
// their parent head trace's arrival count. Substrate.EagerRegTier
// short-circuits both gates for the equivalence suites. Neither gate
// feeds back into any virtual observable.
//
// Linked exits. A side exit with an empty symbolic stack whose resume pc
// holds a trace is linked to it at plan build: the trace the engine loop
// would pick there (tracePlan.at). An OSR tail's back edge links to its
// parent head trace the same way. When
// the exit fires, runTrace rolls back the suffix exactly as a hand-back
// would and then asks the same activation gate the engine loop asks
// (Engine.mayRun); if it passes, the next trace starts in-register — the
// locals are already in regs[0:nloc], the operand stack is untouched, and
// the target's batched debit is charged under the same window guard. The
// charge sequence is the engine loop's; only the host-side write-back,
// re-dispatch, and re-entry copy are skipped.

// traceHotEntries is the per-trace back-edge arrival count after which a
// built trace starts executing. Arrivals are counted only when the
// iteration would fit the sample window, so the counter tracks genuine
// execution opportunities.
const traceHotEntries = 4

// trace is the compiled register program of one hot loop (or, for
// once-traces, the tail of one iteration): straight-line register
// instructions, the batched charge, side exits back to bytecode, and trap
// rollbacks.
type trace struct {
	head int32
	// cost and base are the iteration's batched debit: its summed Cost,
	// charged to the engine clock and the function's cycle ledger, and
	// its summed Base, charged to the function's work ledger.
	cost, base int64

	nloc   int32 // locals mirrored in regs[0:nloc]
	consts []bytecode.Value
	ins    []rins
	exits  []rexit
	traps  []rtrap
	divs   []rdiv   // reciprocals of the by-constant divisions
	hoist  []rhoist // the prologue: globals the trace reads and never writes

	// once marks an OSR partial trace: it covers the tail of one
	// iteration from a mid-loop pc to the back edge and always returns at
	// the head after a single pass (the head trace takes over there).
	// parent is the head trace whose arrival count gates it.
	once   bool
	parent *trace

	// entries counts hot-loop arrivals across every engine sharing the
	// Code until it reaches traceHotEntries, then stays put: the gate is
	// read-only once the trace is hot (host-side only).
	entries atomic.Int64
}

// hot reports whether the trace has passed its back-edge hotness gate.
func (t *trace) hot() bool { return t.entries.Load() >= traceHotEntries }

// arrive records one back-edge arrival while the trace is still cold and
// reports whether it is hot.
func (t *trace) arrive() bool { return t.hot() || t.entries.Add(1) >= traceHotEntries }

// tracePlan indexes traces by pc: tr[pc] is the head trace of a loop
// starting at pc, osr[pc] the partial trace entering mid-iteration at pc
// (both nil when absent).
type tracePlan struct {
	tr  []*trace
	osr []*trace
}

// at returns the trace the engine loop runs at pc, or nil: the head trace
// of a loop starting there, else an OSR entry point.
func (tp *tracePlan) at(pc int) *trace {
	if t := tp.tr[pc]; t != nil {
		return t
	}
	return tp.osr[pc]
}

// buildTracePlan discovers and converts every traceable loop of the
// code, then grows OSR entry points at the head traces' in-loop side
// exits. Geometry comes from the fused plan slot: segmentation is
// identical with and without superinstruction fusion (only the
// micro-programs differ), so fused and unfused runs share one trace
// program.
func buildTracePlan(c *Code) *tracePlan {
	n := len(c.Instrs)
	tp := &tracePlan{tr: make([]*trace, n), osr: make([]*trace, n)}
	p := c.planFor(true)
	loops := opt.Loops(c.Instrs)
	// A head with several back edges (cold arms rejoining the loop) is
	// reported once per back edge; the loop region for OSR purposes is
	// the widest one — exit-handler blocks between the first and last
	// back edge are legitimate mid-iteration entry points.
	lastEnd := make(map[int]int)
	for _, lp := range loops {
		if lp.End > lastEnd[lp.Head] {
			lastEnd[lp.Head] = lp.End
		}
	}
	tried := make(map[int]bool)
	for _, lp := range loops {
		if lp.Head >= n || tried[lp.Head] {
			continue
		}
		tried[lp.Head] = true
		pcs, reason := linearizeFrom(c, p, lp.Head, lp.Head)
		var t *trace
		if pcs != nil {
			t, reason = convertTrace(c, lp.Head, pcs)
		}
		if t == nil {
			noteDegrade(reason)
			continue
		}
		traceStats.built.Add(1)
		tp.tr[lp.Head] = t

		// OSR entry points: for every in-loop side exit of the head trace, try to trace the remainder of the iteration from the
		// exit pc back to the head. Exits that left values on the operand
		// stack cannot have a stack-neutral remainder (the head trace's
		// own neutrality proves the remainder must consume them), so the
		// conversion below would refuse them; skip the work. A forward
		// skip never leaves the trace and needs no entry point.
		for _, ex := range t.exits {
			epc := int(ex.pc)
			if len(ex.push) != 0 || ex.to > 0 ||
				epc <= lp.Head || epc > lastEnd[lp.Head] || tp.tr[epc] != nil || tp.osr[epc] != nil {
				continue
			}
			opcs, _ := linearizeFrom(c, p, epc, lp.Head)
			if opcs == nil {
				continue
			}
			ot, _ := convertTrace(c, lp.Head, opcs)
			if ot == nil {
				continue
			}
			ot.once = true
			ot.parent = t
			tp.osr[epc] = ot
		}
	}
	tp.link()
	return tp
}

// link points every side exit with an empty symbolic stack at the trace
// the engine loop would pick at its resume pc. Exits with pending stack
// values must rematerialize them, so they always hand back; forward skips
// stay in their own trace.
func (tp *tracePlan) link() {
	for _, ts := range [2][]*trace{tp.tr, tp.osr} {
		for _, t := range ts {
			if t == nil {
				continue
			}
			for i := range t.exits {
				if ex := &t.exits[i]; len(ex.push) == 0 && ex.to == 0 {
					ex.link = tp.at(int(ex.pc))
				}
			}
		}
	}
}

// linearizeFrom walks plan segments from start, linearizing the
// fall-through/unconditional path until it closes at head: for
// start == head, one full loop iteration; otherwise the tail of an
// iteration (an OSR trace). It returns the pcs of the path's
// instructions in execution order, or nil plus a degradation reason: a
// needed pc has no batchable segment (CALL/RET/NEWARR/HALT and cold glue
// code), the walk revisits a segment without passing the head (an inner
// loop's back edge — the inner loop earns its own trace instead), or the
// path exceeds the size cap.
func linearizeFrom(c *Code, p *plan, start, head int) ([]int, int) {
	var pcs []int
	seen := make(map[int]bool)
	cur := start
	for {
		if cur < 0 || cur >= len(p.seg) {
			return nil, degOther
		}
		if seen[cur] {
			return nil, degInner
		}
		seen[cur] = true
		s := p.seg[cur]
		if s == nil {
			switch c.Instrs[cur].Op {
			case bytecode.CALL:
				return nil, degCall
			case bytecode.RET:
				return nil, degRet
			case bytecode.NEWARR:
				return nil, degNewArr
			case bytecode.HALT:
				return nil, degHalt
			default:
				return nil, degCold
			}
		}
		end := int(s.end)
		for pc := cur; pc < end; pc++ {
			pcs = append(pcs, pc)
		}
		if len(pcs) > traceMaxInstrs {
			return nil, degTooLarge
		}
		switch in := c.Instrs[end-1]; in.Op {
		case bytecode.JMP:
			if int(in.A) == head {
				return pcs, degCount // the back edge: path closed
			}
			cur = int(in.A)
		case bytecode.JZ, bytecode.JNZ:
			if int(in.A) == head || end == head {
				return pcs, degCount // conditional back edge (either sense)
			}
			cur = end // stay on trace through the fall-through
		default:
			if end == head {
				return pcs, degCount // fall-through back into the head
			}
			cur = end
		}
	}
}

// rpushVal rematerializes one symbolic stack slot onto the real operand
// stack at a deoptimization point.
func rpushVal(stack []bytecode.Value, tr *trace, regs *regFile, p rpush) []bytecode.Value {
	switch symKind(p.kind) {
	case symReg:
		return append(stack, regs[p.v])
	case symImm:
		return append(stack, bytecode.Int(int64(p.v)))
	default:
		return append(stack, tr.consts[p.v])
	}
}

// enter counts one activation of t and runs its prologue: every global t
// reads and never writes is loaded into its pinned register, which t's
// instructions read in place of the global. An activation is the engine
// loop's entry, a link, or an OSR tail's return to its head trace. Within
// one activation only t runs, so the registers stay current; the code
// that runs between two activations may write the globals, so each
// activation loads them again.
func (e *Engine) enter(t *trace, regs *regFile, tc *traceCounts) {
	tc.activate(t)
	for _, h := range t.hoist {
		regs[h.reg] = e.Globals[h.g]
	}
}

// mayRun is the register tier's activation gate, asked by the engine
// loop before entering a trace and by runTrace before taking a link, so
// an in-register transition makes exactly the engine loop's decision.
// The whole next iteration must fit the current sample window, and the
// trace must be hot: a head trace by its own back-edge arrivals (this
// call is one), an OSR tail by its parent's; NoOSR refuses every OSR
// tail.
func (e *Engine) mayRun(t *trace) bool {
	if e.Cycles+t.cost >= e.nextSample {
		return false
	}
	if !t.once {
		return e.EagerRegTier || t.arrive()
	}
	return !e.NoOSR && (e.EagerRegTier || t.parent.hot())
}

// unwind subtracts the charges of an iteration's unexecuted suffix: rem
// off the engine clock and the function's cycle ledger, remBase off its
// work ledger.
func (e *Engine) unwind(rem, remBase int32, workP, cycP *int64) {
	e.Cycles -= int64(rem)
	*workP -= int64(remBase)
	*cycP -= int64(rem)
}

// traceLeave hands side exit ex back to the engine loop once its suffix
// is unwound: write the register file back to the locals and
// rematerialize the symbolic operand stack, resuming at the exit's
// bytecode pc.
func (e *Engine) traceLeave(tr *trace, tc *traceCounts, ex *rexit, regs *regFile, locals []bytecode.Value, lb int, stack []bytecode.Value) ([]bytecode.Value, int, int32, string) {
	copy(locals[lb:lb+int(tr.nloc)], regs[:tr.nloc])
	for _, p := range ex.push {
		stack = rpushVal(stack, tr, regs, p)
	}
	tc[tcSideExits]++
	return stack, int(ex.pc), 0, ""
}

// arrayTrap is the trap message of an array op whose operand is not an
// array (aerr) or whose index lies outside [0, n): the accounted loop's.
func arrayTrap(op string, aerr error, idx int64, n int) string {
	if aerr != nil {
		return fmt.Sprintf("%s: %v", op, aerr)
	}
	return fmt.Sprintf("%s: index %d out of range [0,%d)", op, idx, n)
}

// traceTrap aborts the run at trap x: same suffix rollback and local
// write-back as a side exit, then the trap surfaces at the successor pc
// with the message the accounted loop would produce.
func (e *Engine) traceTrap(tr *trace, tc *traceCounts, x int32, regs *regFile, locals []bytecode.Value, lb int, stack []bytecode.Value, workP, cycP *int64, msg string) ([]bytecode.Value, int, int32, string) {
	t := &tr.traps[x]
	e.unwind(t.rem, t.remBase, workP, cycP)
	copy(locals[lb:lb+int(tr.nloc)], regs[:tr.nloc])
	tc[tcTraps]++
	return stack, 0, t.tpc, msg
}
