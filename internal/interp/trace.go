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
// Every side exit and trap hands back to the engine loop (traceLeave,
// traceTrap): the register file is written back to the locals and the
// symbolic operand stack is rematerialized, so the engine loop resumes at
// the exit's pc in exactly the state the per-instruction loop would have
// reached there. The trace runs again from its head at the loop's next
// head arrival.
//
// A loop with a CALL on its traced path gets no trace (reason "call")
// and runs on the fused path; the callee's own loops trace in the
// callee's frame.
//
// Bit identity follows the same two-part argument as the fused tier
// (fuse.go): an iteration is entered only when its full charge fits
// inside the current sample window, so no sampler tick, cycle-fuse
// check, or interrupt poll can fall inside it; and every side exit and
// trap subtracts the summed charge of the not-yet-executed suffix,
// landing on exactly the ledger state, stack, locals, frames, and pc of
// the per-instruction loop. Loops the converter cannot express simply
// never get a trace and keep running on the fused path — per-loop
// degradation, never a virtual difference.
//
// Trace activation is two-staged and deterministic on the host side:
// the Code must be hot by sampler count (TraceHotSamples), and then each
// individual loop must prove itself by back-edge arrivals
// (traceHotEntries) before its register program runs.
// Substrate.EagerRegTier short-circuits both gates for the equivalence
// suites. Neither gate feeds back into any virtual observable.

// traceHotEntries is the per-trace back-edge arrival count after which a
// built trace starts executing. Arrivals are counted only when the
// iteration would fit the sample window, so the counter tracks genuine
// execution opportunities.
const traceHotEntries = 4

// trace is the compiled register program of one hot loop: straight-line
// register instructions, the batched charge, side exits back to
// bytecode, and trap rollbacks.
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

	// entries counts hot-loop arrivals across every engine sharing the
	// Code until it reaches traceHotEntries, then stays put: the gate is
	// read-only once the trace is hot (host-side only).
	entries atomic.Int64
}

// arrive records one back-edge arrival while the trace is still cold and
// reports whether it is hot.
func (t *trace) arrive() bool {
	return t.entries.Load() >= traceHotEntries || t.entries.Add(1) >= traceHotEntries
}

// tracePlan indexes traces by pc: tr[pc] is the trace of the loop whose
// head is pc, or nil.
type tracePlan struct {
	tr []*trace
}

// buildTracePlan discovers and converts every traceable loop of the
// code. Geometry comes from the fused plan slot: segmentation is
// identical with and without superinstruction fusion (only the
// micro-programs differ), so fused and unfused runs share one trace
// program.
func buildTracePlan(c *Code) *tracePlan {
	n := len(c.Instrs)
	tp := &tracePlan{tr: make([]*trace, n)}
	p := c.planFor(true)
	// A head with several back edges (cold arms rejoining the loop) is
	// reported once per back edge; it is tried once.
	tried := make(map[int]bool)
	for _, lp := range opt.Loops(c.Instrs) {
		if lp.Head >= n || tried[lp.Head] {
			continue
		}
		tried[lp.Head] = true
		pcs, reason := linearize(c, p, lp.Head)
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
	}
	return tp
}

// linearize walks plan segments from head, linearizing the
// fall-through/unconditional path of one loop iteration until it closes
// back at head. It returns the pcs of the path's instructions in
// execution order, or nil plus a degradation reason: a needed pc has no
// batchable segment (CALL/RET/NEWARR/HALT and cold glue code), the walk
// revisits a segment without passing the head (an inner loop's back edge
// — the inner loop earns its own trace instead), or the path exceeds the
// size cap.
func linearize(c *Code, p *plan, head int) ([]int, int) {
	var pcs []int
	seen := make(map[int]bool)
	cur := head
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

// mayRun is the register tier's activation gate, asked by the engine
// loop at a loop head before entering its trace. The whole next
// iteration must fit the current sample window, and the trace must be
// hot by its own back-edge arrivals (this call is one).
func (e *Engine) mayRun(t *trace) bool {
	return e.Cycles+t.cost < e.nextSample && (e.EagerRegTier || t.arrive())
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
