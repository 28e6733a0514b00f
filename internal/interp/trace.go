package interp

import (
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
// Two mechanisms widen the tier's reach beyond whole simple loops:
//
// On-stack replacement (OSR). Besides the head trace, the plan carries
// partial traces anchored at the head trace's in-loop side-exit pcs
// (forward skips never leave the trace and need none).
// When the switch/fused interpreter finds itself mid-iteration at such a
// pc — most often right after a side exit took the cold arm of a branch
// — it enters the register tier there, runs the REST of the iteration as
// a register program, and rejoins the head trace at the back edge
// (tr.once). Entry state mapping is the same locals→register copy as a
// head entry; no operand-stack mapping is needed because a partial trace
// is built from an empty symbolic stack and refuses to pop below its
// entry depth, so it can only exist at pcs where the remainder of the
// iteration is stack-neutral — any values the interpreter left on the
// stack stay untouched beneath it. Deoptimization from any side exit
// reconstructs interpreter state exactly as head-trace exits do: suffix
// charge rollback, register→locals writeback, symbolic-stack
// rematerialization.
//
// CALL inlining. A loop whose body calls a small non-recursive function
// no longer degrades: the callee's hot path is spliced into the
// iteration (regir.go), its locals pinned to a private register block.
// Each inlined site is guarded by the callee Code's fingerprint against
// the engine's current code table (Engine.PeekCode): on mismatch the
// trace side-exits AT the CALL, with the arguments rematerialized on the
// operand stack and every charge of the call rolled back, so the
// interpreter replays the whole call sequence — including a possibly
// charging Provider fetch — against the new code. Invocation counts and
// the OnInvoke hook fire inside the trace at exactly the interpreter's
// clock position (the trace's overcharge is subtracted around the hook
// and re-added after); if the hook charges compile cycles that push the
// rest of the iteration over the sample window, the trace deoptimizes by
// materializing a real callee frame at its entry (args from the pinned
// block), which is also how a side exit inside the callee body resumes:
// a reconstructed callee frame at the branch target, caller frame
// resuming after the CALL.
//
// Bit identity follows the same two-part argument as the fused tier
// (fuse.go): an iteration (or iteration
// remainder, for OSR) is entered only when its full charge fits inside
// the current sample window, so no sampler tick, cycle-fuse check, or
// interrupt poll can fall inside it; and every side exit and trap
// subtracts the summed charge of the not-yet-executed suffix — split per
// function once calls are inlined — landing on exactly the ledger state,
// stack, locals, frames, and pc of the per-instruction loop. Loops the
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
// Linked exits. A plain side exit (no inlined-callee frame, empty
// symbolic stack) whose resume pc holds a trace is linked to it at plan
// build: the trace the engine loop would pick there (tracePlan.at). An
// OSR tail's back edge links to its parent head trace the same way. When
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
// instructions, the batched charge split per charged function, side
// exits back to bytecode, trap rollbacks, and inlined call sites.
type trace struct {
	head int32
	// cost is the full batched debit to the engine clock per iteration;
	// cost0/base0 are the shares charged to the trace's own function.
	// Inlined callees' shares live in the parallel xfns/xcost/xbase
	// (nil when nothing is inlined).
	cost         int64
	cost0, base0 int64
	xfns         []int32
	xcost, xbase []int64

	nloc   int32 // locals mirrored in regs[0:nloc]
	consts []bytecode.Value
	ins    []rins
	exits  []rexit
	traps  []rtrap
	calls  []rcall
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

	// ncalls is the largest call-site table of any trace in the plan:
	// one activation can run several traces through links, so the
	// scratch is sized once for all of them.
	ncalls int

	// missing lists callees that defeated an inlining attempt only
	// because they had never been compiled when the plan was built (a
	// lazy provider compiles on first invocation, which may come after
	// the loop's first frame). traceFor rebuilds the plan once any of
	// them exists; each callee flips nil→non-nil at most once per code
	// table, so rebuilds are bounded.
	missing []int32
}

// at returns the trace the engine loop runs at pc, or nil: the head trace
// of a loop starting there, else an OSR entry point.
func (tp *tracePlan) at(pc int) *trace {
	if t := tp.tr[pc]; t != nil {
		return t
	}
	return tp.osr[pc]
}

// retry reports whether rebuilding the plan could now succeed: some
// refusal was provisional (missing callee) and the current code table
// has a body for that callee.
func (tp *tracePlan) retry(peek func(int) *Code) bool {
	if len(tp.missing) == 0 || peek == nil {
		return false
	}
	for _, fn := range tp.missing {
		if peek(int(fn)) != nil {
			return true
		}
	}
	return false
}

// noteMissing records provisional refusals, deduplicated.
func (tp *tracePlan) noteMissing(fns []int32) {
	for _, fn := range fns {
		dup := false
		for _, m := range tp.missing {
			if m == fn {
				dup = true
				break
			}
		}
		if !dup {
			tp.missing = append(tp.missing, fn)
		}
	}
}

// deoptState is the side channel through which runTrace asks the engine
// loop to materialize an inlined callee as a real interpreter frame: at
// its entry (entry=true, after the invocation hook charged cycles that
// broke the window fit) or at a side exit inside its body (resume at pc
// with the callee's operand stack rematerialized from cpush).
type deoptState struct {
	active bool
	entry  bool
	code   *Code
	pc     int32
	lbase  int32
	nargs  int32
	nloc   int32
	tr     *trace
	cpush  []rpush
}

// buildTracePlan discovers and converts every traceable loop of the
// code, then grows OSR entry points at the head traces' in-loop side
// exits. Geometry comes from the fused plan slot: segmentation is
// identical with and without superinstruction fusion (only the
// micro-programs differ), so fused and unfused runs share one trace
// program per inline mode. peek supplies the engine's current code table
// for callee inlining (see Engine.PeekCode); the resulting plan is still
// valid under any other code table because every inlined site re-guards
// at run time.
func buildTracePlan(c *Code, inline bool, peek func(int) *Code) *tracePlan {
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
		pcs, reason := linearizeFrom(c, p, lp.Head, lp.Head, inline)
		var t *trace
		var miss []int32
		if pcs != nil {
			t, reason, miss = convertTrace(c, lp.Head, pcs, inline, peek)
		}
		if t == nil {
			// A refusal caused only by a never-yet-compiled callee is
			// provisional — the plan is rebuilt when the callee appears —
			// so it is not counted as a degradation.
			if len(miss) == 0 {
				noteDegrade(reason)
			}
			tp.noteMissing(miss)
			continue
		}
		traceStats.built.Add(1)
		tp.tr[lp.Head] = t

		// OSR entry points: for every plain in-loop side exit of the head
		// trace, try to trace the remainder of the iteration from the
		// exit pc back to the head. Exits that left values on the operand
		// stack cannot have a stack-neutral remainder (the head trace's
		// own neutrality proves the remainder must consume them), so the
		// conversion below would refuse them; skip the work. A forward
		// skip never leaves the trace and needs no entry point.
		for _, ex := range t.exits {
			epc := int(ex.pc)
			if ex.callIdx >= 0 || len(ex.push) != 0 || ex.to > 0 ||
				epc <= lp.Head || epc > lastEnd[lp.Head] || tp.tr[epc] != nil || tp.osr[epc] != nil {
				continue
			}
			opcs, _ := linearizeFrom(c, p, epc, lp.Head, inline)
			if opcs == nil {
				continue
			}
			ot, _, omiss := convertTrace(c, lp.Head, opcs, inline, peek)
			if ot == nil {
				tp.noteMissing(omiss)
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

// link sizes the plan's shared scratch and points every plain side exit
// with an empty symbolic stack at the trace the engine loop would pick at
// its resume pc. Callee exits materialize a frame and exits with pending
// stack values must rematerialize them, so both always hand back; forward
// skips stay in their own trace.
func (tp *tracePlan) link() {
	for _, ts := range [2][]*trace{tp.tr, tp.osr} {
		for _, t := range ts {
			if t == nil {
				continue
			}
			tp.ncalls = max(tp.ncalls, len(t.calls))
			for i := range t.exits {
				if ex := &t.exits[i]; ex.callIdx < 0 && len(ex.push) == 0 && ex.to == 0 {
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
// instructions in execution order, with CALL instructions passed through
// for inlining when inline is set, or nil plus a degradation reason:
// a needed pc has no batchable segment (RET/NEWARR/HALT and cold glue
// code), the walk revisits a segment without passing the head (an inner
// loop's back edge — the inner loop earns its own trace instead), or the
// path exceeds the size cap.
func linearizeFrom(c *Code, p *plan, start, head int, inline bool) ([]int, int) {
	// No trace starts at a CALL: its guard-failure exit resumes at the
	// CALL itself with the call's whole charge rolled back, so entering a
	// trace there again would fail the same guard without progress.
	if start < len(c.Instrs) && c.Instrs[start].Op == bytecode.CALL {
		return nil, degCall
	}
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
				if !inline {
					return nil, degCall
				}
				pcs = append(pcs, cur)
				if len(pcs) > traceMaxInstrs {
					return nil, degTooLarge
				}
				cur++ // the callee returns to the next pc
				continue
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

// unwind subtracts the charges of an iteration's unexecuted suffix: tot
// off the engine clock, rem/remBase off the trace function's ledgers,
// and crem off each inlined callee's.
func (e *Engine) unwind(tr *trace, tot, rem, remBase int32, crem []slotRem, workP, cycP *int64) {
	e.Cycles -= int64(tot)
	*workP -= int64(remBase)
	*cycP -= int64(rem)
	for _, sr := range crem {
		fn := tr.xfns[sr.slot-1]
		e.Work[fn] -= int64(sr.remBase)
		e.FnCycles[fn] -= int64(sr.rem)
	}
}

// rollbackPost subtracts the iteration charges not yet earned at the
// accounted post-CALL position of call site rc: the suffix after the
// CALL item, split per charged function.
func (e *Engine) rollbackPost(tr *trace, rc *rcall, workP, cycP *int64) {
	e.unwind(tr, rc.ptot, rc.prem, rc.premBase, rc.pcrem, workP, cycP)
}

// chargePost re-adds what rollbackPost subtracted, returning the clock to
// the whole-iteration-charged state the trace runs under.
func (e *Engine) chargePost(tr *trace, rc *rcall, workP, cycP *int64) {
	e.Cycles += int64(rc.ptot)
	*workP += int64(rc.premBase)
	*cycP += int64(rc.prem)
	for _, sr := range rc.pcrem {
		fn := tr.xfns[sr.slot-1]
		e.Work[fn] += int64(sr.remBase)
		e.FnCycles[fn] += int64(sr.rem)
	}
}

// traceLeave hands side exit ex back to the engine loop once its suffix
// is unwound: write the register file back to the locals and
// rematerialize the symbolic operand stack, resuming at the exit's
// bytecode pc. A callee exit additionally deposits a frame
// materialization request in sc.deopt: the engine loop reconstructs the
// inlined callee as a real frame resuming at the branch target, with the
// caller set to resume after the CALL.
func (e *Engine) traceLeave(tr *trace, sc *runScratch, ex *rexit, regs *regFile, locals []bytecode.Value, lb int, stack []bytecode.Value) ([]bytecode.Value, int, int32, string) {
	copy(locals[lb:lb+int(tr.nloc)], regs[:tr.nloc])
	for _, p := range ex.push {
		stack = rpushVal(stack, tr, regs, p)
	}
	sc.tc[tcSideExits]++
	if ex.callIdx >= 0 {
		rc := &tr.calls[ex.callIdx]
		sc.deopt = deoptState{
			active: true, code: sc.curCodes[ex.callIdx],
			pc: ex.cpc, lbase: rc.lbase, nargs: rc.nargs, nloc: rc.nloc,
			tr: tr, cpush: ex.cpush,
		}
		return stack, int(rc.callPC) + 1, 0, ""
	}
	return stack, int(ex.pc), 0, ""
}

// traceTrap aborts the run at trap x: same suffix rollback and local
// write-back as a side exit, then the trap surfaces at the successor pc
// with the message the accounted loop would produce — re-attributed via
// sc.trapFn when the trapping instruction was inlined from a callee.
func (e *Engine) traceTrap(tr *trace, sc *runScratch, x int32, regs *regFile, locals []bytecode.Value, lb int, stack []bytecode.Value, workP, cycP *int64, msg string) ([]bytecode.Value, int, int32, string) {
	t := &tr.traps[x]
	e.unwind(tr, t.tot, t.rem, t.remBase, t.crem, workP, cycP)
	copy(locals[lb:lb+int(tr.nloc)], regs[:tr.nloc])
	if t.fn >= 0 {
		sc.trapFn = t.fn
	}
	sc.tc[tcTraps]++
	return stack, 0, t.tpc, msg
}
