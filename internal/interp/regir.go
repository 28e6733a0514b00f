package interp

import (
	"math"
	"math/bits"

	"evolvevm/internal/bytecode"
)

// This file implements the register IR of the trace tier (trace.go) and
// the stack-to-register converter that produces it. A linearized hot-loop
// body (one iteration of bytecode, discovered over the fusion plan's
// segment geometry) is abstract-interpreted with a symbolic operand
// stack: LOADs become register references (copy propagation), pushed
// immediates and constants stay symbolic until a consumer needs them in a
// register (constant rematerialization), GLOADs of globals the trace
// never writes read a pinned register the trace's prologue fills
// (hoisting), and pure stack shuffles (DUP, SWAP, POP) compile to
// nothing. What remains is a short register program over a file that
// mirrors the frame's locals in its low slots — loop-carried values never
// touch the operand stack while the trace runs. A branch whose taken
// target lies later on the traced path, with an empty symbolic stack at
// both ends, becomes a forward skip over the instructions in between
// rather than a side exit.
//
// CALL is admitted by trace-style inlining: a small, non-recursive callee
// body is linearized (following its hot fall-through path) and spliced
// into the iteration's item stream, with the callee's locals pinned to a
// fresh contiguous register block. The inlined body is guarded by the
// callee Code's fingerprint — if the runtime callee no longer matches,
// the trace deoptimizes at the CALL itself and the interpreter replays
// the whole call sequence. Conditional branches inside the callee become
// callee exits: deoptimization points that materialize a real callee
// frame (locals from the pinned block, operand stack rematerialized) so
// the switch loop resumes mid-callee bit-identically.
//
// The conversion refuses anything it cannot prove equivalent and reports
// a degradation reason (stats.go), degrading that loop to the fused
// path: ops outside the segment-safe set, operand-stack
// pops below the loop-entry depth or a non-empty symbolic stack at the
// back edge ("escaping stack depth"), register or cost overflows, and
// callee bodies with loops, nested calls, or allocation.
//
// Bit identity is inherited from the same two mechanisms as the fused
// tier (fuse.go §comment, DESIGN.md §10): a whole iteration
// is charged only when it fits inside the current sample window, and
// every side exit or trap carries the summed charge of the unexecuted
// instruction suffix — split per function once calls are inlined — so the
// rollback lands on exactly the ledger state of the per-instruction
// loop; a forward skip subtracts the skipped items' charge the same way.
// Register writes are invisible between exits by construction: locals
// are copied in at trace entry and written back at every exit, no write
// to a global, the output or the heap is ever reordered or elided, and a
// global is read ahead of its GLOAD only when nothing in the trace writes
// it — only stack and local traffic is removed.

// Trace conversion limits.
const (
	// traceMaxInstrs caps one linearized iteration (inlined callee
	// instructions included).
	traceMaxInstrs = 256
	// traceMaxRegs caps the register file: the function's locals plus the
	// converter's temporaries plus pinned callee-local blocks and hoisted
	// globals.
	traceMaxRegs = 64
	// inlineMaxInstrs caps one inlined callee body ("small" in the
	// trace-inlining rule): the linearized path from entry to RET.
	inlineMaxInstrs = 48
)

// rOp is a register-IR opcode. The structural opcodes below are
// scaffolding; the operator opcodes, one per spec op and operand form,
// are generated from the spec (regir_gen.go) starting at rGen, and so are
// their arms in Engine.runTrace (trace_run_gen.go).
type rOp uint8

const (
	rLoadI   rOp = iota // regs[d] = Int(a)
	rLoadC              // regs[d] = Consts[a]
	rMove               // regs[d] = regs[a]
	rGLoad              // regs[d] = Globals[a], for a global the trace writes
	rGStore             // Globals[a] = regs[b]
	rInc                // regs[d].I += a (kind-preserving, like IINC)
	rALoad              // regs[d] = Array(regs[a])[regs[b].AsInt()]; trap x
	rAStore             // Array(regs[a])[regs[b].AsInt()] = regs[d]; trap x
	rALen               // regs[d] = Int(len(Array(regs[a]))); trap x
	rPrint              // Output = append(Output, regs[a])
	rBrTrue             // exit x when regs[a].IsTrue()
	rBrFalse            // exit x when !regs[a].IsTrue()
	rCall               // inlined call site x: guard, hook, zero callee locals
	rGen                // the first generated operator opcode
)

// rins is one register instruction. d, a, b and c are registers: d the
// destination (rAStore: the value stored; rInc: the incremented local),
// a, b and c the operands (c only a 3-operand kernel's third). imm is the
// immediate: the value of rLoadI, rInc and the immediate forms, or the
// constant-pool, global or reciprocal index of rLoadC, rGLoad/rGStore and
// the by-constant forms. x indexes the trace's exit table for branches,
// its trap table for trapping ops, and its call table for rCall.
type rins struct {
	op         rOp
	d, a, b, c uint8
	imm        int32
	x          int32
}

// regFile is the register file of the trace tier. Register numbers are
// uint8 and the file has 256 slots, so no register access needs a bounds
// check; traces use the first traceMaxRegs.
type regFile [256]bytecode.Value

// The register numbers of a trace must fit rins's uint8 fields.
const _ = uint8(traceMaxRegs - 1)

// rWritesD reports whether op writes regs[d] as a pure result — the set
// the store peephole may retarget at a local.
func rWritesD(op rOp) bool {
	switch op {
	case rLoadI, rLoadC, rMove, rGLoad, rALoad, rALen:
		return true
	}
	return op >= rGen && op < rGenExit
}

// rdiv is the precomputed reciprocal of a nonzero constant divisor d, so
// the register tier divides with a multiply-high instead of a hardware
// divide. For |d| ≥ 2 it is the magic multiplier m and shift s of
// Hacker's Delight §10-1, with a = ±1 adding or subtracting the dividend
// when m's sign differs from d's and fix = 1 rounding toward zero; for
// d = ±1 it is m = 0, a = d, s = 0, fix = 0. quo and rem then equal Go's
// truncated n / d and n % d for every int64 n, MinInt64 / -1 included.
type rdiv struct {
	d, m, a, fix int64
	s            uint8
}

// newRdiv computes the reciprocal of the nonzero divisor d.
func newRdiv(d int64) rdiv {
	if d == 1 || d == -1 {
		return rdiv{d: d, a: d}
	}
	const two63 = uint64(1) << 63
	ad := uint64(d)
	if d < 0 {
		ad = -ad
	}
	t := two63 + uint64(d)>>63
	anc := t - 1 - t%ad // |nc|
	p := 63
	q1, r1 := two63/anc, two63%anc // 2^p / |nc|
	q2, r2 := two63/ad, two63%ad   // 2^p / |d|
	for {
		p++
		q1, r1 = 2*q1, 2*r1
		if r1 >= anc {
			q1, r1 = q1+1, r1-anc
		}
		q2, r2 = 2*q2, 2*r2
		if r2 >= ad {
			q2, r2 = q2+1, r2-ad
		}
		if delta := ad - r2; q1 >= delta && (q1 != delta || r1 != 0) {
			break
		}
	}
	m := int64(q2 + 1)
	if d < 0 {
		m = -m
	}
	k := rdiv{d: d, m: m, s: uint8(p - 64), fix: 1}
	switch {
	case d > 0 && m < 0:
		k.a = 1
	case d < 0 && m > 0:
		k.a = -1
	}
	return k
}

// quo returns n / k.d, truncated.
func (k *rdiv) quo(n int64) int64 {
	hi, _ := bits.Mul64(uint64(k.m), uint64(n))
	q := int64(hi) - k.m>>63&n - n>>63&k.m + k.a*n // high word of m·n, signed, ± n
	q >>= k.s
	return q + int64(uint64(q)>>63)&k.fix
}

// rem returns n % k.d, with the dividend's sign.
func (k *rdiv) rem(n int64) int64 { return n - k.quo(n)*k.d }

// rhoist is one hoisted global: the pinned register the trace's prologue
// fills with Globals[g] at every activation.
type rhoist struct {
	reg, g int32
}

// rpush is one value the engine must push onto the real operand stack
// when a side exit fires: a register's current value, a rematerialized
// immediate, or a constant-pool entry. kind uses the symKind numbering.
type rpush struct {
	kind uint8
	v    int32
}

// slotRem is the rollback charge of one inlined-callee slot (1-based
// index into trace.xfns via slot-1): the summed Cost/Base of that
// function's not-yet-executed instructions.
type slotRem struct {
	slot, rem, remBase int32
}

// rexit is one side exit: the off-trace resume pc plus the suffix
// rollback — tot comes off the engine clock, rem/remBase off the caller's
// ledgers, crem off each inlined callee's — and the symbolic stack to
// rematerialize. A callee exit (callIdx >= 0) additionally materializes a
// callee frame resuming at cpc, with the callee's operand stack in cpush
// (push then holds only the caller's residual stack below the call).
//
// A forward skip (to > 0) is a branch whose target is a later item of the
// same iteration: it never leaves the trace. It resumes at instruction to
// and subtracts only the skipped items' charges, which tot, rem, remBase
// and crem then hold.
type rexit struct {
	pc           int32
	tot          int32
	rem, remBase int32
	crem         []slotRem
	push         []rpush
	callIdx      int32 // -1 for plain exits
	cpc          int32 // callee resume pc (callee exits only)
	cpush        []rpush
	to           int32 // forward skips: the instruction to resume at
	// link is the trace the engine loop would run at pc, set by
	// tracePlan.link for plain exits with nothing to rematerialize.
	link *trace
}

// rtrap is the rollback record of one trapping instruction: suffix
// charges and the successor pc the accounted loop would report. fn >= 0
// attributes the trap to an inlined callee (error Fn/PC name that
// function, exactly as the interpreted call would).
type rtrap struct {
	tot          int32
	rem, remBase int32
	crem         []slotRem
	tpc          int32
	fn           int32 // -1: the trace's own function
}

// rcall is one inlined call site: the build-time callee (the guard), the
// pinned register block holding the callee's locals, the deopt records
// for guard failure (exitX: resume at the CALL with the args still on the
// stack) and for a mid-call bail after the invocation hook charged cycles
// (ptot/prem/premBase/pcrem position the clock at the accounted post-CALL
// point; push rematerializes the caller's residual stack).
type rcall struct {
	fnIdx  int32
	slot   int32 // charge slot (index into trace.xfns via slot-1)
	code   *Code // expected callee code at build time
	fp     uint64
	callPC int32
	lbase  int32 // pinned register block: callee local k lives in regs[lbase+k]
	nargs  int32
	nloc   int32
	exitX  int32

	ptot           int32
	prem, premBase int32
	pcrem          []slotRem
	push           []rpush // caller residual stack (args consumed)
}

// symKind classifies a symbolic stack slot.
type symKind uint8

const (
	symReg   symKind = iota // a register (local or temp) holds the value
	symImm                  // an int32 immediate, not yet materialized
	symConst                // a merged-constant-pool entry, not yet materialized
)

// sym is one slot of the converter's symbolic operand stack.
type sym struct {
	k symKind
	v int32
}

// titem is one linearized instruction of the trace: its owning Code (the
// loop's function, or an inlined callee), its pc there, the charge slot
// its Cost/Base accrue to, and — for a CALL instruction — the ordinal of
// its call site.
type titem struct {
	code *Code
	pc   int32
	slot int32
	call int32 // call-site ordinal at a CALL item, else -1
}

// rconv is the conversion state for one trace.
type rconv struct {
	caller *Code
	head   int
	items  []titem
	fns    []int32 // charge-slot function indexes; fns[0] is the caller

	// Per-slot suffix charge sums over items (len(items)+1 each): sufT is
	// the engine-clock total, sufS/sufSB split it per charge slot.
	sufT        []int32
	sufS, sufSB [][]int32

	// consts is the trace's constant pool: the caller's pool, copied on
	// write when an inlined callee contributes entries.
	consts      []bytecode.Value
	constsOwned bool

	ins   []rins
	exits []rexit
	traps []rtrap
	calls []rcall
	divs  []rdiv

	// written holds the globals some item stores (inlined callees
	// included); a GLOAD of any other global reads the pinned register
	// the prologue fills (hoist).
	written map[int32]bool
	hoist   []rhoist

	// skips are the branches that may become forward skips, confirmed
	// when conversion reaches their target item (landSkips).
	skips []pendingSkip

	stk    []sym
	nloc   int
	nregs  int     // registers in use: locals, temps, pinned blocks
	ref    []int16 // per-register refcount; slots < nloc are locals (untracked)
	pinned []bool  // callee-local blocks and hoisted globals: never allocated, never refcounted

	// Callee-conversion context: curCall >= 0 while converting inside an
	// inlined body; floor is the symbolic stack depth at callee entry
	// (pops below it refuse, exits split caller/callee stacks there).
	curCall int32
	floor   int

	// missing records a CALL refused only because the callee has never
	// been compiled (peek returned nil). Such a refusal is provisional:
	// the plan records it so traceFor can rebuild once the callee's code
	// exists (see tracePlan.missing).
	missing []int32
}

// pendingSkip is a branch at item from, with exit record x, whose taken
// target is the later item to.
type pendingSkip struct {
	x        int32
	from, to int
}

// convertTrace compiles one linearized loop iteration into a trace. pcs
// holds the caller's linearized pcs (CALL instructions included when
// inlining); callee bodies are expanded here. Returns nil and a
// degradation reason when any instruction defeats the conversion; the
// third result lists callees whose absence (never compiled) caused the
// refusal, so the caller can schedule a rebuild when they appear.
func convertTrace(c *Code, head int, pcs []int, inline bool, peek func(int) *Code) (*trace, int, []int32) {
	if c.NLocals >= traceMaxRegs {
		return nil, degRegs, nil
	}
	cv := &rconv{
		caller:  c,
		head:    head,
		fns:     []int32{int32(c.FnIdx)},
		consts:  c.Consts,
		nloc:    c.NLocals,
		nregs:   c.NLocals,
		ref:     make([]int16, c.NLocals),
		pinned:  make([]bool, c.NLocals),
		curCall: -1,
	}
	if reason := cv.expand(pcs, inline, peek); reason != degCount {
		return nil, reason, cv.missing
	}
	if reason := cv.sumSuffixes(); reason != degCount {
		return nil, reason, nil
	}
	cv.written = make(map[int32]bool)
	for _, it := range cv.items {
		if in := it.code.Instrs[it.pc]; in.Op == bytecode.GSTORE {
			cv.written[in.A] = true
		}
	}
	for i := range cv.items {
		cv.landSkips(i)
		if ok, reason := cv.instr(i); !ok {
			return nil, reason, nil
		}
	}
	if len(cv.stk) != 0 {
		return nil, degStack, nil // iteration not stack-neutral: escaping stack depth
	}
	t := &trace{
		head:   int32(head),
		cost:   int64(cv.sufT[0]),
		cost0:  int64(cv.sufS[0][0]),
		base0:  int64(cv.sufSB[0][0]),
		nloc:   int32(cv.nloc),
		consts: cv.consts,
		ins:    cv.ins,
		exits:  cv.exits,
		traps:  cv.traps,
		calls:  cv.calls,
		divs:   cv.divs,
		hoist:  cv.hoist,
	}
	for s := 1; s < len(cv.fns); s++ {
		t.xfns = append(t.xfns, cv.fns[s])
		t.xcost = append(t.xcost, int64(cv.sufS[s][0]))
		t.xbase = append(t.xbase, int64(cv.sufSB[s][0]))
	}
	return t, degCount, nil
}

// expand turns the caller's linearized pcs into the trace's item stream,
// splicing each inlinable CALL's callee body in place. Returns degCount
// on success, a degradation reason otherwise.
func (cv *rconv) expand(pcs []int, inline bool, peek func(int) *Code) int {
	c := cv.caller
	for _, pc := range pcs {
		in := c.Instrs[pc]
		if in.Op != bytecode.CALL {
			cv.items = append(cv.items, titem{code: c, pc: int32(pc), slot: 0, call: -1})
			continue
		}
		if !inline || peek == nil {
			return degCall
		}
		fnIdx := int(in.A)
		if fnIdx == c.FnIdx {
			return degCall // self-recursion can never be guard-stable
		}
		cc := peek(fnIdx)
		if cc == nil {
			// Callee never invoked: nothing to inline against yet. Record
			// it so the plan can be rebuilt once the code table has a body
			// — with a lazy provider the first build often precedes the
			// callee's first invocation.
			cv.missing = append(cv.missing, int32(fnIdx))
			return degCall
		}
		cpcs, reason := linearizeCallee(cc)
		if cpcs == nil {
			return reason
		}
		slot := int32(-1)
		for s, fn := range cv.fns {
			if fn == int32(fnIdx) {
				slot = int32(s)
				break
			}
		}
		if slot < 0 {
			cv.fns = append(cv.fns, int32(fnIdx))
			slot = int32(len(cv.fns) - 1)
		}
		cv.calls = append(cv.calls, rcall{
			fnIdx:  int32(fnIdx),
			slot:   slot,
			code:   cc,
			fp:     cc.Fingerprint(),
			callPC: int32(pc),
			nargs:  in.B,
			nloc:   int32(cc.NLocals),
		})
		cv.items = append(cv.items, titem{code: c, pc: int32(pc), slot: 0, call: int32(len(cv.calls) - 1)})
		for _, cpc := range cpcs {
			cv.items = append(cv.items, titem{code: cc, pc: cpc, slot: slot, call: -1})
		}
	}
	if len(cv.items) > traceMaxInstrs {
		return degTooLarge
	}
	return degCount
}

// linearizeCallee walks a callee body from its entry to RET, following
// fall-throughs, unconditional jumps, and the fall-through arm of
// conditional branches (the taken arm becomes a callee exit during
// conversion). Refuses loops, nested calls, allocation, HALT, and bodies
// over the inline size cap.
func linearizeCallee(cc *Code) ([]int32, int) {
	var pcs []int32
	seen := make(map[int]bool)
	pc := 0
	for {
		if pc < 0 || pc >= len(cc.Instrs) || seen[pc] {
			return nil, degCallee
		}
		seen[pc] = true
		in := cc.Instrs[pc]
		switch in.Op {
		case bytecode.RET:
			pcs = append(pcs, int32(pc))
			return pcs, degCount
		case bytecode.JMP:
			pcs = append(pcs, int32(pc))
			pc = int(in.A)
		case bytecode.CALL:
			return nil, degCallee // depth-1 inlining only
		case bytecode.NEWARR:
			return nil, degNewArr
		case bytecode.HALT:
			return nil, degHalt
		default:
			pcs = append(pcs, int32(pc))
			pc++
		}
		if len(pcs) > inlineMaxInstrs {
			return nil, degCallee
		}
	}
}

// sumSuffixes computes the per-position suffix charge sums over the item
// stream: the engine-clock total and the per-slot split the exit and trap
// rollbacks subtract.
func (cv *rconv) sumSuffixes() int {
	n := len(cv.items)
	cv.sufT = make([]int32, n+1)
	cv.sufS = make([][]int32, len(cv.fns))
	cv.sufSB = make([][]int32, len(cv.fns))
	for s := range cv.sufS {
		cv.sufS[s] = make([]int32, n+1)
		cv.sufSB[s] = make([]int32, n+1)
	}
	var total int64
	for k := n - 1; k >= 0; k-- {
		it := cv.items[k]
		cost := it.code.Cost[it.pc]
		base := it.code.Base[it.pc]
		total += cost
		if total > math.MaxInt32 {
			return degTooLarge
		}
		cv.sufT[k] = cv.sufT[k+1] + int32(cost)
		for s := range cv.sufS {
			cv.sufS[s][k] = cv.sufS[s][k+1]
			cv.sufSB[s][k] = cv.sufSB[s][k+1]
		}
		cv.sufS[it.slot][k] += int32(cost)
		cv.sufSB[it.slot][k] += int32(base)
	}
	return degCount
}

func (cv *rconv) emit(in rins) { cv.ins = append(cv.ins, in) }

func (cv *rconv) push(s sym) { cv.stk = append(cv.stk, s) }

// pop takes the top symbolic slot; failure means the instruction would
// consume a value pushed before the loop (or, inside an inlined callee,
// before the call) was entered.
func (cv *rconv) pop() (sym, bool) {
	if len(cv.stk) <= cv.floor {
		return sym{}, false
	}
	s := cv.stk[len(cv.stk)-1]
	cv.stk = cv.stk[:len(cv.stk)-1]
	return s, true
}

// alloc claims a free temporary register (refcount 1), or -1 when the
// file is full. Pinned callee-local blocks hold refcount 1 forever, so
// the scan never reuses them.
func (cv *rconv) alloc() int32 {
	for i := cv.nloc; i < cv.nregs; i++ {
		if cv.ref[i] == 0 {
			cv.ref[i] = 1
			return int32(i)
		}
	}
	if cv.nregs >= traceMaxRegs {
		return -1
	}
	cv.ref = append(cv.ref, 1)
	cv.pinned = append(cv.pinned, false)
	cv.nregs++
	return int32(cv.nregs - 1)
}

func (cv *rconv) retain(r int32) {
	if int(r) >= cv.nloc && !cv.pinned[r] {
		cv.ref[r]++
	}
}

func (cv *rconv) release(r int32) {
	if int(r) >= cv.nloc && !cv.pinned[r] {
		cv.ref[r]--
	}
}

func (cv *rconv) releaseSym(s sym) {
	if s.k == symReg {
		cv.release(s.v)
	}
}

// use returns a register holding s, materializing immediates and
// constants into a fresh temp. The caller releases the returned register
// after emitting its consumer (a no-op for locals; for temps this drops
// either the symbolic stack's reference or the materialization's).
func (cv *rconv) use(s sym) int32 {
	switch s.k {
	case symReg:
		return s.v
	case symImm:
		d := cv.alloc()
		if d >= 0 {
			cv.emit(rins{op: rLoadI, d: uint8(d), imm: s.v})
		}
		return d
	default:
		d := cv.alloc()
		if d >= 0 {
			cv.emit(rins{op: rLoadC, d: uint8(d), imm: s.v})
		}
		return d
	}
}

// immVal extracts the int64 the accounted interpreter would read from
// s's .I field, for constant folding and reg-imm forms.
func (cv *rconv) immVal(s sym) (int64, bool) {
	switch s.k {
	case symImm:
		return int64(s.v), true
	case symConst:
		return cv.consts[s.v].I, true
	}
	return 0, false
}

// constIdx maps a constant-pool reference of code to the trace's merged
// pool, copying the caller's pool on first callee contribution.
func (cv *rconv) constIdx(code *Code, idx int32) int32 {
	if code == cv.caller {
		return idx
	}
	v := code.Consts[idx]
	for j, have := range cv.consts {
		if have == v {
			return int32(j)
		}
	}
	if !cv.constsOwned {
		cv.consts = append(append([]bytecode.Value(nil), cv.consts...), v)
		cv.constsOwned = true
	} else {
		cv.consts = append(cv.consts, v)
	}
	return int32(len(cv.consts) - 1)
}

// localReg maps a LOAD/STORE/IINC slot of the current context to its
// register: the caller's locals mirror regs[0:nloc], an inlined callee's
// live in its pinned block.
func (cv *rconv) localReg(k int32) int32 {
	if cv.curCall >= 0 {
		return cv.calls[cv.curCall].lbase + k
	}
	return k
}

// spillLocal rewrites symbolic stack slots that reference register k into
// a fresh temp holding its current value — required before any write to k
// so earlier LOADs keep observing the pre-write value.
func (cv *rconv) spillLocal(k int32) bool {
	t := int32(-1)
	for j := range cv.stk {
		if cv.stk[j].k == symReg && cv.stk[j].v == k {
			if t < 0 {
				if t = cv.alloc(); t < 0 {
					return false
				}
				cv.emit(rins{op: rMove, d: uint8(t), a: uint8(k)})
			} else {
				cv.retain(t)
			}
			cv.stk[j] = sym{k: symReg, v: t}
		}
	}
	return true
}

// store compiles "register k = v" for a local or pinned callee-local k.
// When v is a dead temp produced by the immediately preceding
// instruction, that instruction is retargeted at k and the move
// disappears (safe: spillLocal already ran, so no live symbolic slot
// reads k, and no instruction was emitted after the producer).
func (cv *rconv) store(k int32, v sym) {
	switch v.k {
	case symImm:
		cv.emit(rins{op: rLoadI, d: uint8(k), imm: v.v})
	case symConst:
		cv.emit(rins{op: rLoadC, d: uint8(k), imm: v.v})
	default:
		if int(v.v) >= cv.nloc {
			cv.release(v.v)
			if !cv.pinned[v.v] && cv.ref[v.v] == 0 && len(cv.ins) > 0 {
				if last := &cv.ins[len(cv.ins)-1]; int32(last.d) == v.v && rWritesD(last.op) {
					last.d = uint8(k)
					return
				}
			}
			if v.v != k {
				cv.emit(rins{op: rMove, d: uint8(k), a: uint8(v.v)})
			}
			return
		}
		if v.v != k {
			cv.emit(rins{op: rMove, d: uint8(k), a: uint8(v.v)})
		}
	}
}

// snapshot freezes syms into a rematerialization push list.
func snapshot(syms []sym) []rpush {
	if len(syms) == 0 {
		return nil
	}
	push := make([]rpush, len(syms))
	for j, s := range syms {
		push[j] = rpush{kind: uint8(s.k), v: s.v}
	}
	return push
}

// remAt returns the rollback charges for resuming before item j: the
// engine-clock total, the caller slot's share, and the per-callee shares.
func (cv *rconv) remAt(j int) (tot, rem, remBase int32, crem []slotRem) {
	return cv.chargeBetween(j, len(cv.items))
}

// chargeBetween returns the charges of items j..k-1, split like remAt's.
func (cv *rconv) chargeBetween(j, k int) (tot, rem, remBase int32, crem []slotRem) {
	tot = cv.sufT[j] - cv.sufT[k]
	rem = cv.sufS[0][j] - cv.sufS[0][k]
	remBase = cv.sufSB[0][j] - cv.sufSB[0][k]
	for s := 1; s < len(cv.fns); s++ {
		r, rb := cv.sufS[s][j]-cv.sufS[s][k], cv.sufSB[s][j]-cv.sufSB[s][k]
		if r != 0 || rb != 0 {
			crem = append(crem, slotRem{slot: int32(s), rem: r, remBase: rb})
		}
	}
	return
}

// laterItem returns the index of the item after i at which the trace's
// own function reaches pc, or -1: the target of a branch that can skip
// forward within the iteration.
func (cv *rconv) laterItem(i, pc int) int {
	for k := i + 1; k < len(cv.items); k++ {
		if it := cv.items[k]; it.code == cv.caller && int(it.pc) == pc {
			return k
		}
	}
	return -1
}

// landSkips confirms the pending skips that target item k. The symbolic
// stack was empty at the branch; if it is empty here too, no state but
// the registers crosses the skipped items, so the branch can resume at
// the first instruction item k emits, subtracting the skipped items'
// charges. A skip whose target has values pending stays a side exit.
func (cv *rconv) landSkips(k int) {
	if len(cv.stk) != 0 {
		return
	}
	for _, sk := range cv.skips {
		if sk.to == k {
			ex := &cv.exits[sk.x]
			ex.to = int32(len(cv.ins))
			ex.tot, ex.rem, ex.remBase, ex.crem = cv.chargeBetween(sk.from+1, k)
		}
	}
}

// hoisted returns the pinned register the trace's prologue fills with
// global g, claiming one at g's first load, or -1 when the register file
// is full.
func (cv *rconv) hoisted(g int32) int32 {
	for _, h := range cv.hoist {
		if h.g == g {
			return h.reg
		}
	}
	if cv.nregs >= traceMaxRegs {
		return -1
	}
	r := int32(cv.nregs)
	cv.nregs++
	cv.ref = append(cv.ref, 1)
	cv.pinned = append(cv.pinned, true)
	cv.hoist = append(cv.hoist, rhoist{reg: r, g: g})
	return r
}

// recip returns the index of d's reciprocal in the trace's table.
func (cv *rconv) recip(d int64) int32 {
	for j, k := range cv.divs {
		if k.d == d {
			return int32(j)
		}
	}
	cv.divs = append(cv.divs, newRdiv(d))
	return int32(len(cv.divs) - 1)
}

// addExit records a side exit at item position i resuming at target,
// snapshotting the symbolic stack (condition already popped) for
// rematerialization. atCall includes item i itself in the rollback (the
// guard-failure exit replays the CALL instruction). Inside an inlined
// callee the exit becomes a callee-frame deopt: the caller's residual
// stack and the callee's own stack are split at the call floor.
func (cv *rconv) addExit(i, target int, atCall bool) int32 {
	j := i + 1
	if atCall {
		j = i
	}
	tot, rem, remBase, crem := cv.remAt(j)
	ex := rexit{
		pc:      int32(target),
		tot:     tot,
		rem:     rem,
		remBase: remBase,
		crem:    crem,
		callIdx: -1,
	}
	if cv.curCall >= 0 {
		ex.callIdx = cv.curCall
		ex.cpc = int32(target)
		ex.pc = cv.calls[cv.curCall].callPC
		ex.push = snapshot(cv.stk[:cv.floor])
		ex.cpush = snapshot(cv.stk[cv.floor:])
	} else {
		ex.push = snapshot(cv.stk)
	}
	cv.exits = append(cv.exits, ex)
	return int32(len(cv.exits) - 1)
}

// addTrap records the rollback data of a trapping instruction at item
// position i, attributing it to the inlined callee when inside one.
func (cv *rconv) addTrap(i int) int32 {
	tot, rem, remBase, crem := cv.remAt(i + 1)
	t := rtrap{
		tot:     tot,
		rem:     rem,
		remBase: remBase,
		crem:    crem,
		tpc:     cv.items[i].pc + 1,
		fn:      -1,
	}
	if cv.curCall >= 0 {
		t.fn = cv.calls[cv.curCall].fnIdx
	}
	cv.traps = append(cv.traps, t)
	return int32(len(cv.traps) - 1)
}

// instr converts the item at position i; on failure the second return is
// the degradation reason.
func (cv *rconv) instr(i int) (bool, int) {
	it := cv.items[i]
	pc := int(it.pc)
	in := it.code.Instrs[it.pc]
	switch in.Op {
	case bytecode.NOP:

	case bytecode.IPUSH:
		cv.push(sym{k: symImm, v: in.A})
	case bytecode.CONST:
		cv.push(sym{k: symConst, v: cv.constIdx(it.code, in.A)})
	case bytecode.LOAD:
		cv.push(sym{k: symReg, v: cv.localReg(in.A)})

	case bytecode.STORE:
		v, ok := cv.pop()
		k := cv.localReg(in.A)
		if !ok || !cv.spillLocal(k) {
			return false, degStack
		}
		cv.store(k, v)

	case bytecode.GLOAD:
		// A global no item writes is loop-invariant: the load is a
		// reference to the register the prologue fills, the way LOAD is
		// copy propagation. A global the trace writes materializes at the
		// load, since a later GSTORE may change it.
		if !cv.written[in.A] {
			r := cv.hoisted(in.A)
			if r < 0 {
				return false, degRegs
			}
			cv.push(sym{k: symReg, v: r})
			break
		}
		d := cv.alloc()
		if d < 0 {
			return false, degRegs
		}
		cv.emit(rins{op: rGLoad, d: uint8(d), imm: in.A})
		cv.push(sym{k: symReg, v: d})
	case bytecode.GSTORE:
		v, ok := cv.pop()
		if !ok {
			return false, degStack
		}
		r := cv.use(v)
		if r < 0 {
			return false, degRegs
		}
		cv.emit(rins{op: rGStore, a: uint8(r), imm: in.A})
		cv.release(r)

	case bytecode.IINC:
		k := cv.localReg(in.A)
		if !cv.spillLocal(k) {
			return false, degRegs
		}
		cv.emit(rins{op: rInc, d: uint8(k), imm: in.B})

	case bytecode.POP:
		v, ok := cv.pop()
		if !ok {
			return false, degStack
		}
		cv.releaseSym(v)
	case bytecode.DUP:
		if len(cv.stk) <= cv.floor {
			return false, degStack
		}
		s := cv.stk[len(cv.stk)-1]
		if s.k == symReg {
			cv.retain(s.v)
		}
		cv.push(s)
	case bytecode.SWAP:
		n := len(cv.stk)
		if n-cv.floor < 2 {
			return false, degStack
		}
		cv.stk[n-1], cv.stk[n-2] = cv.stk[n-2], cv.stk[n-1]

	case bytecode.ALOAD:
		idx, ok := cv.pop()
		if !ok {
			return false, degStack
		}
		ref, ok := cv.pop()
		if !ok {
			return false, degStack
		}
		rr := cv.use(ref)
		ri := cv.use(idx)
		if rr < 0 || ri < 0 {
			return false, degRegs
		}
		cv.release(rr)
		cv.release(ri)
		d := cv.alloc()
		if d < 0 {
			return false, degRegs
		}
		cv.emit(rins{op: rALoad, d: uint8(d), a: uint8(rr), b: uint8(ri), x: cv.addTrap(i)})
		cv.push(sym{k: symReg, v: d})

	case bytecode.ASTORE:
		val, ok := cv.pop()
		if !ok {
			return false, degStack
		}
		idx, ok := cv.pop()
		if !ok {
			return false, degStack
		}
		ref, ok := cv.pop()
		if !ok {
			return false, degStack
		}
		rr := cv.use(ref)
		ri := cv.use(idx)
		rv := cv.use(val)
		if rr < 0 || ri < 0 || rv < 0 {
			return false, degRegs
		}
		cv.emit(rins{op: rAStore, d: uint8(rv), a: uint8(rr), b: uint8(ri), x: cv.addTrap(i)})
		cv.release(rr)
		cv.release(ri)
		cv.release(rv)

	case bytecode.ALEN:
		ref, ok := cv.pop()
		if !ok {
			return false, degStack
		}
		rr := cv.use(ref)
		if rr < 0 {
			return false, degRegs
		}
		cv.release(rr)
		d := cv.alloc()
		if d < 0 {
			return false, degRegs
		}
		cv.emit(rins{op: rALen, d: uint8(d), a: uint8(rr), x: cv.addTrap(i)})
		cv.push(sym{k: symReg, v: d})

	case bytecode.PRINT:
		v, ok := cv.pop()
		if !ok {
			return false, degStack
		}
		r := cv.use(v)
		if r < 0 {
			return false, degRegs
		}
		cv.emit(rins{op: rPrint, a: uint8(r)})
		cv.release(r)

	case bytecode.JMP:
		// Control flow is already encoded in the linearization: a closing
		// JMP loops, a non-closing one falls through to the next item.

	case bytecode.JZ, bytecode.JNZ:
		v, ok := cv.pop()
		if !ok {
			return false, degStack
		}
		// Where does the off-trace edge go, and on which branch sense?
		// In the caller: non-closing branches (and a closing branch whose
		// fall-through is the head) exit when taken; a closing branch
		// whose taken target is the head exits when not taken, at the
		// fall-through. Inside an inlined callee the fall-through is the
		// traced path, so the exit is always the taken arm.
		exitWhenTaken := true
		exitPC := int(in.A)
		if cv.curCall < 0 {
			closing := i == len(cv.items)-1
			if closing && int(in.A) == cv.head {
				exitWhenTaken = false
				exitPC = pc + 1
			}
		}
		wantTrue := exitWhenTaken // JNZ is taken on IsTrue
		if in.Op == bytecode.JZ {
			wantTrue = !exitWhenTaken
		}
		if v.k != symReg {
			// Statically known condition: a branch that never exits
			// compiles to nothing; one that always exits means the traced
			// path never completes, so the trace is useless.
			t := v.v != 0
			if v.k == symConst {
				t = cv.consts[v.v].IsTrue()
			}
			if t == wantTrue {
				return false, degOther
			}
			return true, degCount
		}
		x := cv.addExit(i, exitPC, false)
		// A taken branch of the trace's own function to a later item of
		// the iteration, with nothing on the symbolic stack, may skip
		// forward instead of leaving the trace (landSkips decides once
		// conversion reaches the target).
		if exitWhenTaken && cv.curCall < 0 && len(cv.stk) == 0 {
			if k := cv.laterItem(i, exitPC); k >= 0 {
				cv.skips = append(cv.skips, pendingSkip{x: x, from: i, to: k})
			}
		}
		want := 0
		if wantTrue {
			want = 1
		}
		if int(v.v) >= cv.nloc && !cv.pinned[v.v] {
			cv.release(v.v)
			if cv.ref[v.v] == 0 && len(cv.ins) > 0 {
				// Compare-and-branch fusion: fold a dead, just-emitted
				// comparison into the exit test itself.
				if last := &cv.ins[len(cv.ins)-1]; int32(last.d) == v.v {
					if br := regBranch[last.op][want]; br != 0 {
						*last = rins{op: br, a: last.a, b: last.b, imm: last.imm, x: x}
						return true, degCount
					}
				}
			}
		}
		op := rBrFalse
		if wantTrue {
			op = rBrTrue
		}
		cv.emit(rins{op: op, a: uint8(v.v), x: x})

	case bytecode.CALL:
		if cv.curCall >= 0 || it.call < 0 {
			return false, degCall
		}
		argc := int(in.B)
		if len(cv.stk) < argc {
			return false, degStack // args pushed before the loop was entered
		}
		rc := &cv.calls[it.call]
		// Guard-failure exit first, while the args are still symbolically
		// on the stack: it resumes AT the CALL, so its rollback includes
		// this item's own charge and the interpreter replays the call.
		rc.exitX = cv.addExit(i, pc, true)
		// Pin a fresh contiguous register block for the callee's locals.
		if cv.nregs+int(rc.nloc) > traceMaxRegs {
			return false, degRegs
		}
		rc.lbase = int32(cv.nregs)
		for j := int32(0); j < rc.nloc; j++ {
			cv.ref = append(cv.ref, 1)
			cv.pinned = append(cv.pinned, true)
		}
		cv.nregs += int(rc.nloc)
		// Materialize the arguments into the block, then drop their
		// symbolic references (no allocation happens in between, so exit
		// snapshots taken above stay valid at runtime).
		args := cv.stk[len(cv.stk)-argc:]
		for j, a := range args {
			d := rc.lbase + int32(j)
			switch a.k {
			case symImm:
				cv.emit(rins{op: rLoadI, d: uint8(d), imm: a.v})
			case symConst:
				cv.emit(rins{op: rLoadC, d: uint8(d), imm: a.v})
			default:
				cv.emit(rins{op: rMove, d: uint8(d), a: uint8(a.v)})
			}
		}
		cv.stk = cv.stk[:len(cv.stk)-argc]
		for _, a := range args {
			cv.releaseSym(a)
		}
		rc.push = snapshot(cv.stk)
		rc.ptot, rc.prem, rc.premBase, rc.pcrem = cv.remAt(i + 1)
		cv.emit(rins{op: rCall, x: it.call})
		cv.curCall = it.call
		cv.floor = len(cv.stk)

	case bytecode.RET:
		if cv.curCall < 0 {
			return false, degRet
		}
		rv, ok := cv.pop()
		if !ok {
			return false, degStack
		}
		// The accounted RET truncates to the frame base before pushing the
		// return value: drop anything the callee left above its floor.
		for len(cv.stk) > cv.floor {
			s, _ := cv.pop()
			cv.releaseSym(s)
		}
		cv.curCall = -1
		cv.floor = 0
		cv.push(rv)

	default:
		// Everything else is a value op whose lowering rule is derived
		// from the spec (regLower, regir_gen.go). NEWARR, HALT and
		// anything unknown classify lowNone and degrade rather than
		// miscompile.
		return cv.lower(i, in)
	}
	return true, degCount
}

// lower compiles one value-producing instruction by its spec-derived
// lowering rule into its generated register form (regir_gen.go). Integer
// groups keep their immediate forms and constant folds; IDIV and IMOD by
// a nonzero constant divide by its reciprocal; pure kernel ops fold
// through the generated kernel itself when every operand is symbolically
// known.
func (cv *rconv) lower(i int, in bytecode.Instr) (bool, int) {
	kind := regLower[in.Op]
	switch kind {
	case lowPure1, lowPure2, lowPure3:
		ar := int(kind-lowPure1) + 1
		var vs [3]sym
		for j := ar - 1; j >= 0; j-- {
			s, ok := cv.pop()
			if !ok {
				return false, degStack
			}
			vs[j] = s
		}
		if f, ok := cv.foldKernel(in.Op, ar, vs); ok {
			cv.push(f)
			return true, degCount
		}
		var rs [3]int32
		for j := 0; j < ar; j++ {
			if rs[j] = cv.use(vs[j]); rs[j] < 0 {
				return false, degRegs
			}
		}
		for j := 0; j < ar; j++ {
			cv.release(rs[j])
		}
		d := cv.alloc()
		if d < 0 {
			return false, degRegs
		}
		cv.emit(rins{op: regRR[in.Op], d: uint8(d), a: uint8(rs[0]), b: uint8(rs[1]), c: uint8(rs[2])})
		cv.push(sym{k: symReg, v: d})
		return true, degCount

	case lowIntBin, lowIntCmp, lowFltBin, lowFltCmp, lowTrapBin:
		b, ok := cv.pop()
		if !ok {
			return false, degStack
		}
		a, ok := cv.pop()
		if !ok {
			return false, degStack
		}
		av, aImm := cv.immVal(a)
		bv, bImm := cv.immVal(b)
		if aImm && bImm && (kind == lowIntBin || kind == lowIntCmp) {
			if kind == lowIntCmp {
				// Bool() is Int(0/1), so the fold stays an integer
				// immediate.
				r := int32(0)
				if intCmp(in.Op, av, bv) {
					r = 1
				}
				cv.push(sym{k: symImm, v: r})
				return true, degCount
			}
			if r := intBin(in.Op, av, bv); r >= math.MinInt32 && r <= math.MaxInt32 {
				cv.push(sym{k: symImm, v: int32(r)})
				return true, degCount
			}
		}
		// The immediate forms: an int32 second operand, or a nonzero
		// divisor of any size, divided by its reciprocal, which cannot
		// trap.
		var imm int32
		immForm := false
		switch {
		case (kind == lowIntBin || kind == lowIntCmp) && bImm && bv >= math.MinInt32 && bv <= math.MaxInt32:
			imm, immForm = int32(bv), true
		case kind == lowTrapBin && bImm && bv != 0:
			imm, immForm = cv.recip(bv), true
		}
		if immForm {
			ra := cv.use(a)
			if ra < 0 {
				return false, degRegs
			}
			cv.release(ra)
			d := cv.alloc()
			if d < 0 {
				return false, degRegs
			}
			cv.emit(rins{op: regRI[in.Op], d: uint8(d), a: uint8(ra), imm: imm})
			cv.push(sym{k: symReg, v: d})
			return true, degCount
		}
		ra := cv.use(a)
		rb := cv.use(b)
		if ra < 0 || rb < 0 {
			return false, degRegs
		}
		cv.release(ra)
		cv.release(rb)
		d := cv.alloc()
		if d < 0 {
			return false, degRegs
		}
		ins := rins{op: regRR[in.Op], d: uint8(d), a: uint8(ra), b: uint8(rb)}
		if kind == lowTrapBin {
			ins.x = cv.addTrap(i)
		}
		cv.emit(ins)
		cv.push(sym{k: symReg, v: d})
		return true, degCount
	}
	return false, degOther
}

// foldKernel constant-folds a pure kernel op whose operands are all
// symbolically known, by running the generated kernel on exactly the
// values the accounted interpreter would see (symImm rematerializes as
// bytecode.Int, symConst as the pool entry). The fold is kept only when
// the result is an immediate-representable integer; anything else
// materializes normally.
func (cv *rconv) foldKernel(op bytecode.Op, ar int, vs [3]sym) (sym, bool) {
	var vals [3]bytecode.Value
	for j := 0; j < ar; j++ {
		switch vs[j].k {
		case symImm:
			vals[j] = bytecode.Int(int64(vs[j].v))
		case symConst:
			vals[j] = cv.consts[vs[j].v]
		default:
			return sym{}, false
		}
	}
	var r bytecode.Value
	switch ar {
	case 1:
		r = semTab1[op](vals[0])
	case 2:
		r = semTab2[op](vals[0], vals[1])
	default:
		r = semTab3[op](vals[0], vals[1], vals[2])
	}
	if r.Kind != bytecode.KInt || r.I < math.MinInt32 || r.I > math.MaxInt32 {
		return sym{}, false
	}
	return sym{k: symImm, v: int32(r.I)}, true
}
