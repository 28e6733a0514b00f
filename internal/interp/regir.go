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
// rather than a side exit. A last peephole replaces the commonest
// adjacent instruction pairs with generated fused opcodes (fusePairs) and
// ends the program with rEnd.
//
// The conversion refuses anything it cannot prove equivalent and reports
// a degradation reason (stats.go), degrading that loop to the fused
// path: ops outside the segment-safe set (CALL among them: a loop that
// calls runs on the fused path), operand-stack pops below the loop-entry
// depth or a non-empty symbolic stack at the back edge ("escaping stack
// depth"), and register or cost overflows.
//
// Bit identity is inherited from the same two mechanisms as the fused
// tier (fuse.go §comment, DESIGN.md §10): a whole iteration is charged
// only when it fits inside the current sample window, and every side
// exit or trap carries the summed charge of the unexecuted instruction
// suffix, so the rollback lands on exactly the ledger state of the
// per-instruction loop; a forward skip subtracts the skipped items'
// charge the same way.
// Register writes are invisible between exits by construction: locals
// are copied in at trace entry and written back at every exit, no write
// to a global, the output or the heap is ever reordered or elided, and a
// global is read ahead of its GLOAD only when nothing in the trace writes
// it — only stack and local traffic is removed.

// Trace conversion limits.
const (
	// traceMaxInstrs caps one linearized iteration.
	traceMaxInstrs = 256
	// traceMaxRegs caps the register file: the function's locals plus the
	// converter's temporaries plus hoisted globals.
	traceMaxRegs = 64
)

// rOp is a register-IR opcode. The structural opcodes below are
// scaffolding; the operator opcodes, one per spec op and operand form,
// and the fused pair opcodes are generated (regir_gen.go) starting at
// rGen, and so are their arms in Engine.runTrace (trace_run_gen.go).
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
	rEnd                // the end of the iteration: every program's last instruction, alone or fused
	rGen                // the first generated operator opcode
)

// rins is one register instruction. d, a, b and c are registers: d the
// destination (rAStore: the value stored; rInc: the incremented local),
// a, b and c the operands (c only a 3-operand kernel's third). imm is the
// immediate: the value of rLoadI, rInc and the immediate forms, or the
// constant-pool, global or reciprocal index of rLoadC, rGLoad/rGStore and
// the by-constant forms. x indexes the trace's exit table for branches
// and its trap table for trapping ops. y is a fused pair form's second
// immediate, or the exit or trap index of its second instruction when x
// holds the first's (fusePair, regir_gen.go, shows which slot holds what).
type rins struct {
	op         rOp
	d, a, b, c uint8
	x          uint16
	imm        int32
	y          int32
}

// regFile is the register file of the trace tier. Register numbers are
// uint8 and the file has 256 slots, so no register access needs a bounds
// check; traces use the first traceMaxRegs.
type regFile [256]bytecode.Value

// The register numbers of a trace must fit rins's uint8 fields, and its
// exit and trap indexes, at most one per linearized item, its uint16 x.
const (
	_ = uint8(traceMaxRegs - 1)
	_ = uint16(traceMaxInstrs - 1)
)

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
	// s ≤ 63, so the mask changes nothing but lets the compiler drop its
	// oversize-shift check.
	q >>= k.s & 63
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

// rexit is one side exit: the off-trace resume pc plus the suffix
// rollback — rem comes off the engine clock and the function's cycle
// ledger, remBase off its work ledger — and the symbolic stack to
// rematerialize.
//
// A forward skip (to > 0) is a branch whose target is a later item of the
// same iteration: it never leaves the trace. It resumes at instruction to
// and subtracts only the skipped items' charges, which rem and remBase
// then hold.
type rexit struct {
	pc           int32
	rem, remBase int32
	push         []rpush
	to           int32 // forward skips: the instruction to resume at
}

// rtrap is the rollback record of one trapping instruction: suffix
// charges and the successor pc the accounted loop would report.
type rtrap struct {
	rem, remBase int32
	tpc          int32
}

// symKind classifies a symbolic stack slot.
type symKind uint8

const (
	symReg   symKind = iota // a register (local or temp) holds the value
	symImm                  // an int32 immediate, not yet materialized
	symConst                // a constant-pool entry, not yet materialized
)

// sym is one slot of the converter's symbolic operand stack.
type sym struct {
	k symKind
	v int32
}

// rconv is the conversion state for one trace.
type rconv struct {
	c    *Code
	head int
	pcs  []int // the linearized iteration, one pc per item

	// Suffix sums of the items' Cost and Base (len(pcs)+1 each).
	sufCost, sufBase []int32

	ins   []rins
	exits []rexit
	traps []rtrap
	divs  []rdiv

	// written holds the globals some item stores; a GLOAD of any other
	// global reads the pinned register the prologue fills (hoist).
	written map[int32]bool
	hoist   []rhoist

	// skips are the branches that may become forward skips, confirmed
	// when conversion reaches their target item (landSkips).
	skips []pendingSkip

	stk    []sym
	nloc   int
	nregs  int     // registers in use: locals, temps, hoisted globals
	ref    []int16 // per-register refcount; slots < nloc are locals (untracked)
	pinned []bool  // hoisted globals: never allocated, never refcounted
}

// pendingSkip is a branch at item from, with exit record x, whose taken
// target is the later item to.
type pendingSkip struct {
	x        uint16
	from, to int
}

// convertTrace compiles one linearized loop iteration (pcs, from
// linearize) into a trace. Returns nil and a degradation reason when
// any instruction defeats the conversion.
func convertTrace(c *Code, head int, pcs []int) (*trace, int) {
	if c.NLocals >= traceMaxRegs {
		return nil, degRegs
	}
	cv := &rconv{
		c:      c,
		head:   head,
		pcs:    pcs,
		nloc:   c.NLocals,
		nregs:  c.NLocals,
		ref:    make([]int16, c.NLocals),
		pinned: make([]bool, c.NLocals),
	}
	if reason := cv.sumSuffixes(); reason != degCount {
		return nil, reason
	}
	cv.written = make(map[int32]bool)
	for _, pc := range pcs {
		if in := c.Instrs[pc]; in.Op == bytecode.GSTORE {
			cv.written[in.A] = true
		}
	}
	for i := range pcs {
		cv.landSkips(i)
		if ok, reason := cv.instr(i); !ok {
			return nil, reason
		}
	}
	if len(cv.stk) != 0 {
		return nil, degStack // iteration not stack-neutral: escaping stack depth
	}
	return &trace{
		head:   int32(head),
		cost:   int64(cv.sufCost[0]),
		base:   int64(cv.sufBase[0]),
		nloc:   int32(cv.nloc),
		consts: c.Consts,
		ins:    cv.fusePairs(),
		exits:  cv.exits,
		traps:  cv.traps,
		divs:   cv.divs,
		hoist:  cv.hoist,
	}, degCount
}

// sumSuffixes computes the per-position suffix charge sums over the
// items, which the exit and trap rollbacks subtract.
func (cv *rconv) sumSuffixes() int {
	n := len(cv.pcs)
	cv.sufCost = make([]int32, n+1)
	cv.sufBase = make([]int32, n+1)
	var total int64
	for k := n - 1; k >= 0; k-- {
		pc := cv.pcs[k]
		total += cv.c.Cost[pc]
		if total > math.MaxInt32 {
			return degTooLarge
		}
		cv.sufCost[k] = cv.sufCost[k+1] + int32(cv.c.Cost[pc])
		cv.sufBase[k] = cv.sufBase[k+1] + int32(cv.c.Base[pc])
	}
	return degCount
}

func (cv *rconv) emit(in rins) { cv.ins = append(cv.ins, in) }

func (cv *rconv) push(s sym) { cv.stk = append(cv.stk, s) }

// pop takes the top symbolic slot; failure means the instruction would
// consume a value pushed before the loop was entered.
func (cv *rconv) pop() (sym, bool) {
	if len(cv.stk) == 0 {
		return sym{}, false
	}
	s := cv.stk[len(cv.stk)-1]
	cv.stk = cv.stk[:len(cv.stk)-1]
	return s, true
}

// alloc claims a free temporary register (refcount 1), or -1 when the
// file is full. Hoisted registers hold refcount 1 forever, so the scan
// never reuses them.
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
		return cv.c.Consts[s.v].I, true
	}
	return 0, false
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

// store compiles "register k = v" for a local k.
// When v is a temp produced by the immediately preceding instruction and
// its only other references are symbolic stack slots (the copy a DUP
// left), that instruction is retargeted at k, those slots read k, and
// the move disappears. Safe: spillLocal already ran, so no other live
// slot reads k; no instruction was emitted after the producer; and a
// later write to k spills the redirected slots first.
func (cv *rconv) store(k int32, v sym) {
	switch v.k {
	case symImm:
		cv.emit(rins{op: rLoadI, d: uint8(k), imm: v.v})
	case symConst:
		cv.emit(rins{op: rLoadC, d: uint8(k), imm: v.v})
	default:
		if int(v.v) >= cv.nloc {
			cv.release(v.v)
			if !cv.pinned[v.v] && len(cv.ins) > 0 && cv.ref[v.v] == cv.stackRefs(v.v) {
				if last := &cv.ins[len(cv.ins)-1]; int32(last.d) == v.v && rWritesD(last.op) {
					last.d = uint8(k)
					for j := range cv.stk {
						if cv.stk[j].k == symReg && cv.stk[j].v == v.v {
							cv.stk[j].v = k
						}
					}
					cv.ref[v.v] = 0
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

// stackRefs counts the symbolic stack slots that read register r.
func (cv *rconv) stackRefs(r int32) int16 {
	var n int16
	for _, s := range cv.stk {
		if s.k == symReg && s.v == r {
			n++
		}
	}
	return n
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
// summed Cost and Base of items j onwards.
func (cv *rconv) remAt(j int) (rem, remBase int32) {
	return cv.chargeBetween(j, len(cv.pcs))
}

// chargeBetween returns the summed Cost and Base of items j..k-1.
func (cv *rconv) chargeBetween(j, k int) (rem, remBase int32) {
	return cv.sufCost[j] - cv.sufCost[k], cv.sufBase[j] - cv.sufBase[k]
}

// laterItem returns the index of the item after i at pc, or -1: the
// target of a branch that can skip forward within the iteration.
func (cv *rconv) laterItem(i, pc int) int {
	for k := i + 1; k < len(cv.pcs); k++ {
		if cv.pcs[k] == pc {
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
			ex.rem, ex.remBase = cv.chargeBetween(sk.from+1, k)
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
// rematerialization.
func (cv *rconv) addExit(i, target int) uint16 {
	ex := rexit{pc: int32(target), push: snapshot(cv.stk)}
	ex.rem, ex.remBase = cv.remAt(i + 1)
	cv.exits = append(cv.exits, ex)
	return uint16(len(cv.exits) - 1)
}

// addTrap records the rollback data of a trapping instruction at item
// position i.
func (cv *rconv) addTrap(i int) uint16 {
	t := rtrap{tpc: int32(cv.pcs[i]) + 1}
	t.rem, t.remBase = cv.remAt(i + 1)
	cv.traps = append(cv.traps, t)
	return uint16(len(cv.traps) - 1)
}

// fusePairs is the converter's last peephole. It ends the program with
// rEnd, replaces each adjacent instruction pair a generated pair rule
// matches (fusePair, regir_gen.go) with its fused form, greedily from
// the front, and returns the program in an exact-size slice. A pair whose
// second instruction is a forward skip's landing point stays unfused,
// since the skip must resume between the two; a skip to the end of the
// iteration lands on rEnd. The fused form carries both instructions'
// exit and trap indexes, and exit and trap records belong to items, not
// instructions, so every exit and trap rolls back as the pair did; only
// the skips' landing indexes move.
func (cv *rconv) fusePairs() []rins {
	cv.emit(rins{op: rEnd})
	n := len(cv.ins)
	landing := make([]bool, n)
	for _, ex := range cv.exits {
		if ex.to > 0 {
			landing[ex.to] = true
		}
	}
	// at maps each old index that may be a landing point to its new one.
	// The fused program is written over the old in place: it never gets
	// ahead of the instructions it reads.
	at := make([]int32, n)
	m := 0
	for i := 0; i < n; i++ {
		at[i] = int32(m)
		if i+1 < n && !landing[i+1] {
			if f, ok := fusePair(&cv.ins[i], &cv.ins[i+1]); ok {
				cv.ins[m] = f
				m++
				i++
				continue
			}
		}
		cv.ins[m] = cv.ins[i]
		m++
	}
	for k := range cv.exits {
		if ex := &cv.exits[k]; ex.to > 0 {
			ex.to = at[ex.to]
		}
	}
	return append([]rins(nil), cv.ins[:m]...)
}

// instr converts the item at position i; on failure the second return is
// the degradation reason.
func (cv *rconv) instr(i int) (bool, int) {
	pc := cv.pcs[i]
	in := cv.c.Instrs[pc]
	switch in.Op {
	case bytecode.NOP:

	case bytecode.IPUSH:
		cv.push(sym{k: symImm, v: in.A})
	case bytecode.CONST:
		cv.push(sym{k: symConst, v: in.A})
	case bytecode.LOAD:
		cv.push(sym{k: symReg, v: in.A})

	case bytecode.STORE:
		v, ok := cv.pop()
		if !ok || !cv.spillLocal(in.A) {
			return false, degStack
		}
		cv.store(in.A, v)

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
		if !cv.spillLocal(in.A) {
			return false, degRegs
		}
		cv.emit(rins{op: rInc, d: uint8(in.A), imm: in.B})

	case bytecode.POP:
		v, ok := cv.pop()
		if !ok {
			return false, degStack
		}
		cv.releaseSym(v)
	case bytecode.DUP:
		if len(cv.stk) == 0 {
			return false, degStack
		}
		s := cv.stk[len(cv.stk)-1]
		if s.k == symReg {
			cv.retain(s.v)
		}
		cv.push(s)
	case bytecode.SWAP:
		n := len(cv.stk)
		if n < 2 {
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
		// Non-closing branches (and a closing branch whose fall-through
		// is the head) exit when taken; a closing branch whose taken
		// target is the head exits when not taken, at the fall-through.
		exitWhenTaken := true
		exitPC := int(in.A)
		if i == len(cv.pcs)-1 && int(in.A) == cv.head {
			exitWhenTaken = false
			exitPC = pc + 1
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
				t = cv.c.Consts[v.v].IsTrue()
			}
			if t == wantTrue {
				return false, degOther
			}
			return true, degCount
		}
		x := cv.addExit(i, exitPC)
		// A taken branch to a later item of the iteration, with nothing
		// on the symbolic stack, may skip forward instead of leaving the
		// trace (landSkips decides once conversion reaches the target).
		if exitWhenTaken && len(cv.stk) == 0 {
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

	default:
		// Everything else is a value op whose lowering rule is derived
		// from the spec (regLower, regir_gen.go). NEWARR, HALT and
		// anything unknown classify lowNone and degrade rather than
		// miscompile; CALL and RET never reach here (linearize).
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
			vals[j] = cv.c.Consts[vs[j].v]
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
