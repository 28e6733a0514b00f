// Code generated by cmd/tiergen from internal/opspec. DO NOT EDIT.

package interp

import (
	"evolvevm/internal/bytecode"
)

// runTrace executes iterations of tr until the next one would not fit
// the sample window (normal return at the head), a side exit fires, or a
// trap fires; a forward skip continues in the same iteration. The caller
// has already verified the first iteration fits and charged nothing;
// every path out of this function leaves the engine's ledgers, locals,
// operand stack, and resume pc bit-identical to the per-instruction
// loop's.
//
// Returns the (possibly grown) operand stack, the resume pc, and — for
// traps only — the trap's successor pc and message (msg == "" means no
// trap).
func (e *Engine) runTrace(tr *trace, sc *runScratch, locals []bytecode.Value, lb int, stack []bytecode.Value, workP, cycP *int64) ([]bytecode.Value, int, int32, string) {
	if sc.regs == nil {
		sc.regs = new(regFile)
	}
	regs := sc.regs
	nloc := int(tr.nloc)
	copy(regs[:nloc], locals[lb:lb+nloc])
	tc := &sc.tc
	tc[tcHeadEntries]++
	// The prologue: every global tr reads and never writes is loaded into
	// its pinned register, which tr's instructions read in place of the
	// global. Only tr runs until this function returns, so the registers
	// stay current; the code that runs before the next entry may write
	// the globals, so every entry loads them again.
	for _, h := range tr.hoist {
		regs[h.reg] = e.Globals[h.g]
	}

	for {
		// One batched debit per iteration. Exits, traps and forward skips
		// subtract the charges of what they leave unexecuted, so the
		// clock always holds the executed prefix plus the linear suffix.
		e.Cycles += tr.cost
		*workP += tr.base
		*cycP += tr.cost

		// The program ends with rEnd, so the walk needs no length test.
		ins := tr.ins
		x := int32(-1) // the exit (or forward skip) taken, if any
		for i := 0; ; {
		body:
			for ; ; i++ {
				in := &ins[i]
				// The structural arms, then one arm per operator opcode
				// generated from the spec, then one per fused pair.
				switch in.op {
				case rLoadI:
					regs[in.d] = bytecode.Int(int64(in.imm))
				case rLoadC:
					regs[in.d] = tr.consts[in.imm]
				case rMove:
					regs[in.d] = regs[in.a]
				case rGLoad:
					regs[in.d] = e.Globals[in.imm]
				case rGStore:
					e.Globals[in.imm] = regs[in.a]
				case rInc:
					regs[in.d].I += int64(in.imm)
				case rALoad:
					arr, aerr := e.Array(regs[in.a])
					idx := regs[in.b].AsInt()
					if aerr != nil || idx < 0 || idx >= int64(len(arr)) {
						return e.traceTrap(tr, tc, int32(in.x), regs, locals, lb, stack, workP, cycP, arrayTrap("aload", aerr, idx, len(arr)))
					}
					regs[in.d] = arr[idx]
				case rAStore:
					arr, aerr := e.Array(regs[in.a])
					idx := regs[in.b].AsInt()
					if aerr != nil || idx < 0 || idx >= int64(len(arr)) {
						return e.traceTrap(tr, tc, int32(in.x), regs, locals, lb, stack, workP, cycP, arrayTrap("astore", aerr, idx, len(arr)))
					}
					arr[idx] = regs[in.d]
				case rALen:
					arr, aerr := e.Array(regs[in.a])
					if aerr != nil {
						return e.traceTrap(tr, tc, int32(in.x), regs, locals, lb, stack, workP, cycP, arrayTrap("alen", aerr, 0, 0))
					}
					regs[in.d] = bytecode.Int(int64(len(arr)))
				case rPrint:
					e.Output = append(e.Output, regs[in.a])
				case rBrTrue:
					if regs[in.a].IsTrue() {
						x = int32(in.x)
						break body
					}
				case rBrFalse:
					if !regs[in.a].IsTrue() {
						x = int32(in.x)
						break body
					}
				case rEnd:
					break body
				case rIADD:
					a, b := regs[in.a].I, regs[in.b].I
					regs[in.d] = bytecode.Int(a + b)
				case rIADDi:
					a, b := regs[in.a].I, int64(in.imm)
					regs[in.d] = bytecode.Int(a + b)
				case rISUB:
					a, b := regs[in.a].I, regs[in.b].I
					regs[in.d] = bytecode.Int(a - b)
				case rISUBi:
					a, b := regs[in.a].I, int64(in.imm)
					regs[in.d] = bytecode.Int(a - b)
				case rIMUL:
					a, b := regs[in.a].I, regs[in.b].I
					regs[in.d] = bytecode.Int(a * b)
				case rIMULi:
					a, b := regs[in.a].I, int64(in.imm)
					regs[in.d] = bytecode.Int(a * b)
				case rIDIV:
					a, b := regs[in.a].I, regs[in.b].I
					if b == 0 {
						return e.traceTrap(tr, tc, int32(in.x), regs, locals, lb, stack, workP, cycP, "integer division by zero")
					}
					regs[in.d] = bytecode.Int(a / b)
				case rIDIVk:
					regs[in.d] = bytecode.Int(tr.divs[in.imm].quo(regs[in.a].I))
				case rIMOD:
					a, b := regs[in.a].I, regs[in.b].I
					if b == 0 {
						return e.traceTrap(tr, tc, int32(in.x), regs, locals, lb, stack, workP, cycP, "integer modulo by zero")
					}
					regs[in.d] = bytecode.Int(a % b)
				case rIMODk:
					regs[in.d] = bytecode.Int(tr.divs[in.imm].rem(regs[in.a].I))
				case rINEG:
					regs[in.d] = semINEG(regs[in.a])
				case rIAND:
					a, b := regs[in.a].I, regs[in.b].I
					regs[in.d] = bytecode.Int(a & b)
				case rIANDi:
					a, b := regs[in.a].I, int64(in.imm)
					regs[in.d] = bytecode.Int(a & b)
				case rIOR:
					a, b := regs[in.a].I, regs[in.b].I
					regs[in.d] = bytecode.Int(a | b)
				case rIORi:
					a, b := regs[in.a].I, int64(in.imm)
					regs[in.d] = bytecode.Int(a | b)
				case rIXOR:
					a, b := regs[in.a].I, regs[in.b].I
					regs[in.d] = bytecode.Int(a ^ b)
				case rIXORi:
					a, b := regs[in.a].I, int64(in.imm)
					regs[in.d] = bytecode.Int(a ^ b)
				case rISHL:
					a, b := regs[in.a].I, regs[in.b].I
					regs[in.d] = bytecode.Int(a << (uint64(b) & 63))
				case rISHLi:
					a, b := regs[in.a].I, int64(in.imm)
					regs[in.d] = bytecode.Int(a << (uint64(b) & 63))
				case rISHR:
					a, b := regs[in.a].I, regs[in.b].I
					regs[in.d] = bytecode.Int(a >> (uint64(b) & 63))
				case rISHRi:
					a, b := regs[in.a].I, int64(in.imm)
					regs[in.d] = bytecode.Int(a >> (uint64(b) & 63))
				case rINOT:
					regs[in.d] = semINOT(regs[in.a])
				case rFADD:
					a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat()
					regs[in.d] = bytecode.Float(a + b)
				case rFSUB:
					a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat()
					regs[in.d] = bytecode.Float(a - b)
				case rFMUL:
					a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat()
					regs[in.d] = bytecode.Float(a * b)
				case rFDIV:
					a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat()
					regs[in.d] = bytecode.Float(a / b)
				case rFNEG:
					regs[in.d] = semFNEG(regs[in.a])
				case rFSQRT:
					regs[in.d] = semFSQRT(regs[in.a])
				case rFABS:
					regs[in.d] = semFABS(regs[in.a])
				case rI2F:
					regs[in.d] = semI2F(regs[in.a])
				case rF2I:
					regs[in.d] = semF2I(regs[in.a])
				case rIEQ:
					a, b := regs[in.a].I, regs[in.b].I
					regs[in.d] = bytecode.Bool(a == b)
				case rIEQi:
					a, b := regs[in.a].I, int64(in.imm)
					regs[in.d] = bytecode.Bool(a == b)
				case rINE:
					a, b := regs[in.a].I, regs[in.b].I
					regs[in.d] = bytecode.Bool(a != b)
				case rINEi:
					a, b := regs[in.a].I, int64(in.imm)
					regs[in.d] = bytecode.Bool(a != b)
				case rILT:
					a, b := regs[in.a].I, regs[in.b].I
					regs[in.d] = bytecode.Bool(a < b)
				case rILTi:
					a, b := regs[in.a].I, int64(in.imm)
					regs[in.d] = bytecode.Bool(a < b)
				case rILE:
					a, b := regs[in.a].I, regs[in.b].I
					regs[in.d] = bytecode.Bool(a <= b)
				case rILEi:
					a, b := regs[in.a].I, int64(in.imm)
					regs[in.d] = bytecode.Bool(a <= b)
				case rIGT:
					a, b := regs[in.a].I, regs[in.b].I
					regs[in.d] = bytecode.Bool(a > b)
				case rIGTi:
					a, b := regs[in.a].I, int64(in.imm)
					regs[in.d] = bytecode.Bool(a > b)
				case rIGE:
					a, b := regs[in.a].I, regs[in.b].I
					regs[in.d] = bytecode.Bool(a >= b)
				case rIGEi:
					a, b := regs[in.a].I, int64(in.imm)
					regs[in.d] = bytecode.Bool(a >= b)
				case rFEQ:
					a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat()
					regs[in.d] = bytecode.Bool(a == b)
				case rFNE:
					a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat()
					regs[in.d] = bytecode.Bool(a != b)
				case rFLT:
					a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat()
					regs[in.d] = bytecode.Bool(a < b)
				case rFLE:
					a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat()
					regs[in.d] = bytecode.Bool(a <= b)
				case rFGT:
					a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat()
					regs[in.d] = bytecode.Bool(a > b)
				case rFGE:
					a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat()
					regs[in.d] = bytecode.Bool(a >= b)
				case rSELECT:
					regs[in.d] = semSELECT(regs[in.a], regs[in.b], regs[in.c])
				case rIABS:
					regs[in.d] = semIABS(regs[in.a])
				case rxIEQ:
					if a, b := regs[in.a].I, regs[in.b].I; a == b {
						x = int32(in.x)
						break body
					}
				case rxIEQi:
					if a, b := regs[in.a].I, int64(in.imm); a == b {
						x = int32(in.x)
						break body
					}
				case rxnIEQ:
					if a, b := regs[in.a].I, regs[in.b].I; !(a == b) {
						x = int32(in.x)
						break body
					}
				case rxnIEQi:
					if a, b := regs[in.a].I, int64(in.imm); !(a == b) {
						x = int32(in.x)
						break body
					}
				case rxINE:
					if a, b := regs[in.a].I, regs[in.b].I; a != b {
						x = int32(in.x)
						break body
					}
				case rxINEi:
					if a, b := regs[in.a].I, int64(in.imm); a != b {
						x = int32(in.x)
						break body
					}
				case rxnINE:
					if a, b := regs[in.a].I, regs[in.b].I; !(a != b) {
						x = int32(in.x)
						break body
					}
				case rxnINEi:
					if a, b := regs[in.a].I, int64(in.imm); !(a != b) {
						x = int32(in.x)
						break body
					}
				case rxILT:
					if a, b := regs[in.a].I, regs[in.b].I; a < b {
						x = int32(in.x)
						break body
					}
				case rxILTi:
					if a, b := regs[in.a].I, int64(in.imm); a < b {
						x = int32(in.x)
						break body
					}
				case rxnILT:
					if a, b := regs[in.a].I, regs[in.b].I; !(a < b) {
						x = int32(in.x)
						break body
					}
				case rxnILTi:
					if a, b := regs[in.a].I, int64(in.imm); !(a < b) {
						x = int32(in.x)
						break body
					}
				case rxILE:
					if a, b := regs[in.a].I, regs[in.b].I; a <= b {
						x = int32(in.x)
						break body
					}
				case rxILEi:
					if a, b := regs[in.a].I, int64(in.imm); a <= b {
						x = int32(in.x)
						break body
					}
				case rxnILE:
					if a, b := regs[in.a].I, regs[in.b].I; !(a <= b) {
						x = int32(in.x)
						break body
					}
				case rxnILEi:
					if a, b := regs[in.a].I, int64(in.imm); !(a <= b) {
						x = int32(in.x)
						break body
					}
				case rxIGT:
					if a, b := regs[in.a].I, regs[in.b].I; a > b {
						x = int32(in.x)
						break body
					}
				case rxIGTi:
					if a, b := regs[in.a].I, int64(in.imm); a > b {
						x = int32(in.x)
						break body
					}
				case rxnIGT:
					if a, b := regs[in.a].I, regs[in.b].I; !(a > b) {
						x = int32(in.x)
						break body
					}
				case rxnIGTi:
					if a, b := regs[in.a].I, int64(in.imm); !(a > b) {
						x = int32(in.x)
						break body
					}
				case rxIGE:
					if a, b := regs[in.a].I, regs[in.b].I; a >= b {
						x = int32(in.x)
						break body
					}
				case rxIGEi:
					if a, b := regs[in.a].I, int64(in.imm); a >= b {
						x = int32(in.x)
						break body
					}
				case rxnIGE:
					if a, b := regs[in.a].I, regs[in.b].I; !(a >= b) {
						x = int32(in.x)
						break body
					}
				case rxnIGEi:
					if a, b := regs[in.a].I, int64(in.imm); !(a >= b) {
						x = int32(in.x)
						break body
					}
				case rxFEQ:
					if a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat(); a == b {
						x = int32(in.x)
						break body
					}
				case rxnFEQ:
					if a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat(); !(a == b) {
						x = int32(in.x)
						break body
					}
				case rxFNE:
					if a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat(); a != b {
						x = int32(in.x)
						break body
					}
				case rxnFNE:
					if a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat(); !(a != b) {
						x = int32(in.x)
						break body
					}
				case rxFLT:
					if a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat(); a < b {
						x = int32(in.x)
						break body
					}
				case rxnFLT:
					if a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat(); !(a < b) {
						x = int32(in.x)
						break body
					}
				case rxFLE:
					if a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat(); a <= b {
						x = int32(in.x)
						break body
					}
				case rxnFLE:
					if a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat(); !(a <= b) {
						x = int32(in.x)
						break body
					}
				case rxFGT:
					if a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat(); a > b {
						x = int32(in.x)
						break body
					}
				case rxnFGT:
					if a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat(); !(a > b) {
						x = int32(in.x)
						break body
					}
				case rxFGE:
					if a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat(); a >= b {
						x = int32(in.x)
						break body
					}
				case rxnFGE:
					if a, b := regs[in.a].AsFloat(), regs[in.b].AsFloat(); !(a >= b) {
						x = int32(in.x)
						break body
					}
				case rInc_rxIGE:
					regs[in.d].I += int64(in.imm)
					if a, b := regs[in.a].I, regs[in.b].I; a >= b {
						x = int32(in.x)
						break body
					}
				case rInc_rxIGEi:
					regs[in.d].I += int64(in.imm)
					if a, b := regs[in.a].I, int64(in.y); a >= b {
						x = int32(in.x)
						break body
					}
				case rxIGE_rALoad:
					if a, b := regs[in.a].I, regs[in.b].I; a >= b {
						x = int32(in.x)
						break body
					}
					arr, aerr := e.Array(regs[in.c])
					idx := regs[in.a].AsInt()
					if aerr != nil || idx < 0 || idx >= int64(len(arr)) {
						return e.traceTrap(tr, tc, in.y, regs, locals, lb, stack, workP, cycP, arrayTrap("aload", aerr, idx, len(arr)))
					}
					regs[in.d] = arr[idx]
				case rIMODk_rIADD:
					regs[in.d] = bytecode.Int(tr.divs[in.imm].rem(regs[in.a].I))
					a, b := regs[in.d].I, regs[in.c].I
					regs[in.b] = bytecode.Int(a + b)
				case rIDIVk_rIADD:
					regs[in.d] = bytecode.Int(tr.divs[in.imm].quo(regs[in.a].I))
					a, b := regs[in.d].I, regs[in.c].I
					regs[in.b] = bytecode.Int(a + b)
				case rIADD_rInc:
					{
						a, b := regs[in.a].I, regs[in.b].I
						regs[in.d] = bytecode.Int(a + b)
					}
					regs[in.c].I += int64(in.imm)
				case rALoad_rxIEQ:
					{
						arr, aerr := e.Array(regs[in.a])
						idx := regs[in.b].AsInt()
						if aerr != nil || idx < 0 || idx >= int64(len(arr)) {
							return e.traceTrap(tr, tc, int32(in.x), regs, locals, lb, stack, workP, cycP, arrayTrap("aload", aerr, idx, len(arr)))
						}
						regs[in.d] = arr[idx]
					}
					if a, b := regs[in.d].I, regs[in.c].I; a == b {
						x = in.y
						break body
					}
				case rMove_rInc:
					regs[in.d] = regs[in.a]
					regs[in.b].I += int64(in.imm)
				case rInc_rMove:
					regs[in.d].I += int64(in.imm)
					regs[in.a] = regs[in.b]
				case rInc_rEnd:
					regs[in.d].I += int64(in.imm)
					break body
				}
			}
			if x < 0 || tr.exits[x].to == 0 {
				break
			}
			// A forward skip: the branch jumps over later items of this
			// iteration. Subtract their charges, which keeps the clock at
			// the executed prefix plus the linear suffix, and go on at
			// the instruction the target item starts with.
			sk := &tr.exits[x]
			e.unwind(sk.rem, sk.remBase, workP, cycP)
			i, x = int(sk.to), -1
		}

		if x >= 0 {
			ex := &tr.exits[x]
			e.unwind(ex.rem, ex.remBase, workP, cycP)
			return e.traceLeave(tr, tc, ex, regs, locals, lb, stack)
		}

		// Back at the head. ForcedDeopt forces a hand-back every
		// iteration to hammer the exit/re-entry machinery. Otherwise the
		// trace loops only while the next full iteration still fits the
		// sample window; the engine loop crosses the boundary on the
		// accounted path exactly as the other tiers do.
		if e.ForcedDeopt {
			tc[tcDeopts]++
			break
		}
		if e.Cycles+tr.cost >= e.nextSample {
			break
		}
	}
	copy(locals[lb:lb+nloc], regs[:nloc])
	return stack, int(tr.head), 0, ""
}
