package main

// The Engine.runTrace scaffolding, spliced verbatim around the generated
// arms. traceTop opens runTrace and carries the activation and the
// per-iteration charge up to the instruction switch; traceBottom closes
// the switch and carries forward skips, exits, and the back edge.
// Indentation is normalized by go/format after splicing.

const traceTop = `// runTrace executes iterations of tr until the next one would not fit
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
`

const traceBottom = `				}
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
`

// structArms are the arm bodies of the structural register opcodes, in
// opcode order (regir.go), written with operand placeholders (armFields).
// Like every arm body, each runs to its end on success and leaves only by
// returning a trap or by "break body" with x set, so two bodies joined
// run exactly as the two instructions did (gen_pairs.go).
var structArms = []namedArm{
	{"rLoadI", "regs[{d}] = bytecode.Int(int64({imm}))"},
	{"rLoadC", "regs[{d}] = tr.consts[{imm}]"},
	{"rMove", "regs[{d}] = regs[{a}]"},
	{"rGLoad", "regs[{d}] = e.Globals[{imm}]"},
	{"rGStore", "e.Globals[{imm}] = regs[{a}]"},
	{"rInc", "regs[{d}].I += int64({imm})"},
	{"rALoad", `arr, aerr := e.Array(regs[{a}])
idx := regs[{b}].AsInt()
if aerr != nil || idx < 0 || idx >= int64(len(arr)) {
	return e.traceTrap(tr, tc, {x}, regs, locals, lb, stack, workP, cycP, arrayTrap("aload", aerr, idx, len(arr)))
}
regs[{d}] = arr[idx]`},
	{"rAStore", `arr, aerr := e.Array(regs[{a}])
idx := regs[{b}].AsInt()
if aerr != nil || idx < 0 || idx >= int64(len(arr)) {
	return e.traceTrap(tr, tc, {x}, regs, locals, lb, stack, workP, cycP, arrayTrap("astore", aerr, idx, len(arr)))
}
arr[idx] = regs[{d}]`},
	{"rALen", `arr, aerr := e.Array(regs[{a}])
if aerr != nil {
	return e.traceTrap(tr, tc, {x}, regs, locals, lb, stack, workP, cycP, arrayTrap("alen", aerr, 0, 0))
}
regs[{d}] = bytecode.Int(int64(len(arr)))`},
	{"rPrint", "e.Output = append(e.Output, regs[{a}])"},
	{"rBrTrue", "if regs[{a}].IsTrue() {\nx = {x}\nbreak body\n}"},
	{"rBrFalse", "if !regs[{a}].IsTrue() {\nx = {x}\nbreak body\n}"},
	{"rEnd", "break body"},
}
