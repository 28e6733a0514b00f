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
		sc.regs, sc.pins = new(regFile), new(pinFile)
	}
	regs, pins := sc.regs, sc.pins
	nloc := int(tr.nloc)
	copy(regs[:nloc], locals[lb:lb+nloc])
	tc := &sc.tc
	tc[tcHeadEntries]++
	// The prologue: every global tr reads and never writes is loaded into
	// its register, which tr's instructions read in place of the global.
	// Then every array register is pinned: its array's backing slice is
	// resolved once, and tr's array ops index the pin instead of the
	// heap. Only tr runs until this function returns, and it writes
	// neither these registers nor the heap's layout, so the registers and
	// pins stay current; the code that runs before the next entry may
	// write the globals, the locals and the heap, so every entry loads
	// and resolves them again.
	for _, h := range tr.hoist {
		regs[h.reg] = e.Globals[h.g]
	}
	for _, r := range tr.pins {
		pins[r] = e.pin(regs[r])
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
	{"rALoad", `arr := pins[{a}]
idx := regs[{b}].AsInt()
if idx < 0 || idx >= int64(len(arr)) {
	return e.traceTrap(tr, tc, {x}, regs, locals, lb, stack, workP, cycP, e.arrayTrap("aload", regs[{a}], idx))
}
regs[{d}] = arr[idx]`},
	{"rAStore", `arr := pins[{a}]
idx := regs[{b}].AsInt()
if idx < 0 || idx >= int64(len(arr)) {
	return e.traceTrap(tr, tc, {x}, regs, locals, lb, stack, workP, cycP, e.arrayTrap("astore", regs[{a}], idx))
}
arr[idx] = regs[{d}]`},
	{"rALen", `arr := pins[{a}]
if arr == nil {
	return e.traceTrap(tr, tc, {x}, regs, locals, lb, stack, workP, cycP, e.arrayTrap("alen", regs[{a}], 0))
}
regs[{d}] = bytecode.Int(int64(len(arr)))`},
	{"rPrint", "e.Output = append(e.Output, regs[{a}])"},
	{"rBrTrue", "if regs[{a}].IsTrue() {\nx = {x}\nbreak body\n}"},
	{"rBrFalse", "if !regs[{a}].IsTrue() {\nx = {x}\nbreak body\n}"},
	{"rEnd", "break body"},
}
