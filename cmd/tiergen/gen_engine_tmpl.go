package main

// The Engine.Run tier scaffolding, spliced verbatim around the generated
// per-opcode arms. runTop opens Run and carries the frame loop, the trace
// tier entry, and the fused plan's batched-segment entry up
// to the micro-op switch; runMid carries the fused superinstruction arms
// and the accounted loop's sampling prologue up to the per-instruction
// switch; runBottom closes both switches and the function. Indentation is
// normalized by go/format after splicing.

const runTop = `// Run executes the program's entry function to completion and returns its
// result value.
func (e *Engine) Run() (bytecode.Value, error) {
	e.nextSample = e.Cycles + e.SampleStride
	e.halted = false
	if e.Interrupt != nil {
		if cause := e.Interrupt(); cause != nil {
			return bytecode.Value{}, &CanceledError{Prog: e.Prog.Name, Cycles: e.Cycles, Cause: cause}
		}
	}

	sc := scratchPool.Get().(*runScratch)
	locals := sc.locals[:0]
	stack := sc.stack[:0]
	frames := sc.frames[:0]
	e.rootLocals, e.rootStack = nil, nil
	defer func() {
		// Hand the (possibly grown) arenas back. The frame stack holds
		// *Code pointers and the pin file the run's arrays; clear both so
		// the pool keeps neither compiled code nor a heap alive, and
		// unpublish the GC roots so the engine no longer aliases pooled
		// memory.
		sc.locals, sc.stack = locals[:0], stack[:0]
		sc.frames = frames[:cap(frames)]
		clear(sc.frames)
		sc.frames = sc.frames[:0]
		if sc.pins != nil {
			clear(sc.pins[:])
		}
		sc.tc.flush()
		e.rootLocals, e.rootStack = nil, nil
		scratchPool.Put(sc)
	}()

	push := func(fnIdx int) error {
		if len(frames) >= maxCallDepth {
			return &RuntimeError{Prog: e.Prog.Name, Fn: e.Prog.Funcs[fnIdx].Name,
				Msg: fmt.Sprintf("call depth exceeds %d", maxCallDepth)}
		}
		code := e.Provider(fnIdx)
		frames = append(frames, frame{
			code:       code,
			localsBase: len(locals),
			spBase:     len(stack),
		})
		for i := 0; i < code.NLocals; i++ {
			locals = append(locals, bytecode.Value{})
		}
		e.Invocations[fnIdx]++
		if e.OnInvoke != nil {
			e.OnInvoke(fnIdx, e.Invocations[fnIdx])
		}
		return nil
	}

	if err := push(e.Prog.Entry); err != nil {
		return bytecode.Value{}, err
	}
	// Entry takes no arguments by Verify.

	var result bytecode.Value
	for len(frames) > 0 {
		fr := &frames[len(frames)-1]
		code := fr.code
		lb := fr.localsBase
		workP := &e.Work[code.FnIdx]
		cycP := &e.FnCycles[code.FnIdx]
		var pl *plan
		var tp *tracePlan
		if !e.NoBatching {
			if !e.NoRegTier {
				tp = e.traceTier(code)
			}
			pl = code.planFor()
		}
		rerr := func(format string, args ...interface{}) error {
			return &RuntimeError{Prog: e.Prog.Name, Fn: code.Name, PC: fr.pc,
				Msg: fmt.Sprintf(format, args...)}
		}

	body:
		for {
			pc := fr.pc
			if pc < 0 || pc >= len(code.Instrs) {
				return result, rerr("pc out of range")
			}

			// Fastest path: the register-converted trace tier. A hot loop
			// head whose whole next iteration fits the sample window runs
			// as a register program — locals live in a register file, the
			// operand stack is untouched, and one batched debit covers the
			// iteration. Side exits and traps roll back the unexecuted
			// suffix and land on exactly the accounted loop's state.
			if tp != nil {
				if run := tp.tr[pc]; run != nil && e.mayRun(run) {
					var npc int
					var tpc int32
					var msg string
					stack, npc, tpc, msg = e.runTrace(run, sc, locals, lb, stack, workP, cycP)
					if msg != "" {
						fr.pc = int(tpc)
						return result, rerr("%s", msg)
					}
					fr.pc = npc
					continue
				}
			}

			// Fast path: a batchable straight-line segment starts here and
			// charging it whole cannot reach the next sample boundary, so
			// no sampler tick, cycle-fuse check, trap, or call can occur
			// inside it. Charge once, then run the pre-decoded
			// micro-program without per-instruction accounting. Every
			// other case takes the original per-instruction loop below.
			if pl != nil {
				if s := pl.seg[pc]; s != nil && e.Cycles+s.cost < e.nextSample {
					e.Cycles += s.cost
					*workP += s.base
					*cycP += s.cost
					fr.pc = int(s.end) // branches below overwrite this
					for i := range s.ops {
						f := &s.ops[i]
						switch f.op {
`

const runMid = `
						// Fused superinstructions.
						case fLLBin:
							stack = append(stack, bytecode.Int(intBin(bytecode.Op(f.c),
								locals[lb+int(f.a)].I, locals[lb+int(f.b)].I)))
						case fLIBin:
							stack = append(stack, bytecode.Int(intBin(bytecode.Op(f.c),
								locals[lb+int(f.a)].I, int64(f.b))))
						case fLGBin:
							stack = append(stack, bytecode.Int(intBin(bytecode.Op(f.c),
								locals[lb+int(f.a)].I, e.Globals[f.b].I)))
						case fMove:
							locals[lb+int(f.b)] = locals[lb+int(f.a)]
						case fGMove:
							locals[lb+int(f.b)] = e.Globals[f.a]
						case fIStore:
							locals[lb+int(f.a)] = bytecode.Int(int64(f.b))
						case fCStore:
							locals[lb+int(f.a)] = code.Consts[f.b]
						case fIncJmp:
							locals[lb+int(f.a)].I += int64(f.b)
							fr.pc = int(f.c)
						case fCmpJnz:
							n := len(stack)
							r := intCmp(bytecode.Op(f.c), stack[n-2].I, stack[n-1].I)
							stack = stack[:n-2]
							if r {
								fr.pc = int(f.b)
							}
						case fICmpJnz:
							n := len(stack)
							r := intCmp(bytecode.Op(f.c), stack[n-1].I, int64(f.a))
							stack = stack[:n-1]
							if r {
								fr.pc = int(f.b)
							}
						case fLJnz:
							if locals[lb+int(f.a)].IsTrue() {
								fr.pc = int(f.b)
							}
						case fGALoad:
							arr, aerr := e.Array(e.Globals[f.a])
							if aerr == nil {
								idx := locals[lb+int(f.b)].AsInt()
								if idx >= 0 && idx < int64(len(arr)) {
									stack = append(stack, arr[idx])
									break
								}
								aerr = fmt.Errorf("index %d out of range [0,%d)", idx, len(arr))
							}
							e.Cycles -= int64(f.rem)
							*workP -= int64(f.remBase)
							*cycP -= int64(f.rem)
							fr.pc = int(f.tpc)
							return result, rerr("aload: %v", aerr)
						case fLLBinS:
							locals[lb+int(f.d)] = bytecode.Int(intBin(bytecode.Op(f.c),
								locals[lb+int(f.a)].I, locals[lb+int(f.b)].I))
						case fLIBinS:
							locals[lb+int(f.d)] = bytecode.Int(intBin(bytecode.Op(f.c),
								locals[lb+int(f.a)].I, int64(f.b)))
						case fLGBinS:
							locals[lb+int(f.d)] = bytecode.Int(intBin(bytecode.Op(f.c),
								locals[lb+int(f.a)].I, e.Globals[f.b].I))
						case fLLCmpJnz:
							if intCmp(bytecode.Op(f.c), locals[lb+int(f.a)].I, locals[lb+int(f.b)].I) {
								fr.pc = int(f.d)
							}
						case fLGCmpJnz:
							if intCmp(bytecode.Op(f.c), locals[lb+int(f.a)].I, e.Globals[f.b].I) {
								fr.pc = int(f.d)
							}
						case fLICmpJnz:
							if intCmp(bytecode.Op(f.c), locals[lb+int(f.a)].I, int64(f.b)) {
								fr.pc = int(f.d)
							}
						}
					}
					continue
				}
			}

			in := code.Instrs[pc]
			e.Cycles += code.Cost[pc]
			*workP += code.Base[pc]
			*cycP += code.Cost[pc]
			if e.Cycles >= e.nextSample {
				for e.Cycles >= e.nextSample {
					e.nextSample += e.SampleStride
					if e.OnSample != nil {
						e.OnSample(code.FnIdx)
					}
				}
				if e.Cycles > e.MaxCycles {
					return result, rerr("cycle limit %d exceeded", e.MaxCycles)
				}
				if e.Interrupt != nil {
					if cause := e.Interrupt(); cause != nil {
						return result, &CanceledError{Prog: e.Prog.Name, Fn: code.Name,
							PC: pc, Cycles: e.Cycles, Cause: cause}
					}
				}
			}
			fr.pc = pc + 1

			switch in.Op {
`

const runBottom = `
			default:
				return result, rerr("invalid opcode %d", in.Op)
			}
		}
	}
	return result, nil
}
`
