// Code generated by cmd/tiergen from internal/opspec. DO NOT EDIT.

package interp

import (
	"fmt"

	"evolvevm/internal/bytecode"
)

// Run executes the program's entry function to completion and returns its
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
		// *Code pointers; clear it so the pool pins no compiled code, and
		// unpublish the GC roots so the engine no longer aliases pooled
		// memory.
		sc.locals, sc.stack = locals[:0], stack[:0]
		sc.frames = frames[:cap(frames)]
		clear(sc.frames)
		sc.frames = sc.frames[:0]
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
			pl = code.planFor(!e.NoFusion)
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
						case bytecode.NOP:
						case bytecode.IPUSH:
							stack = append(stack, bytecode.Int(int64(f.a)))
						case bytecode.CONST:
							stack = append(stack, code.Consts[f.a])
						case bytecode.LOAD:
							stack = append(stack, locals[lb+int(f.a)])
						case bytecode.STORE:
							locals[lb+int(f.a)] = stack[len(stack)-1]
							stack = stack[:len(stack)-1]
						case bytecode.GLOAD:
							stack = append(stack, e.Globals[f.a])
						case bytecode.GSTORE:
							e.Globals[f.a] = stack[len(stack)-1]
							stack = stack[:len(stack)-1]
						case bytecode.IINC:
							locals[lb+int(f.a)].I += int64(f.b)
						case bytecode.POP:
							stack = stack[:len(stack)-1]
						case bytecode.DUP:
							stack = append(stack, stack[len(stack)-1])
						case bytecode.SWAP:
							n := len(stack)
							stack[n-1], stack[n-2] = stack[n-2], stack[n-1]
						case bytecode.IADD, bytecode.ISUB, bytecode.IMUL, bytecode.IDIV, bytecode.IMOD, bytecode.IAND, bytecode.IOR, bytecode.IXOR, bytecode.ISHL, bytecode.ISHR:
							n := len(stack)
							a, b := stack[n-2].I, stack[n-1].I
							stack = stack[:n-1]
							var r int64
							switch f.op {
							case bytecode.IADD:
								r = a + b
							case bytecode.ISUB:
								r = a - b
							case bytecode.IMUL:
								r = a * b
							case bytecode.IDIV:
								if b == 0 {
									e.Cycles -= int64(f.rem)
									*workP -= int64(f.remBase)
									*cycP -= int64(f.rem)
									fr.pc = int(f.tpc)
									return result, rerr("integer division by zero")
								}
								r = a / b
							case bytecode.IMOD:
								if b == 0 {
									e.Cycles -= int64(f.rem)
									*workP -= int64(f.remBase)
									*cycP -= int64(f.rem)
									fr.pc = int(f.tpc)
									return result, rerr("integer modulo by zero")
								}
								r = a % b
							case bytecode.IAND:
								r = a & b
							case bytecode.IOR:
								r = a | b
							case bytecode.IXOR:
								r = a ^ b
							case bytecode.ISHL:
								r = a << (uint64(b) & 63)
							case bytecode.ISHR:
								r = a >> (uint64(b) & 63)
							}
							stack[n-2] = bytecode.Int(r)
						case bytecode.INEG:
							stack[len(stack)-1] = semINEG(stack[len(stack)-1])
						case bytecode.INOT:
							stack[len(stack)-1] = semINOT(stack[len(stack)-1])
						case bytecode.FADD, bytecode.FSUB, bytecode.FMUL, bytecode.FDIV:
							n := len(stack)
							a, b := stack[n-2].AsFloat(), stack[n-1].AsFloat()
							stack = stack[:n-1]
							var r float64
							switch f.op {
							case bytecode.FADD:
								r = a + b
							case bytecode.FSUB:
								r = a - b
							case bytecode.FMUL:
								r = a * b
							case bytecode.FDIV:
								r = a / b
							}
							stack[n-2] = bytecode.Float(r)
						case bytecode.FNEG:
							stack[len(stack)-1] = semFNEG(stack[len(stack)-1])
						case bytecode.FSQRT:
							stack[len(stack)-1] = semFSQRT(stack[len(stack)-1])
						case bytecode.FABS:
							stack[len(stack)-1] = semFABS(stack[len(stack)-1])
						case bytecode.I2F:
							stack[len(stack)-1] = semI2F(stack[len(stack)-1])
						case bytecode.F2I:
							stack[len(stack)-1] = semF2I(stack[len(stack)-1])
						case bytecode.IEQ, bytecode.INE, bytecode.ILT, bytecode.ILE, bytecode.IGT, bytecode.IGE:
							n := len(stack)
							a, b := stack[n-2].I, stack[n-1].I
							stack = stack[:n-1]
							var r bool
							switch f.op {
							case bytecode.IEQ:
								r = a == b
							case bytecode.INE:
								r = a != b
							case bytecode.ILT:
								r = a < b
							case bytecode.ILE:
								r = a <= b
							case bytecode.IGT:
								r = a > b
							case bytecode.IGE:
								r = a >= b
							}
							stack[n-2] = bytecode.Bool(r)
						case bytecode.FEQ, bytecode.FNE, bytecode.FLT, bytecode.FLE, bytecode.FGT, bytecode.FGE:
							n := len(stack)
							a, b := stack[n-2].AsFloat(), stack[n-1].AsFloat()
							stack = stack[:n-1]
							var r bool
							switch f.op {
							case bytecode.FEQ:
								r = a == b
							case bytecode.FNE:
								r = a != b
							case bytecode.FLT:
								r = a < b
							case bytecode.FLE:
								r = a <= b
							case bytecode.FGT:
								r = a > b
							case bytecode.FGE:
								r = a >= b
							}
							stack[n-2] = bytecode.Bool(r)
						case bytecode.JMP:
							fr.pc = int(f.a)
						case bytecode.JZ:
							v := stack[len(stack)-1]
							stack = stack[:len(stack)-1]
							if !v.IsTrue() {
								fr.pc = int(f.a)
							}
						case bytecode.JNZ:
							v := stack[len(stack)-1]
							stack = stack[:len(stack)-1]
							if v.IsTrue() {
								fr.pc = int(f.a)
							}
						case bytecode.ALOAD:
							n := len(stack)
							arr, aerr := e.Array(stack[n-2])
							if aerr == nil {
								idx := stack[n-1].AsInt()
								if idx >= 0 && idx < int64(len(arr)) {
									stack = stack[:n-1]
									stack[n-2] = arr[idx]
									break
								}
								aerr = fmt.Errorf("index %d out of range [0,%d)", idx, len(arr))
							}
							e.Cycles -= int64(f.rem)
							*workP -= int64(f.remBase)
							*cycP -= int64(f.rem)
							fr.pc = int(f.tpc)
							return result, rerr("aload: %v", aerr)
						case bytecode.ASTORE:
							n := len(stack)
							arr, aerr := e.Array(stack[n-3])
							if aerr == nil {
								idx := stack[n-2].AsInt()
								if idx >= 0 && idx < int64(len(arr)) {
									arr[idx] = stack[n-1]
									stack = stack[:n-3]
									break
								}
								aerr = fmt.Errorf("index %d out of range [0,%d)", idx, len(arr))
							}
							e.Cycles -= int64(f.rem)
							*workP -= int64(f.remBase)
							*cycP -= int64(f.rem)
							fr.pc = int(f.tpc)
							return result, rerr("astore: %v", aerr)
						case bytecode.ALEN:
							arr, aerr := e.Array(stack[len(stack)-1])
							if aerr != nil {
								e.Cycles -= int64(f.rem)
								*workP -= int64(f.remBase)
								*cycP -= int64(f.rem)
								fr.pc = int(f.tpc)
								return result, rerr("alen: %v", aerr)
							}
							stack[len(stack)-1] = bytecode.Int(int64(len(arr)))
						case bytecode.PRINT:
							e.Output = append(e.Output, stack[len(stack)-1])
							stack = stack[:len(stack)-1]
						case bytecode.SELECT:
							n := len(stack)
							v := semSELECT(stack[n-3], stack[n-2], stack[n-1])
							stack = stack[:n-2]
							stack[n-3] = v
						case bytecode.IABS:
							stack[len(stack)-1] = semIABS(stack[len(stack)-1])

						// Fused superinstructions.
						case fLLBin:
							stack = append(stack, bytecode.Int(intBin(bytecode.Op(f.c),
								locals[lb+int(f.a)].I, locals[lb+int(f.b)].I)))
						case fLLCmp:
							stack = append(stack, bytecode.Bool(intCmp(bytecode.Op(f.c),
								locals[lb+int(f.a)].I, locals[lb+int(f.b)].I)))
						case fLIBin:
							stack = append(stack, bytecode.Int(intBin(bytecode.Op(f.c),
								locals[lb+int(f.a)].I, int64(f.b))))
						case fLICmp:
							stack = append(stack, bytecode.Bool(intCmp(bytecode.Op(f.c),
								locals[lb+int(f.a)].I, int64(f.b))))
						case fLGBin:
							stack = append(stack, bytecode.Int(intBin(bytecode.Op(f.c),
								locals[lb+int(f.a)].I, e.Globals[f.b].I)))
						case fLGCmp:
							stack = append(stack, bytecode.Bool(intCmp(bytecode.Op(f.c),
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
						case fCmpJz, fCmpJnz:
							n := len(stack)
							r := intCmp(bytecode.Op(f.c), stack[n-2].I, stack[n-1].I)
							stack = stack[:n-2]
							if r == (f.op == fCmpJnz) {
								fr.pc = int(f.b)
							}
						case fCCmpJz, fCCmpJnz:
							n := len(stack)
							r := intCmp(bytecode.Op(f.c), stack[n-1].I, code.Consts[f.a].I)
							stack = stack[:n-1]
							if r == (f.op == fCCmpJnz) {
								fr.pc = int(f.b)
							}
						case fICmpJz, fICmpJnz:
							n := len(stack)
							r := intCmp(bytecode.Op(f.c), stack[n-1].I, int64(f.a))
							stack = stack[:n-1]
							if r == (f.op == fICmpJnz) {
								fr.pc = int(f.b)
							}
						case fLJz:
							if !locals[lb+int(f.a)].IsTrue() {
								fr.pc = int(f.b)
							}
						case fLJnz:
							if locals[lb+int(f.a)].IsTrue() {
								fr.pc = int(f.b)
							}
						case fALoad:
							arr, aerr := e.Array(locals[lb+int(f.a)])
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
						case fLLCmpJz, fLLCmpJnz:
							r := intCmp(bytecode.Op(f.c),
								locals[lb+int(f.a)].I, locals[lb+int(f.b)].I)
							if r == (f.op == fLLCmpJnz) {
								fr.pc = int(f.d)
							}
						case fLGCmpJz, fLGCmpJnz:
							r := intCmp(bytecode.Op(f.c),
								locals[lb+int(f.a)].I, e.Globals[f.b].I)
							if r == (f.op == fLGCmpJnz) {
								fr.pc = int(f.d)
							}
						case fLICmpJz, fLICmpJnz:
							r := intCmp(bytecode.Op(f.c),
								locals[lb+int(f.a)].I, int64(f.b))
							if r == (f.op == fLICmpJnz) {
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
					code.noteSample()
					if e.OnSample != nil {
						e.OnSample(code.FnIdx)
					}
				}
				// A sampler tick is the promotion point of the register
				// tier: re-ask for the trace plan so code that just got
				// hot (or was recompiled hot in OnSample) starts tracing
				// without leaving the frame. The build runs inline here;
				// host-side only — the virtual stream is untouched.
				if tp == nil && !e.NoBatching && !e.NoRegTier {
					tp = e.traceTier(code)
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
			case bytecode.NOP:
			case bytecode.IPUSH:
				stack = append(stack, bytecode.Int(int64(in.A)))
			case bytecode.CONST:
				stack = append(stack, code.Consts[in.A])
			case bytecode.LOAD:
				stack = append(stack, locals[lb+int(in.A)])
			case bytecode.STORE:
				locals[lb+int(in.A)] = stack[len(stack)-1]
				stack = stack[:len(stack)-1]
			case bytecode.GLOAD:
				stack = append(stack, e.Globals[in.A])
			case bytecode.GSTORE:
				e.Globals[in.A] = stack[len(stack)-1]
				stack = stack[:len(stack)-1]
			case bytecode.IINC:
				locals[lb+int(in.A)].I += int64(in.B)
			case bytecode.POP:
				stack = stack[:len(stack)-1]
			case bytecode.DUP:
				stack = append(stack, stack[len(stack)-1])
			case bytecode.SWAP:
				n := len(stack)
				stack[n-1], stack[n-2] = stack[n-2], stack[n-1]
			case bytecode.IADD, bytecode.ISUB, bytecode.IMUL, bytecode.IDIV, bytecode.IMOD, bytecode.IAND, bytecode.IOR, bytecode.IXOR, bytecode.ISHL, bytecode.ISHR:
				n := len(stack)
				a, b := stack[n-2].I, stack[n-1].I
				stack = stack[:n-1]
				var r int64
				switch in.Op {
				case bytecode.IADD:
					r = a + b
				case bytecode.ISUB:
					r = a - b
				case bytecode.IMUL:
					r = a * b
				case bytecode.IDIV:
					if b == 0 {
						return result, rerr("integer division by zero")
					}
					r = a / b
				case bytecode.IMOD:
					if b == 0 {
						return result, rerr("integer modulo by zero")
					}
					r = a % b
				case bytecode.IAND:
					r = a & b
				case bytecode.IOR:
					r = a | b
				case bytecode.IXOR:
					r = a ^ b
				case bytecode.ISHL:
					r = a << (uint64(b) & 63)
				case bytecode.ISHR:
					r = a >> (uint64(b) & 63)
				}
				stack[n-2] = bytecode.Int(r)
			case bytecode.INEG:
				stack[len(stack)-1] = semINEG(stack[len(stack)-1])
			case bytecode.INOT:
				stack[len(stack)-1] = semINOT(stack[len(stack)-1])
			case bytecode.FADD, bytecode.FSUB, bytecode.FMUL, bytecode.FDIV:
				n := len(stack)
				a, b := stack[n-2].AsFloat(), stack[n-1].AsFloat()
				stack = stack[:n-1]
				var r float64
				switch in.Op {
				case bytecode.FADD:
					r = a + b
				case bytecode.FSUB:
					r = a - b
				case bytecode.FMUL:
					r = a * b
				case bytecode.FDIV:
					r = a / b
				}
				stack[n-2] = bytecode.Float(r)
			case bytecode.FNEG:
				stack[len(stack)-1] = semFNEG(stack[len(stack)-1])
			case bytecode.FSQRT:
				stack[len(stack)-1] = semFSQRT(stack[len(stack)-1])
			case bytecode.FABS:
				stack[len(stack)-1] = semFABS(stack[len(stack)-1])
			case bytecode.I2F:
				stack[len(stack)-1] = semI2F(stack[len(stack)-1])
			case bytecode.F2I:
				stack[len(stack)-1] = semF2I(stack[len(stack)-1])
			case bytecode.IEQ, bytecode.INE, bytecode.ILT, bytecode.ILE, bytecode.IGT, bytecode.IGE:
				n := len(stack)
				a, b := stack[n-2].I, stack[n-1].I
				stack = stack[:n-1]
				var r bool
				switch in.Op {
				case bytecode.IEQ:
					r = a == b
				case bytecode.INE:
					r = a != b
				case bytecode.ILT:
					r = a < b
				case bytecode.ILE:
					r = a <= b
				case bytecode.IGT:
					r = a > b
				case bytecode.IGE:
					r = a >= b
				}
				stack[n-2] = bytecode.Bool(r)
			case bytecode.FEQ, bytecode.FNE, bytecode.FLT, bytecode.FLE, bytecode.FGT, bytecode.FGE:
				n := len(stack)
				a, b := stack[n-2].AsFloat(), stack[n-1].AsFloat()
				stack = stack[:n-1]
				var r bool
				switch in.Op {
				case bytecode.FEQ:
					r = a == b
				case bytecode.FNE:
					r = a != b
				case bytecode.FLT:
					r = a < b
				case bytecode.FLE:
					r = a <= b
				case bytecode.FGT:
					r = a > b
				case bytecode.FGE:
					r = a >= b
				}
				stack[n-2] = bytecode.Bool(r)
			case bytecode.JMP:
				fr.pc = int(in.A)
			case bytecode.JZ:
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if !v.IsTrue() {
					fr.pc = int(in.A)
				}
			case bytecode.JNZ:
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if v.IsTrue() {
					fr.pc = int(in.A)
				}
			case bytecode.CALL:
				argc := int(in.B)
				args := stack[len(stack)-argc:]
				if err := push(int(in.A)); err != nil {
					return result, err
				}
				nf := &frames[len(frames)-1]
				copy(locals[nf.localsBase:], args)
				stack = stack[:len(stack)-argc]
				nf.spBase = len(stack)
				break body // switch to callee frame
			case bytecode.RET:
				rv := stack[len(stack)-1]
				stack = stack[:fr.spBase]
				locals = locals[:fr.localsBase]
				frames = frames[:len(frames)-1]
				stack = append(stack, rv)
				if len(frames) == 0 {
					result = rv
					return result, nil
				}
				break body // resume caller frame
			case bytecode.NEWARR:
				n := stack[len(stack)-1].AsInt()
				// Publish the collector's root sets: a collection can
				// only start inside NewArray. A copying collection
				// rewrites references in place, so the aliased local
				// slices stay valid afterwards.
				e.rootLocals, e.rootStack = locals, stack[:len(stack)-1]
				ref, err := e.NewArray(n)
				if err != nil {
					return result, rerr("%v", err)
				}
				// Allocation cost scales with size; charge it to the
				// allocating function as well so the per-function ledger
				// (Σ FnCycles) reconciles with the engine clock.
				e.Cycles += 2 * n
				*cycP += 2 * n
				stack[len(stack)-1] = ref
			case bytecode.ALOAD:
				n := len(stack)
				arr, err := e.Array(stack[n-2])
				if err != nil {
					return result, rerr("aload: %v", err)
				}
				idx := stack[n-1].AsInt()
				if idx < 0 || idx >= int64(len(arr)) {
					return result, rerr("aload: index %d out of range [0,%d)", idx, len(arr))
				}
				stack = stack[:n-1]
				stack[n-2] = arr[idx]
			case bytecode.ASTORE:
				n := len(stack)
				arr, err := e.Array(stack[n-3])
				if err != nil {
					return result, rerr("astore: %v", err)
				}
				idx := stack[n-2].AsInt()
				if idx < 0 || idx >= int64(len(arr)) {
					return result, rerr("astore: index %d out of range [0,%d)", idx, len(arr))
				}
				arr[idx] = stack[n-1]
				stack = stack[:n-3]
			case bytecode.ALEN:
				arr, err := e.Array(stack[len(stack)-1])
				if err != nil {
					return result, rerr("alen: %v", err)
				}
				stack[len(stack)-1] = bytecode.Int(int64(len(arr)))
			case bytecode.PRINT:
				e.Output = append(e.Output, stack[len(stack)-1])
				stack = stack[:len(stack)-1]
			case bytecode.HALT:
				e.halted = true
				if len(stack) > fr.spBase {
					result = stack[len(stack)-1]
				}
				return result, nil
			case bytecode.SELECT:
				n := len(stack)
				v := semSELECT(stack[n-3], stack[n-2], stack[n-1])
				stack = stack[:n-2]
				stack[n-3] = v
			case bytecode.IABS:
				stack[len(stack)-1] = semIABS(stack[len(stack)-1])

			default:
				return result, rerr("invalid opcode %d", in.Op)
			}
		}
	}
	return result, nil
}
