package interp

import (
	"math"

	"evolvevm/internal/bytecode"
)

// This file implements the host-performance execution plan of a Code: a
// pre-decoded view of the instruction stream that lets Engine.Run charge
// virtual cycles per straight-line segment instead of per instruction,
// and dispatch fused superinstructions instead of their components.
//
// The plan NEVER changes virtual results. The engine takes the fast path
// for a segment only when charging the whole segment cannot cross the
// next sample-stride boundary (checked arithmetically up front); in every
// other case — a boundary inside the segment, a call or return, an
// allocation — execution falls back to the original per-instruction
// loop, byte for byte the pre-substrate engine. Because every
// instruction of a segment belongs to the same function, batching
// preserves per-function cycle and work attribution exactly, and because
// the fast path runs only between sample boundaries, the sampler (and
// any compile it triggers, with its own cycle charges) fires at exactly
// the same points of the virtual-cycle stream as before.
//
// Trapping-but-allocation-free ops (idiv, imod, aload, astore, alen) ARE
// admitted into segments: each micro-op carries the summed charge of the
// instructions after it (rem/remBase) plus its original successor pc
// (tpc), so when one traps the engine subtracts the not-yet-executed
// suffix and reports the trap at the exact pc the per-instruction loop
// would have — the original loop charges an instruction before its trap
// check, which is precisely what the upfront-charge-minus-suffix
// reproduces. The substrate determinism suites in internal/difftest and
// internal/harness hold the plan to bit identity with the per-instruction
// loop over the generator corpus (trapping runs included) and the
// benchmark suite.

// Fused superinstruction opcodes. They extend bytecode.Op past NumOps and
// exist only inside plan micro-programs — never in bytecode streams, so
// the assembler, verifier, and optimizer are unaware of them. Each is an
// idiom that occurs in the plans of the benchmark programs.
const (
	// fLLBin: push Int(locals[A].I op locals[B].I); C is the int binop.
	fLLBin bytecode.Op = bytecode.Op(bytecode.NumOps) + iota
	// fLIBin: push Int(locals[A].I op B); C is the int binop.
	fLIBin
	// fLGBin: push Int(locals[A].I op Globals[B].I); C is the int binop.
	fLGBin
	// fMove: locals[B] = locals[A] (LOAD+STORE).
	fMove
	// fGMove: locals[B] = Globals[A] (GLOAD+STORE).
	fGMove
	// fIStore: locals[A] = Int(B) (IPUSH+STORE).
	fIStore
	// fCStore: locals[A] = Consts[B] (CONST+STORE).
	fCStore
	// fIncJmp: locals[A].I += B; pc = C (IINC+JMP loop back-edge).
	fIncJmp
	// fCmpJnz: pop b, pop a, branch to B on (a cmp b); C is the int cmp.
	fCmpJnz
	// fICmpJnz: pop a, branch to B on (a.I cmp A); C is the int cmp
	// (IPUSH+cmp+branch).
	fICmpJnz
	// fLJnz: branch to B on locals[A].IsTrue() (LOAD+branch).
	fLJnz
	// fGALoad: push Array(Globals[A])[locals[B]] (GLOAD+LOAD+ALOAD — the
	// global-array indexing idiom; benchmark inputs live in globals).
	// Traps like ALOAD on a dead reference or an out-of-range index.
	fGALoad
	// fLLBinS: locals[D] = locals[A].I op locals[B].I
	// (LOAD+LOAD+binop+STORE — a full register-style ALU op with no stack
	// traffic); C is the int binop.
	fLLBinS
	// fLIBinS: locals[D] = locals[A].I op B (LOAD+IPUSH+binop+STORE).
	fLIBinS
	// fLGBinS: locals[D] = locals[A].I op Globals[B].I
	// (LOAD+GLOAD+binop+STORE).
	fLGBinS
	// fLLCmpJnz: branch to D on (locals[A].I cmp locals[B].I); C is the
	// int cmp (LOAD+LOAD+cmp+branch — the loop header idiom).
	fLLCmpJnz
	// fLGCmpJnz: branch to D on (locals[A].I cmp Globals[B].I); C is the
	// int cmp.
	fLGCmpJnz
	// fLICmpJnz: branch to D on (locals[A].I cmp B); C is the int cmp.
	fLICmpJnz
)

// fop is one micro-operation of a segment: a plain bytecode op executed
// without per-instruction accounting, or a fused superinstruction.
//
// rem/remBase hold the summed Cost/Base of the segment instructions
// AFTER the ones this micro-op covers, and tpc is the pc following its
// last covered instruction — the trap-rollback data: a trapping micro-op
// subtracts rem from the upfront segment charge and reports the trap at
// tpc, landing on exactly the state the per-instruction loop produces.
type fop struct {
	op           bytecode.Op
	a, b, c, d   int32
	rem, remBase int32
	tpc          int32
}

// segRun is one batchable straight-line segment: cost and base are the
// summed charges of the covered instructions, end is the fall-through pc
// after the segment, and ops is the micro-program.
type segRun struct {
	cost int64
	base int64
	end  int32
	ops  []fop
}

// plan indexes segment runs by the original pc of their first
// instruction; seg[pc] is nil when no batchable segment starts at pc.
type plan struct {
	seg []*segRun
}

// The predicates below read the spec-derived classification tables in
// fuse_gen.go (opSegClass, opGroupOf), so an op added to internal/opspec
// is admitted into segments — or kept on the accounted path — by its
// declared class and trap clauses alone. The bounds guards keep the
// predicates total over fused superinstruction opcodes, which extend
// bytecode.Op past the table length.

// intBinOp reports whether op is a non-trapping integer binop (IDIV and
// IMOD trap on zero and carry rollback data instead).
func intBinOp(op bytecode.Op) bool {
	return int(op) < len(opGroupOf) && opGroupOf[op] == groupIntBin && opSegClass[op] == segInterior
}

// intCmpOp reports whether op is an integer comparison.
func intCmpOp(op bytecode.Op) bool {
	return int(op) < len(opGroupOf) && opGroupOf[op] == groupIntCmp
}

// trappingSafe reports whether op may appear inside a segment despite
// being able to trap: it allocates nothing (so no GC can start inside a
// segment), transfers no control, and its trap is reproduced exactly via
// the fop rollback data. NEWARR stays excluded — it charges size-scaled
// alloc cycles and can start a collection, both of which belong on the
// accounted path.
func trappingSafe(op bytecode.Op) bool {
	return int(op) < len(opSegClass) && opSegClass[op] == segTrapping
}

// interiorSafe reports whether op may appear inside a segment: it cannot
// trap, cannot transfer control, and touches no engine state other than
// stack, locals, globals, and the output log.
func interiorSafe(op bytecode.Op) bool {
	return int(op) < len(opSegClass) && opSegClass[op] == segInterior
}

// branchOp reports whether op may terminate a segment: an unconditional
// or conditional jump (non-trapping; included in the batch charge, with
// the branch itself executed as the segment's final micro-op).
func branchOp(op bytecode.Op) bool {
	return int(op) < len(opSegClass) && opSegClass[op] == segBranch
}

// buildPlan analyses the code and constructs its execution plan.
func buildPlan(c *Code) *plan {
	instrs := c.Instrs
	n := len(instrs)
	p := &plan{seg: make([]*segRun, n)}

	// Any pc that is a jump target may only be entered at a segment
	// head, so targets split segments.
	target := make([]bool, n)
	for _, in := range instrs {
		if in.Op.IsJump() && in.A >= 0 && int(in.A) < n {
			target[in.A] = true
		}
	}

	inSeg := func(op bytecode.Op) bool { return interiorSafe(op) || trappingSafe(op) }

	pc := 0
	for pc < n {
		if !inSeg(instrs[pc].Op) && !branchOp(instrs[pc].Op) {
			pc++
			continue
		}
		// Extend the run over segment-safe ops, stopping at jump
		// targets; optionally take one terminating branch.
		end := pc
		for end < n && inSeg(instrs[end].Op) && (end == pc || !target[end]) {
			end++
		}
		if end < n && branchOp(instrs[end].Op) && (end == pc || !target[end]) {
			end++
		}
		if end-pc < 2 {
			// A lone op saves nothing over the accounted path. end > pc
			// always holds here, so the walk advances.
			pc = end
			continue
		}
		s := &segRun{end: int32(end)}
		for i := pc; i < end; i++ {
			s.cost += c.Cost[i]
			s.base += c.Base[i]
		}
		if s.cost > math.MaxInt32 {
			// The fop rollback fields are int32; a segment this costly
			// cannot exist with the current cost table, but degrade to
			// the accounted path rather than truncate if it ever does.
			pc = end
			continue
		}
		s.ops = compileSeg(c, pc, end)
		p.seg[pc] = s
		pc = end
	}
	return p
}

// compileSeg translates the segment [start, end) into its micro-program,
// fusing known patterns, and stamps every micro-op with its
// trap-rollback data (suffix charges and successor pc).
func compileSeg(c *Code, start, end int) []fop {
	in := c.Instrs[start:end]
	// suf[k] is the summed charge of segment instructions from relative
	// index k on; suf[len(in)] is 0.
	suf := make([]int32, len(in)+1)
	sufBase := make([]int32, len(in)+1)
	for k := len(in) - 1; k >= 0; k-- {
		suf[k] = suf[k+1] + int32(c.Cost[start+k])
		sufBase[k] = sufBase[k+1] + int32(c.Base[start+k])
	}
	out := make([]fop, 0, len(in))
	for i := 0; i < len(in); {
		f, n := matchFused(in[i:])
		if n == 0 {
			f, n = fop{op: in[i].Op, a: in[i].A, b: in[i].B}, 1
		}
		f.rem = suf[i+n]
		f.remBase = sufBase[i+n]
		f.tpc = int32(start + i + n)
		out = append(out, f)
		i += n
	}
	return out
}

// matchFused matches a superinstruction pattern at the head of in and
// returns the fused op plus how many instructions it covers (0: none).
// Longest patterns are tried first.
func matchFused(in []bytecode.Instr) (fop, int) {
	if len(in) >= 4 {
		a, b, c, d := in[0], in[1], in[2], in[3]
		if a.Op == bytecode.LOAD {
			switch {
			case b.Op == bytecode.LOAD && intBinOp(c.Op) && d.Op == bytecode.STORE:
				return fop{op: fLLBinS, a: a.A, b: b.A, c: int32(c.Op), d: d.A}, 4
			case b.Op == bytecode.IPUSH && intBinOp(c.Op) && d.Op == bytecode.STORE:
				return fop{op: fLIBinS, a: a.A, b: b.A, c: int32(c.Op), d: d.A}, 4
			case b.Op == bytecode.GLOAD && intBinOp(c.Op) && d.Op == bytecode.STORE:
				return fop{op: fLGBinS, a: a.A, b: b.A, c: int32(c.Op), d: d.A}, 4
			case b.Op == bytecode.LOAD && intCmpOp(c.Op) && d.Op == bytecode.JNZ:
				return fop{op: fLLCmpJnz, a: a.A, b: b.A, c: int32(c.Op), d: d.A}, 4
			case b.Op == bytecode.GLOAD && intCmpOp(c.Op) && d.Op == bytecode.JNZ:
				return fop{op: fLGCmpJnz, a: a.A, b: b.A, c: int32(c.Op), d: d.A}, 4
			case b.Op == bytecode.IPUSH && intCmpOp(c.Op) && d.Op == bytecode.JNZ:
				return fop{op: fLICmpJnz, a: a.A, b: b.A, c: int32(c.Op), d: d.A}, 4
			}
		}
	}
	if len(in) >= 3 {
		a, b, c := in[0], in[1], in[2]
		switch {
		case a.Op == bytecode.LOAD && b.Op == bytecode.LOAD && intBinOp(c.Op):
			return fop{op: fLLBin, a: a.A, b: b.A, c: int32(c.Op)}, 3
		case a.Op == bytecode.LOAD && b.Op == bytecode.IPUSH && intBinOp(c.Op):
			return fop{op: fLIBin, a: a.A, b: b.A, c: int32(c.Op)}, 3
		case a.Op == bytecode.LOAD && b.Op == bytecode.GLOAD && intBinOp(c.Op):
			return fop{op: fLGBin, a: a.A, b: b.A, c: int32(c.Op)}, 3
		case a.Op == bytecode.GLOAD && b.Op == bytecode.LOAD && c.Op == bytecode.ALOAD:
			return fop{op: fGALoad, a: a.A, b: b.A}, 3
		case a.Op == bytecode.IPUSH && intCmpOp(b.Op) && c.Op == bytecode.JNZ:
			return fop{op: fICmpJnz, a: a.A, b: c.A, c: int32(b.Op)}, 3
		}
	}
	if len(in) >= 2 {
		a, b := in[0], in[1]
		switch {
		case a.Op == bytecode.LOAD && b.Op == bytecode.STORE:
			return fop{op: fMove, a: a.A, b: b.A}, 2
		case a.Op == bytecode.GLOAD && b.Op == bytecode.STORE:
			return fop{op: fGMove, a: a.A, b: b.A}, 2
		case a.Op == bytecode.IPUSH && b.Op == bytecode.STORE:
			return fop{op: fIStore, a: b.A, b: a.A}, 2
		case a.Op == bytecode.CONST && b.Op == bytecode.STORE:
			return fop{op: fCStore, a: b.A, b: a.A}, 2
		case a.Op == bytecode.IINC && b.Op == bytecode.JMP:
			return fop{op: fIncJmp, a: a.A, b: a.B, c: b.A}, 2
		case intCmpOp(a.Op) && b.Op == bytecode.JNZ:
			return fop{op: fCmpJnz, b: b.A, c: int32(a.Op)}, 2
		case a.Op == bytecode.LOAD && b.Op == bytecode.JNZ:
			return fop{op: fLJnz, a: a.A, b: b.A}, 2
		}
	}
	return fop{}, 0
}
