package main

import (
	"fmt"
	"strings"

	"evolvevm/internal/opspec"
)

// genTraceRun emits internal/interp/trace_run_gen.go: Engine.runTrace,
// the register tier's interpreter. The tier scaffolding — iteration
// charge, forward skips, exits, links, traps, and the structural register
// ops — is spliced in verbatim from the templates in
// gen_trace_tmpl.go; the operator arms are generated from the spec, one
// per opcode of regForms, so each dispatches once straight to its scalar
// expression or kernel.
func genTraceRun(table []opspec.Op) string {
	var b strings.Builder
	b.WriteString(traceTop)
	for _, f := range regForms(table) {
		emitRegArm(&b, f)
	}
	b.WriteString(traceBottom)
	return interpFile(b.String())
}

// emitRegArm emits the case arm of one generated register opcode.
func emitRegArm(b *strings.Builder, f regForm) {
	o := f.op
	fmt.Fprintf(b, "case %s:\n", f.name)
	if kernelOp(o) {
		regs := []string{"regs[in.a]", "regs[in.b]", "regs[in.c]"}[:o.Pops]
		fmt.Fprintf(b, "regs[in.d] = sem%s(%s)\n", o.Enum, strings.Join(regs, ", "))
		return
	}
	gi, ok := groupInfos[o.Group]
	if !ok {
		fail("unknown scalar group %q", o.Group)
	}
	operands := fmt.Sprintf("a, b := regs[in.a]%s, regs[in.b]%s", gi.access, gi.access)
	if f.kind == formRI || f.kind == formExitI {
		operands = fmt.Sprintf("a, b := regs[in.a]%s, int64(in.imm)", gi.access)
	}
	switch f.kind {
	case formK:
		fmt.Fprintf(b, "regs[in.d] = %s(tr.divs[in.imm].%s(regs[in.a]%s))\n", gi.wrap, divForm(o), gi.access)
	case formExit, formExitI:
		cond := o.Scalar
		if !f.sense {
			cond = "!(" + cond + ")"
		}
		fmt.Fprintf(b, "if %s; %s {\nx = in.x\nbreak body\n}\n", operands, cond)
	default:
		b.WriteString(operands + "\n")
		for _, t := range o.Traps {
			fmt.Fprintf(b, "if %s {\nreturn e.traceTrap(tr, tc, in.x, regs, locals, lb, stack, workP, cycP, %q)\n}\n",
				t.Cond, t.Msg)
		}
		fmt.Fprintf(b, "regs[in.d] = %s(%s)\n", gi.wrap, o.Scalar)
	}
}
