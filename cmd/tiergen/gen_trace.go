package main

import (
	"fmt"
	"strings"

	"evolvevm/internal/opspec"
)

// genTraceRun emits internal/interp/trace_run_gen.go: Engine.runTrace,
// the register tier's interpreter. The tier scaffolding — iteration
// charge, forward skips, exits, links — is spliced in verbatim from the
// templates in gen_trace_tmpl.go. The switch has one arm per register
// opcode: the structural arms from the template table, one arm per
// operator form of regForms generated from the spec, and one per fused
// pair (gen_pairs.go), joined from its two components' arms.
func genTraceRun(table []opspec.Op) string {
	var b strings.Builder
	b.WriteString(traceTop)
	for _, a := range regArms(table) {
		fmt.Fprintf(&b, "case %s:\n%s\n", a.name, expandArm(a.body))
	}
	for _, f := range pairForms(table) {
		fmt.Fprintf(&b, "case %s:\n%s\n", f.name, expandArm(f.body))
	}
	b.WriteString(traceBottom)
	return interpFile(b.String())
}

// namedArm is the arm body of one register opcode.
type namedArm struct {
	name, body string
}

// An arm body names the instruction fields it reads as placeholders:
// {d}, {a}, {b}, {c} and {e} the registers, {imm} the immediate, {x} the
// exit or trap index, and {y} a fused form's second immediate or index.
// An operator or structural arm reads no {e} or {y}; a fused form's body
// names its slots, so it reads like any other arm when a pair rule takes
// it as a component. armFields lists them.
var armFields = []string{"d", "a", "b", "c", "e", "imm", "x", "y"}

// slotExpr reads each slot of the dispatched instruction (rins,
// regir.go): a register number, or an int32 for the immediate, the
// uint16 index x, and a fused form's second immediate or index y.
var slotExpr = map[string]string{
	"d": "in.d", "a": "in.a", "b": "in.b", "c": "in.c", "e": "in.e", "imm": "in.imm", "x": "int32(in.x)", "y": "in.y",
}

// bindArm renames an arm body's placeholders: field f becomes slot at[f],
// or stays itself when at has none.
func bindArm(body string, at map[string]string) string {
	var kv []string
	for _, f := range armFields {
		if at[f] != "" {
			kv = append(kv, "{"+f+"}", "{"+at[f]+"}")
		}
	}
	return strings.NewReplacer(kv...).Replace(body)
}

// expandArm turns an arm body's placeholders into reads of the
// dispatched instruction's slots.
func expandArm(body string) string {
	var kv []string
	for _, f := range armFields {
		kv = append(kv, "{"+f+"}", slotExpr[f])
	}
	return strings.NewReplacer(kv...).Replace(body)
}

// usedFields lists the fields an arm body reads, in armFields order.
func usedFields(body string) []string {
	var fs []string
	for _, f := range armFields {
		if strings.Contains(body, "{"+f+"}") {
			fs = append(fs, f)
		}
	}
	return fs
}

// regArms lists the arm of every unfused register opcode in opcode
// order: the structural arms, then the operator forms.
func regArms(table []opspec.Op) []namedArm {
	arms := append([]namedArm(nil), structArms...)
	for _, f := range regForms(table) {
		arms = append(arms, namedArm{f.name, regArm(f)})
	}
	return arms
}

// regArm returns the arm body of one generated operator form, which
// dispatches once straight to its scalar expression or kernel.
func regArm(f regForm) string {
	o := f.op
	if kernelOp(o) {
		regs := []string{"regs[{a}]", "regs[{b}]", "regs[{c}]"}[:o.Pops]
		return fmt.Sprintf("regs[{d}] = sem%s(%s)", o.Enum, strings.Join(regs, ", "))
	}
	gi, ok := groupInfos[o.Group]
	if !ok {
		fail("unknown scalar group %q", o.Group)
	}
	operands := fmt.Sprintf("a, b := regs[{a}]%s, regs[{b}]%s", gi.access, gi.access)
	if f.kind == formRI || f.kind == formExitI {
		operands = fmt.Sprintf("a, b := regs[{a}]%s, int64({imm})", gi.access)
	}
	switch f.kind {
	case formK:
		return fmt.Sprintf("regs[{d}] = %s(tr.divs[{imm}].%s(regs[{a}]%s))", gi.wrap, divForm(o), gi.access)
	case formExit, formExitI:
		cond := o.Scalar
		if !f.sense {
			cond = "!(" + cond + ")"
		}
		return fmt.Sprintf("if %s; %s {\nx = {x}\nbreak body\n}", operands, cond)
	}
	var b strings.Builder
	b.WriteString(operands + "\n")
	for _, t := range o.Traps {
		fmt.Fprintf(&b, "if %s {\nreturn e.traceTrap(tr, tc, {x}, regs, locals, lb, stack, workP, cycP, %q)\n}\n",
			t.Cond, t.Msg)
	}
	fmt.Fprintf(&b, "regs[{d}] = %s(%s)", gi.wrap, o.Scalar)
	return b.String()
}
