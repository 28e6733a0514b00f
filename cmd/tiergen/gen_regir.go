package main

import (
	"fmt"
	"strings"

	"evolvevm/internal/opspec"
)

// genRegir emits internal/interp/regir_gen.go: the register tier's
// lowering rules and operator opcodes. The stack-to-register converter's
// structural handling (symbolic stack, register allocation, exits,
// skips, hoisting) is scaffolding in regir.go; which register form each
// value op lowers to, and the opcodes of those forms, are derived from
// the spec here, so a spec-only opcode reaches the trace tier with no
// converter edits. So are the fused pair opcodes and the converter's
// fusePair and splitPair (gen_pairs.go). The arms that execute the
// opcodes are in trace_run_gen.go (genTraceRun).
func genRegir(table []opspec.Op) string {
	var b strings.Builder
	b.WriteString(regirTop)
	for _, o := range table {
		k := regLowerKindOf(o)
		if k == "" {
			continue
		}
		fmt.Fprintf(&b, "bytecode.%s: %s,\n", o.Enum, k)
	}
	b.WriteString("}\n\n")

	forms := regForms(table)
	b.WriteString(`// The operator opcodes of the register tier, one per spec op and
// operand form: rOP reads both operands (all of a kernel's) from
// registers, rOPi takes the second from imm, rOPk divides by the
// precomputed reciprocal divs[imm] of a nonzero constant, and the
// compare-and-exit forms rxOP/rxOPi (rxnOP/rxnOPi) take exit x when the
// comparison holds (fails). Value forms come first. The fused pair
// forms P_Q follow: one opcode for instruction P then instruction Q.
const (
`)
	for i, f := range forms {
		if i == 0 {
			fmt.Fprintf(&b, "%s rOp = rGen + iota // %s\n", f.name, f.doc())
		} else {
			fmt.Fprintf(&b, "%s // %s\n", f.name, f.doc())
		}
	}
	pairs := pairForms(table)
	for _, f := range pairs {
		fmt.Fprintf(&b, "%s // %s\n", f.name, f.doc())
	}
	b.WriteString("rNumOps // the number of register opcodes\n")
	for _, f := range forms {
		if f.kind == formExit || f.kind == formExitI {
			fmt.Fprintf(&b, "\nrGenExit = %s // the first compare-and-exit form\n", f.name)
			break
		}
	}
	b.WriteString(")\n\n")

	b.WriteString(`// regRR maps each operator to its register form.
var regRR = [bytecode.NumOps]rOp{
`)
	for _, f := range forms {
		if f.kind == formRR {
			fmt.Fprintf(&b, "bytecode.%s: %s,\n", f.op.Enum, f.name)
		}
	}
	b.WriteString(`}

// regRI maps each integer operator to its immediate form; for the
// trapping IDIV and IMOD that is the by-constant form.
var regRI = [bytecode.NumOps]rOp{
`)
	for _, f := range forms {
		if f.kind == formRI || f.kind == formK {
			fmt.Fprintf(&b, "bytecode.%s: %s,\n", f.op.Enum, f.name)
		}
	}
	b.WriteString(`}

// regBranch maps each comparison form to its compare-and-exit forms,
// indexed by the sense that exits: [0] when the comparison fails, [1]
// when it holds. Other opcodes map to zeros.
var regBranch = [rNumOps][2]rOp{
`)
	for _, f := range forms {
		if f.kind != formRR && f.kind != formRI || !isCmpGroup(f.op.Group) {
			continue
		}
		suffix := ""
		if f.kind == formRI {
			suffix = "i"
		}
		fmt.Fprintf(&b, "%s: {rxn%s%s, rx%s%s},\n", f.name, f.op.Enum, suffix, f.op.Enum, suffix)
	}
	b.WriteString("}\n")
	genOpNames(&b, table, pairs)
	genPairs(&b, pairs)
	return interpFile(b.String())
}

// genOpNames emits rOp.String: the name of every register opcode, the
// structural, operator and fused forms alike, so a trace test or dump
// names the opcode rather than its number.
func genOpNames(b *strings.Builder, table []opspec.Op, pairs []pairForm) {
	b.WriteString(`
// rOpNames names every register opcode.
var rOpNames = [rNumOps]string{
`)
	for _, a := range regArms(table) {
		fmt.Fprintf(b, "%s: %q,\n", a.name, a.name)
	}
	for _, f := range pairs {
		fmt.Fprintf(b, "%s: %q,\n", f.name, f.name)
	}
	b.WriteString(`}

// String returns the opcode's name, or its number past the last opcode.
func (o rOp) String() string {
	if o < rNumOps {
		return rOpNames[o]
	}
	return fmt.Sprintf("rOp(%d)", uint8(o))
}
`)
}

// regLowerKindOf classifies one op for the register tier, or "" for ops
// the converter's scaffolding handles (or refuses) by name.
func regLowerKindOf(o opspec.Op) string {
	switch {
	case o.Group == "intbin" && o.CanTrap():
		return "lowTrapBin"
	case o.Group == "intbin":
		return "lowIntBin"
	case o.Group == "intcmp":
		return "lowIntCmp"
	case o.Group == "fltbin":
		return "lowFltBin"
	case o.Group == "fltcmp":
		return "lowFltCmp"
	case o.Group != "":
		fail("scalar group %q has no register-tier lowering", o.Group)
	case kernelOp(o):
		if o.Pops < 1 || o.Pops > 3 {
			fail("kernel op %s pops %d values; the register tier lowers 1-3", o.Enum, o.Pops)
		}
		return fmt.Sprintf("lowPure%d", o.Pops)
	}
	if o.CanTrap() && o.Group != "" {
		fail("trapping op %s has no register-tier trap lowering", o.Enum)
	}
	return ""
}

// regFormKind is the operand shape of one generated register opcode.
type regFormKind int

const (
	formRR    regFormKind = iota // operands in registers a, b (kernels: a, b, c)
	formRI                       // second operand the int32 imm
	formK                        // divisor the nonzero constant with reciprocal divs[imm]
	formExit                     // compare registers a, b; exit x on the sense
	formExitI                    // compare register a with imm; exit x on the sense
)

// regForm is one generated register opcode: a spec op in one operand
// form (and, for compare-and-exit forms, the sense that exits).
type regForm struct {
	name  string
	op    opspec.Op
	kind  regFormKind
	sense bool
}

// doc is the opcode's one-line comment in the generated const block.
func (f regForm) doc() string {
	switch f.kind {
	case formRI:
		return f.op.Name + ", immediate imm"
	case formK:
		return f.op.Name + " by the constant with reciprocal divs[imm]"
	case formExit, formExitI:
		s := "holds"
		if !f.sense {
			s = "fails"
		}
		if f.kind == formExitI {
			return "exit x when " + f.op.Name + " with immediate imm " + s
		}
		return "exit x when " + f.op.Name + " " + s
	}
	if f.op.CanTrap() {
		return f.op.Name + ", trap x"
	}
	return f.op.Name
}

func isCmpGroup(group string) bool { return group == "intcmp" || group == "fltcmp" }

// regForms lists every generated register opcode in opcode order: the
// value forms of every grouped and kernel op in spec order, then the
// compare-and-exit forms of the comparisons.
func regForms(table []opspec.Op) []regForm {
	var forms []regForm
	for _, o := range table {
		if regLowerKindOf(o) == "" {
			continue
		}
		forms = append(forms, regForm{name: "r" + o.Enum, op: o, kind: formRR})
		switch {
		case o.Group == "intbin" && o.CanTrap():
			forms = append(forms, regForm{name: "r" + o.Enum + "k", op: o, kind: formK})
		case o.Group == "intbin" || o.Group == "intcmp":
			forms = append(forms, regForm{name: "r" + o.Enum + "i", op: o, kind: formRI})
		}
	}
	for _, o := range table {
		if !isCmpGroup(o.Group) {
			continue
		}
		for _, sense := range []bool{true, false} {
			prefix := "rx"
			if !sense {
				prefix = "rxn"
			}
			forms = append(forms, regForm{name: prefix + o.Enum, op: o, kind: formExit, sense: sense})
			if o.Group == "intcmp" {
				forms = append(forms, regForm{name: prefix + o.Enum + "i", op: o, kind: formExitI, sense: sense})
			}
		}
	}
	return forms
}

// divForm returns the rdiv method that computes a trapping integer op by
// a nonzero constant: the reciprocal identities hold for Go's truncated
// quotient and remainder exactly, so only those two scalars qualify.
func divForm(o opspec.Op) string {
	switch o.Scalar {
	case "a / b":
		return "quo"
	case "a % b":
		return "rem"
	}
	fail("trapping op %s (%q) has no by-constant register form", o.Enum, o.Scalar)
	return ""
}

const regirTop = `// regLowerKind classifies how the stack-to-register converter lowers a
// value op: scalar groups and kernels map to their generated register
// forms (integer groups with immediate forms and constant folding,
// trapping members with a trap record or, by a nonzero constant, a
// reciprocal), and comparisons fuse into compare-and-exit forms.
// lowPure1..3 are consecutive: the converter computes a kernel's arity as
// kind - lowPure1 + 1.
type regLowerKind uint8

const (
	lowNone    regLowerKind = iota // converter scaffolding handles (or refuses) by name
	lowIntBin                      // rOP/rOPi
	lowIntCmp                      // rOP/rOPi, fusible into rxOP/rxnOP(i)
	lowFltBin                      // rOP
	lowFltCmp                      // rOP, fusible into rxOP/rxnOP
	lowTrapBin                     // rOP with trap record, rOPk by a nonzero constant
	lowPure1                       // rOP: 1-operand kernel
	lowPure2                       // rOP: 2-operand kernel
	lowPure3                       // rOP: 3-operand kernel
)

// regLower maps every opcode to its lowering rule.
var regLower = [bytecode.NumOps]regLowerKind{
`
