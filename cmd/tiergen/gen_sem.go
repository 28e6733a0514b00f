package main

import (
	"fmt"
	"strings"

	"evolvevm/internal/opspec"
)

// genSem emits internal/interp/sem_gen.go: the integer group helpers the
// fused tier's superinstructions and the register-tier converter's
// constant folds call (intBin, intCmp), the semantic kernels of the pure
// ops outside any scalar group, and the kernel tables the converter folds
// through. Every other use of a scalar group splices the spec expression
// into its own arm.
func genSem(table []opspec.Op) string {
	var b strings.Builder
	b.WriteString("// The semantic core of the instruction set: every tier's arithmetic\n")
	b.WriteString("// routes through the helpers and kernels below, so the spec's scalar\n")
	b.WriteString("// expressions are the single definition of each op's value behavior.\n\n")

	genGroupFn(&b, table, "intbin", "intBin", "int64", "int64",
		"// intBin applies a non-trapping integer binop, mirroring the accounted\n// interpreter case by case.\n")
	genGroupFn(&b, table, "intcmp", "intCmp", "int64", "bool",
		"// intCmp applies an integer comparison, mirroring the accounted\n// interpreter case by case.\n")

	// Kernels for the pure ops outside any scalar group.
	for _, o := range table {
		if !kernelOp(o) {
			continue
		}
		fmt.Fprintf(&b, "// sem%s is the semantic kernel of %s.\n", o.Enum, o.Name)
		fmt.Fprintf(&b, "func sem%s(%s) bytecode.Value {\n", o.Enum, kernelParams(o.Pops))
		if o.KernelStmts {
			for _, line := range strings.Split(o.Kernel, "\n") {
				b.WriteString("\t" + line + "\n")
			}
		} else {
			fmt.Fprintf(&b, "\treturn %s\n", o.Kernel)
		}
		b.WriteString("}\n\n")
	}

	// Kernel dispatch tables, indexed by opcode and split by arity; the
	// register-tier converter folds constant operands through them.
	for arity := 1; arity <= 3; arity++ {
		fmt.Fprintf(&b, "// semTab%d maps each %d-operand kernel op to its kernel.\n", arity, arity)
		fmt.Fprintf(&b, "var semTab%d = [bytecode.NumOps]func(%s) bytecode.Value{\n",
			arity, strings.TrimSuffix(strings.Repeat("bytecode.Value, ", arity), ", "))
		for _, o := range table {
			if kernelOp(o) && o.Pops == arity {
				fmt.Fprintf(&b, "\tbytecode.%s: sem%s,\n", o.Enum, o.Enum)
			}
		}
		b.WriteString("}\n\n")
	}

	return interpFile(b.String())
}

// kernelOp reports whether o gets a standalone semantic kernel: a pure op
// whose semantics are a Kernel expression rather than a scalar group.
func kernelOp(o opspec.Op) bool {
	return o.Class == opspec.Pure && o.Group == "" && o.Kernel != ""
}

// kernelParams renders the kernel parameter list for the given arity:
// "v0, v1, v2 bytecode.Value".
func kernelParams(arity int) string {
	var names []string
	for i := 0; i < arity; i++ {
		names = append(names, fmt.Sprintf("v%d", i))
	}
	return strings.Join(names, ", ") + " bytecode.Value"
}

// genGroupFn emits one scalar-group helper: a switch over the group's
// non-trapping members returning each spec Scalar expression, with the
// last member as the default arm.
func genGroupFn(b *strings.Builder, table []opspec.Op, group, fname, argT, retT, doc string) {
	var members []opspec.Op
	for _, o := range table {
		if o.Group == group && !o.CanTrap() {
			members = append(members, o)
		}
	}
	b.WriteString(doc)
	fmt.Fprintf(b, "func %s(op bytecode.Op, a, b %s) %s {\n\tswitch op {\n", fname, argT, retT)
	for i, o := range members {
		if i == len(members)-1 {
			fmt.Fprintf(b, "\tdefault: // %s\n\t\treturn %s\n", o.Enum, o.Scalar)
		} else {
			fmt.Fprintf(b, "\tcase bytecode.%s:\n\t\treturn %s\n", o.Enum, o.Scalar)
		}
	}
	b.WriteString("\t}\n}\n\n")
}

// interpFile wraps a generated body in the interp package clause with
// exactly the imports the body uses.
func interpFile(body string) string {
	var b strings.Builder
	b.WriteString(header)
	b.WriteString("package interp\n\n")
	var imps []string
	for _, std := range []string{"fmt", "math", "sync"} {
		if strings.Contains(body, std+".") {
			imps = append(imps, "\""+std+"\"")
		}
	}
	if strings.Contains(body, "bytecode.") {
		imps = append(imps, "\n\"evolvevm/internal/bytecode\"")
	}
	if strings.Contains(body, "gc.") {
		imps = append(imps, "\"evolvevm/internal/gc\"")
	}
	if len(imps) > 0 {
		fmt.Fprintf(&b, "import (\n\t%s\n)\n\n", strings.Join(imps, "\n\t"))
	}
	b.WriteString(body)
	return b.String()
}
