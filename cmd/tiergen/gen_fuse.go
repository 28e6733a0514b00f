package main

import (
	"fmt"
	"strings"

	"evolvevm/internal/opspec"
)

// genFuse emits internal/interp/fuse_gen.go: the fusion-legality
// classification of every opcode and the op→scalar-group map. The segment
// builder (fuse.go) and the trace converter's lowering rules consult these
// tables instead of hand-maintained opcode lists, so a new spec entry is
// classified — and admitted into batched segments — automatically.
func genFuse(table []opspec.Op) string {
	var b strings.Builder

	b.WriteString("// segClass is an opcode's fusion-legality class, derived from the spec:\n")
	b.WriteString("// branches may terminate a segment; control transfers, allocating ops,\n")
	b.WriteString("// and anything else that can touch the sampler or the GC stay on the\n")
	b.WriteString("// accounted path (segNone); trapping-but-allocation-free ops are\n")
	b.WriteString("// admitted with suffix-charge rollback (segTrapping); everything else\n")
	b.WriteString("// is freely batchable (segInterior).\n")
	b.WriteString("type segClass uint8\n\n")
	b.WriteString("const (\n")
	b.WriteString("\tsegNone segClass = iota // accounted path only\n")
	b.WriteString("\tsegInterior             // batchable, cannot trap or branch\n")
	b.WriteString("\tsegTrapping             // batchable with trap rollback data\n")
	b.WriteString("\tsegBranch               // may terminate a segment\n")
	b.WriteString(")\n\n")

	b.WriteString("// opSegClass classifies every opcode for the segment builder.\n")
	b.WriteString("var opSegClass = [bytecode.NumOps]segClass{\n")
	for _, o := range table {
		if cls := segClassOf(o); cls != "" {
			fmt.Fprintf(&b, "\tbytecode.%s: %s,\n", o.Enum, cls)
		}
	}
	b.WriteString("}\n\n")

	b.WriteString("// opGroup is an opcode's scalar group in the spec: intbin, intcmp,\n")
	b.WriteString("// fltbin or fltcmp.\n")
	b.WriteString("type opGroup uint8\n\n")
	b.WriteString("const (\n")
	b.WriteString("\tgroupNone opGroup = iota\n")
	b.WriteString("\tgroupIntBin\n")
	b.WriteString("\tgroupIntCmp\n")
	b.WriteString("\tgroupFltBin\n")
	b.WriteString("\tgroupFltCmp\n")
	b.WriteString(")\n\n")

	b.WriteString("// opGroupOf maps every opcode to its scalar group.\n")
	b.WriteString("var opGroupOf = [bytecode.NumOps]opGroup{\n")
	for _, o := range table {
		if g := groupConst(o.Group); g != "" {
			fmt.Fprintf(&b, "\tbytecode.%s: %s,\n", o.Enum, g)
		}
	}
	b.WriteString("}\n")

	return interpFile(b.String())
}

// segClassOf derives an opcode's fusion-legality class from its spec
// entry. The empty string means segNone (omitted from the sparse table).
func segClassOf(o opspec.Op) string {
	switch {
	case o.Jump:
		return "segBranch"
	case o.Class == opspec.Control:
		// CALL, RET, HALT: frame and termination handling belongs to the
		// accounted loop.
		return ""
	case o.Alloc:
		// NEWARR charges size-scaled alloc cycles and can start a
		// collection; both belong on the accounted path.
		return ""
	case o.CanTrap():
		return "segTrapping"
	default:
		return "segInterior"
	}
}

// groupConst maps a spec group name to the generated opGroup constant.
func groupConst(group string) string {
	switch group {
	case "intbin":
		return "groupIntBin"
	case "intcmp":
		return "groupIntCmp"
	case "fltbin":
		return "groupFltBin"
	case "fltcmp":
		return "groupFltCmp"
	}
	return ""
}
