// Command tiergen generates the three-tier interpreter stack from the
// single declarative op specification in internal/opspec.
//
// One spec entry per opcode — mnemonic, stack effect, operand kind,
// cycle cost, semantics expression, trap clauses — is expanded into:
//
//   - internal/bytecode/ops_gen.go: opcode constants, the static metadata
//     table behind the assembler/disassembler/verifier, control-flow
//     predicate flags, and the baseline cycle-cost table;
//   - internal/interp/sem_gen.go: the per-op semantic kernels, the
//     integer helpers (intBin, intCmp) of the fused superinstructions and
//     the register-tier converter's constant folds, and the kernel tables
//     the converter folds through;
//   - internal/interp/fuse_gen.go: the fusion-legality classification of
//     every opcode (interior / trapping / branch) and the op→group map;
//   - internal/interp/engine_run_gen.go: Engine.Run — the accounted
//     per-instruction switch and the fused plan's micro-op switch, with
//     per-op arms generated from the spec and the tier scaffolding
//     (frame handling, sampling, trace entry) spliced in from templates;
//   - internal/interp/regir_gen.go: the register-IR lowering table of the
//     trace tier, the opcodes of its operator forms, and the fused pair
//     opcodes with the converter's fusePair and splitPair (gen_pairs.go);
//   - internal/interp/trace_run_gen.go: Engine.runTrace — the register
//     tier's interpreter, with one generated arm per operator form
//     (register, immediate, by-constant reciprocal, compare-and-exit),
//     one per fused pair joined from its components' arms, and the trace
//     scaffolding (charges, skips, exits, links) spliced in from
//     templates.
//
// The generated files are committed; regenerate with `go generate ./...`.
// CI regenerates and fails on drift, so hand edits to generated files
// cannot land silently. Adding an opcode is a spec-only change: append an
// entry to internal/opspec and regenerate — all three tiers, the
// assembler, the verifier, and the cost ledgers pick it up.
package main

import (
	"flag"
	"fmt"
	"go/format"
	"os"
	"path/filepath"

	"evolvevm/internal/opspec"
)

func main() {
	root := flag.String("root", ".", "repository root (module root) to write generated files under")
	check := flag.Bool("check", false, "verify generated files are up to date; exit 1 on drift, write nothing")
	flag.Parse()

	if errs := opspec.Validate(opspec.Table); len(errs) > 0 {
		for _, err := range errs {
			fmt.Fprintln(os.Stderr, "tiergen:", err)
		}
		os.Exit(1)
	}

	files := GeneratedFiles(opspec.Table)
	drift := false
	for _, f := range files {
		path := filepath.Join(*root, f.Path)
		src, err := format.Source([]byte(f.Content))
		if err != nil {
			fmt.Fprintf(os.Stderr, "tiergen: %s: generated code does not parse: %v\n", f.Path, err)
			fmt.Fprintln(os.Stderr, f.Content)
			os.Exit(1)
		}
		old, readErr := os.ReadFile(path)
		if readErr == nil && string(old) == string(src) {
			continue
		}
		if *check {
			fmt.Fprintf(os.Stderr, "tiergen: %s is out of date (regenerate with `go generate ./...`)\n", f.Path)
			drift = true
			continue
		}
		if err := os.WriteFile(path, src, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "tiergen:", err)
			os.Exit(1)
		}
		fmt.Println("tiergen: wrote", f.Path)
	}
	if drift {
		os.Exit(1)
	}
}

// File is one generated output: a module-relative path and its unformatted
// Go source.
type File struct {
	Path    string
	Content string
}

// GeneratedFiles expands the spec table into every generated source file.
// Exposed (within the command) for the round-trip tests.
func GeneratedFiles(table []opspec.Op) []File {
	return []File{
		{Path: "internal/bytecode/ops_gen.go", Content: genBytecode(table)},
		{Path: "internal/interp/sem_gen.go", Content: genSem(table)},
		{Path: "internal/interp/fuse_gen.go", Content: genFuse(table)},
		{Path: "internal/interp/engine_run_gen.go", Content: genEngineRun(table)},
		{Path: "internal/interp/regir_gen.go", Content: genRegir(table)},
		{Path: "internal/interp/trace_run_gen.go", Content: genTraceRun(table)},
	}
}

const header = "// Code generated by cmd/tiergen from internal/opspec. DO NOT EDIT.\n\n"
