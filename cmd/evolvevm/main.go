// Command evolvevm runs a benchmark program on the virtual machine under
// a chosen optimization scenario, optionally persisting the evolvable
// VM's learned state between invocations.
//
// Usage:
//
//	evolvevm -list
//	evolvevm -program mtrt -scenario evolve -runs 20
//	evolvevm -program compress -scenario default -runs 5 -v
//	evolvevm -program mtrt -scenario evolve -runs 10 -state mtrt.model
//	evolvevm -asm prog.asm -g n=5000 -g mode=1       # run your own program
//
// Serving subcommands (see cmd/evolvevm/serve.go):
//
//	evolvevm serve -addr :8347 -benches compress,search -record trace.json
//	evolvevm replay -trace trace.json
//	evolvevm loadtest -requests 2000 -tenants 8 -cold newbie -compare
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"evolvevm/internal/aos"
	"evolvevm/internal/bytecode"
	"evolvevm/internal/harness"
	"evolvevm/internal/jit"
	"evolvevm/internal/opt"
	"evolvevm/internal/programs"
	"evolvevm/internal/stats"
	"evolvevm/internal/vm"
)

// globalFlags collects repeated -g name=value assignments.
type globalFlags map[string]bytecode.Value

func (g globalFlags) String() string { return fmt.Sprint(map[string]bytecode.Value(g)) }

func (g globalFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want name=value, got %q", s)
	}
	if strings.ContainsAny(val, ".eE") {
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return err
		}
		g[name] = bytecode.Float(f)
		return nil
	}
	n, err := strconv.ParseInt(val, 0, 64)
	if err != nil {
		return err
	}
	g[name] = bytecode.Int(n)
	return nil
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			runServe(os.Args[2:])
			return
		case "replay":
			runReplay(os.Args[2:])
			return
		case "loadtest":
			runLoadTest(os.Args[2:])
			return
		}
	}
	var (
		list     = flag.Bool("list", false, "list available programs")
		progName = flag.String("program", "", "benchmark program to run")
		scenario = flag.String("scenario", "evolve", "default|rep|evolve|null")
		runs     = flag.Int("runs", 10, "number of production runs to simulate")
		corpus   = flag.Int("corpus", 0, "input corpus size (0 = program default)")
		seed     = flag.Int64("seed", 1, "corpus and arrival-order seed")
		state    = flag.String("state", "", "persist the learned cross-run state (models, repository) in this file")
		timeout  = flag.Duration("timeout", 0, "abort in-flight runs after this long (0 = no deadline)")
		verbose  = flag.Bool("v", false, "print per-method levels after each run")
		feedback = flag.Bool("feedback", false, "after the runs, print XICL spec feedback (paper §VI)")
		asmPath  = flag.String("asm", "", "run an assembly file instead of a bundled program")
		dump     = flag.Int("dump", -2, "with -asm: disassemble every function at this optimization level (-1..2) instead of running")
	)
	globals := globalFlags{}
	flag.Var(globals, "g", "global assignment name=value for -asm (repeatable)")
	flag.Parse()

	if *asmPath != "" {
		if *dump >= -1 {
			dumpAsm(*asmPath, *dump)
			return
		}
		runAsm(*asmPath, *scenario, globals, *verbose)
		return
	}

	if *list {
		fmt.Println("program     suite      inputs  input-sensitive")
		for _, b := range append(programs.All(), programs.Extensions()...) {
			fmt.Printf("%-11s %-10s %6d  %v\n", b.Name, b.Suite, b.DefaultCorpusSize, b.InputSensitive)
		}
		return
	}

	b := programs.ByName(*progName)
	if b == nil {
		fmt.Fprintf(os.Stderr, "evolvevm: unknown program %q (try -list)\n", *progName)
		os.Exit(2)
	}
	var sc harness.Scenario
	switch *scenario {
	case "default":
		sc = harness.ScenarioDefault
	case "rep":
		sc = harness.ScenarioRep
	case "evolve":
		sc = harness.ScenarioEvolve
	case "null":
		sc = harness.ScenarioNull
	default:
		fmt.Fprintf(os.Stderr, "evolvevm: unknown scenario %q\n", *scenario)
		os.Exit(2)
	}

	r, err := harness.NewRunner(b, *corpus, *seed)
	if err != nil {
		fatal(err)
	}
	if *state != "" {
		if blob, err := os.ReadFile(*state); err == nil {
			if err := r.State.Restore(json.RawMessage(blob)); err != nil {
				fatal(err)
			}
			fmt.Printf("loaded state: %d prior runs, confidence %.3f\n",
				r.Evolver().Runs(), r.Evolver().Confidence())
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	order := r.Order(stats.Stream(*seed, "cli", "order"), *runs)
	fmt.Printf("%-4s %-28s %12s %8s", "run", "input", "cycles", "speedup")
	if sc == harness.ScenarioEvolve {
		fmt.Printf(" %6s %6s %5s", "conf", "acc", "pred")
	}
	fmt.Println()
	for i, idx := range order {
		res, err := r.RunOne(ctx, sc, r.Inputs[idx])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-4d %-28s %12d %8.3f", i+1, res.InputID, res.Cycles, res.Speedup)
		if res.Evolve != nil {
			fmt.Printf(" %6.3f %6.3f %5v", res.Evolve.Confidence, res.Evolve.Accuracy,
				res.Evolve.Predicted)
		}
		fmt.Println()
		if *verbose {
			for fn, level := range res.Levels {
				if level >= 0 {
					fmt.Printf("     %-20s level %d\n", r.Prog.Funcs[fn].Name, level)
				}
			}
		}
	}

	if *feedback && sc == harness.ScenarioEvolve {
		vec, _, err := r.Features(r.Inputs[0])
		if err != nil {
			fatal(err)
		}
		fmt.Print(r.Evolver().Feedback(vec.Names()))
	}

	if *state != "" && (sc == harness.ScenarioEvolve || sc == harness.ScenarioRep) {
		blob, err := r.State.Snapshot()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*state, blob, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("saved state: %d runs, confidence %.3f -> %s\n",
			r.Evolver().Runs(), r.Evolver().Confidence(), *state)
	}
}

// dumpAsm shows what the optimizer does to a program at one level — a
// compiler-explorer view of the tiers.
func dumpAsm(path string, level int) {
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	prog, err := bytecode.Assemble(path, string(src))
	if err != nil {
		fatal(err)
	}
	for idx, f := range prog.Funcs {
		if level < 0 {
			fmt.Printf("; %s at baseline (level -1)\n%s\n", f.Name, bytecode.Disassemble(prog, f))
			continue
		}
		g, res, err := opt.Optimize(prog, idx, level)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("; %s at O%d: %d -> %d instrs, compile %d cycles, passes hit: %v\n%s\n",
			f.Name, level, res.InInstrs, res.OutInstrs, res.Cycles, res.PassesHit,
			bytecode.Disassemble(prog, g))
	}
}

// runAsm executes a user-supplied assembly program once under the chosen
// controller, reporting cycles, compiles, and per-method outcomes.
func runAsm(path, scenario string, globals globalFlags, verbose bool) {
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	prog, err := bytecode.Assemble(path, string(src))
	if err != nil {
		fatal(err)
	}
	var ctrl vm.Controller
	switch scenario {
	case "default", "evolve", "rep":
		// Without an XICL spec and cross-run state, the evolvable and
		// repository VMs behave like the default reactive one.
		ctrl = aos.NewReactive()
	case "null":
		ctrl = vm.NullController{}
	default:
		fatal(fmt.Errorf("unknown scenario %q", scenario))
	}
	m := vm.New(prog, jit.DefaultConfig(), ctrl)
	for name, v := range globals {
		if err := m.Engine.SetGlobal(name, v); err != nil {
			fatal(err)
		}
	}
	result, err := m.Run()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("result         = %v\n", result)
	fmt.Printf("total cycles   = %d\n", m.TotalCycles())
	fmt.Printf("compile cycles = %d (%d recompilations)\n", m.CompileCycles, m.Recompilations)
	for _, out := range m.Engine.Output {
		fmt.Printf("output: %v\n", out)
	}
	if verbose {
		fmt.Printf("%-20s %6s %12s %10s %14s\n", "method", "level", "invocations", "samples", "work")
		for fn, f := range prog.Funcs {
			fmt.Printf("%-20s %6d %12d %10d %14d\n",
				f.Name, m.Level(fn), m.Engine.Invocations[fn], m.Samples[fn], m.Engine.Work[fn])
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "evolvevm: %v\n", err)
	os.Exit(1)
}
