// Command expdriver regenerates the paper's evaluation artifacts — Table
// I, Figures 8, 9 and 10, the overhead analysis, the sensitivity study —
// plus this reproduction's ablations. See DESIGN.md for the experiment
// index and EXPERIMENTS.md for recorded results.
//
// Usage:
//
//	expdriver -exp all
//	expdriver -exp table1 -seed 7
//	expdriver -exp fig8 -bench mtrt,raytracer -runs 40
//	expdriver -exp fig10 -quick
//	expdriver -exp all -checkpoint state.json -timeout 30s   # interruptible
//	expdriver -exp all -checkpoint state.json -resume state.json
//
// With -checkpoint, completed work units are saved — also when the run is
// interrupted by -timeout or fails — and -resume replays them instead of
// recomputing, with bit-identical output (see DESIGN.md §8).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"evolvevm/internal/exec"
	"evolvevm/internal/harness"
	"evolvevm/internal/interp"
	"evolvevm/internal/sched"
	"evolvevm/internal/session"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, w, werr io.Writer) int {
	fs := flag.NewFlagSet("expdriver", flag.ContinueOnError)
	fs.SetOutput(werr)
	var (
		exp          = fs.String("exp", "all", "experiment: table1|fig8|fig9|fig10|overhead|sensitivity|ablation|gc|all")
		seed         = fs.Int64("seed", 1, "corpus and arrival-order seed")
		runs         = fs.Int("runs", 0, "runs per benchmark (0 = paper defaults)")
		corpus       = fs.Int("corpus", 0, "inputs per benchmark (0 = paper defaults)")
		quick        = fs.Bool("quick", false, "shrink corpora and sequences")
		parallel     = fs.Bool("parallel", true, "run independent work units concurrently")
		workers      = fs.Int("workers", 0, "scheduler worker count (0 = derive from -parallel)")
		benches      = fs.String("bench", "", "comma-separated benchmark filter")
		checkpoint   = fs.String("checkpoint", "", "save completed work units to this file (also on failure/timeout)")
		resume       = fs.String("resume", "", "replay completed work units from this checkpoint file")
		timeout      = fs.Duration("timeout", 0, "abort in-flight runs after this long (0 = no deadline)")
		cpuprofile   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = fs.String("memprofile", "", "write a heap profile to this file on exit")
		mutexprofile = fs.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
		blockprofile = fs.String("blockprofile", "", "write a goroutine-blocking profile to this file on exit")
		tracestats   = fs.Bool("tracestats", false, "print register-trace tier counters (builds, degradations, entries, exits, deopts) and plan-install races to stderr on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuprofile != "" || *memprofile != "" {
		// Label runs and scheduler tasks so the profile attributes time by
		// experiment work unit, program, and controller. Labels allocate per
		// run, so they stay off unless a profile was asked for.
		exec.ProfileLabels = true
		sched.ProfileLabels = true
	}
	stopProfiles := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(werr, "expdriver: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(werr, "expdriver: -cpuprofile: %v\n", err)
			return 1
		}
		stopProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if *memprofile != "" {
		stopCPU := stopProfiles
		stopProfiles = func() {
			stopCPU()
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(werr, "expdriver: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(werr, "expdriver: -memprofile: %v\n", err)
			}
		}
	}
	if *mutexprofile != "" {
		// Fraction 1 samples every contention event — the profile is for
		// finding which locks serialize the run, not for low-overhead
		// production monitoring.
		runtime.SetMutexProfileFraction(1)
		prev := stopProfiles
		stopProfiles = func() {
			prev()
			writeLookupProfile(werr, "mutex", *mutexprofile)
		}
	}
	if *blockprofile != "" {
		runtime.SetBlockProfileRate(1)
		prev := stopProfiles
		stopProfiles = func() {
			prev()
			writeLookupProfile(werr, "block", *blockprofile)
		}
	}
	defer stopProfiles()

	sess := session.New()
	if *resume != "" {
		loaded, err := session.LoadFile(*resume)
		if err != nil {
			fmt.Fprintf(werr, "expdriver: -resume: %v\n", err)
			return 1
		}
		sess = loaded
	}

	opts := harness.Options{
		Seed:     *seed,
		Runs:     *runs,
		Corpus:   *corpus,
		Quick:    *quick,
		Parallel: *parallel,
		Workers:  *workers,
		Session:  sess,
	}
	if *benches != "" {
		opts.Benchmarks = strings.Split(*benches, ",")
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Completed work units survive a failed or timed-out run: saving the
	// checkpoint on the error path is what makes -resume useful.
	saveCheckpoint := func() {
		if *checkpoint == "" {
			return
		}
		if err := sess.SaveFile(*checkpoint); err != nil {
			fmt.Fprintf(werr, "expdriver: -checkpoint: %v\n", err)
		}
	}

	experiments := []struct {
		flag, title string
		run         func() error
	}{
		{"table1", "Table I", func() error { _, err := harness.Table1(ctx, w, opts); return err }},
		{"fig8", "Figure 8", func() error { _, err := harness.Figure8(ctx, w, opts); return err }},
		{"fig9", "Figure 9", func() error { _, err := harness.Figure9(ctx, w, opts); return err }},
		{"fig10", "Figure 10", func() error { _, err := harness.Figure10(ctx, w, opts); return err }},
		{"overhead", "Overhead", func() error { _, err := harness.Overhead(ctx, w, opts); return err }},
		{"sensitivity", "Sensitivity", func() error { _, err := harness.Sensitivity(ctx, w, opts); return err }},
		{"ablation", "Ablation", func() error { _, err := harness.Ablation(ctx, w, opts); return err }},
		{"gc", "GC selection", func() error { _, err := harness.GCSelection(ctx, w, opts); return err }},
	}

	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.flag {
			continue
		}
		ran = true
		fmt.Fprintf(w, "\n================ %s ================\n", e.title)
		if err := e.run(); err != nil {
			saveCheckpoint()
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				fmt.Fprintf(werr, "expdriver: %s: deadline exceeded: %v\n", e.title, err)
			case errors.Is(err, context.Canceled):
				fmt.Fprintf(werr, "expdriver: %s: canceled: %v\n", e.title, err)
			default:
				fmt.Fprintf(werr, "expdriver: %s: %v\n", e.title, err)
			}
			return 1
		}
	}
	if !ran {
		fmt.Fprintf(werr, "expdriver: unknown experiment %q\n", *exp)
		return 2
	}
	saveCheckpoint()
	if *tracestats {
		printTraceStats(werr)
	}
	return 0
}

// writeLookupProfile dumps one of the runtime's named profiles ("mutex",
// "block") to path.
func writeLookupProfile(werr io.Writer, name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(werr, "expdriver: -%sprofile: %v\n", name, err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(werr, "expdriver: -%sprofile: %v\n", name, err)
	}
}

// printTraceStats reports the process-global register-trace counters and
// plan-install races. They go to stderr: experiment output on stdout must
// stay byte-stable across serial and parallel schedules, and host-side
// trace activity is schedule-dependent diagnostics, not a virtual
// observable.
func printTraceStats(werr io.Writer) {
	st := interp.ReadTraceStats()
	fmt.Fprintf(werr, "trace tier: built=%d head_entries=%d side_exits=%d traps=%d stress_deopts=%d\n",
		st.Built, st.HeadEntries, st.SideExits, st.Traps, st.Deopts)
	if len(st.Degrade) == 0 {
		fmt.Fprintf(werr, "trace tier: no degradations\n")
	}
	reasons := make([]string, 0, len(st.Degrade))
	for r := range st.Degrade {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(werr, "trace tier: degraded %s=%d\n", r, st.Degrade[r])
	}
	pi := interp.ReadPlanInstallStats()
	fmt.Fprintf(werr, "plan installs: lost_plans=%d lost_traces=%d\n", pi.LostPlans, pi.LostTraces)
}
