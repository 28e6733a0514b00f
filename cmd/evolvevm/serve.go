package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"evolvevm/internal/harness"
	"evolvevm/internal/serve"
	"evolvevm/internal/traffic"
)

// profileFlags registers -mutexprofile/-blockprofile on the serving
// subcommands. start (call after Parse) enables sampling; stop writes
// the requested profiles on exit. They show which locks a loaded
// server's requests wait on.
func profileFlags(fs *flag.FlagSet) (start, stop func()) {
	var (
		mutexprofile = fs.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
		blockprofile = fs.String("blockprofile", "", "write a goroutine-blocking profile to this file on exit")
	)
	start = func() {
		if *mutexprofile != "" {
			// Fraction 1 samples every contention event — these runs are for
			// finding serializing locks, not low-overhead monitoring.
			runtime.SetMutexProfileFraction(1)
		}
		if *blockprofile != "" {
			runtime.SetBlockProfileRate(1)
		}
	}
	write := func(name, path string) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
			fatal(err)
		}
	}
	stop = func() {
		write("mutex", *mutexprofile)
		write("block", *blockprofile)
	}
	return start, stop
}

// serveScenario maps the -scenario flag shared by the serving
// subcommands.
func serveScenario(name string) (harness.Scenario, error) {
	switch name {
	case "default":
		return harness.ScenarioDefault, nil
	case "rep":
		return harness.ScenarioRep, nil
	case "evolve":
		return harness.ScenarioEvolve, nil
	case "null":
		return harness.ScenarioNull, nil
	}
	return 0, fmt.Errorf("unknown scenario %q", name)
}

// serverFlags registers the serve.Config flags shared by serve, replay,
// and loadtest, returning a filler that builds the config after Parse.
func serverFlags(fs *flag.FlagSet) func() (serve.Config, error) {
	var (
		workers   = fs.Int("workers", 0, "execution pool size (0 = GOMAXPROCS)")
		queue     = fs.Int("queue", 256, "admitted-request queue depth")
		tenantCap = fs.Int("tenant-cap", 0, "per-tenant in-flight cap (0 = unlimited)")
		epoch     = fs.Int("epoch", 32, "shared-tier publication cadence in sequence numbers")
		scenario  = fs.String("scenario", "evolve", "default|rep|evolve|null")
		seed      = fs.Int64("seed", 1, "corpus seed")
		corpus    = fs.Int("corpus", 0, "per-benchmark input corpus size (0 = default)")
		isolated  = fs.Bool("isolated", false, "disable the shared cross-tenant learning tier")
		benches   = fs.String("benches", "", "comma-separated benchmarks to serve (default: all)")
	)
	return func() (serve.Config, error) {
		sc, err := serveScenario(*scenario)
		if err != nil {
			return serve.Config{}, err
		}
		cfg := serve.Config{
			Workers:     *workers,
			QueueDepth:  *queue,
			TenantCap:   *tenantCap,
			EpochLength: *epoch,
			Scenario:    sc,
			Seed:        *seed,
			CorpusSize:  *corpus,
			Isolated:    *isolated,
		}
		if *benches != "" {
			cfg.Benches = strings.Split(*benches, ",")
		}
		return cfg, nil
	}
}

// runServe is `evolvevm serve`: a long-running multi-tenant HTTP front
// end. SIGINT/SIGTERM drains in-flight requests, optionally writing the
// recorded trace for later byte-identical replay.
func runServe(args []string) {
	fs := flag.NewFlagSet("evolvevm serve", flag.ExitOnError)
	addr := fs.String("addr", ":8347", "listen address")
	record := fs.String("record", "", "write the request/outcome trace here on shutdown")
	build := serverFlags(fs)
	startProf, stopProf := profileFlags(fs)
	fs.Parse(args)
	startProf()

	cfg, err := build()
	if err != nil {
		fatal(err)
	}
	cfg.Record = *record != ""
	s, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}

	hs := &http.Server{Addr: *addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("serving on %s (%d workers, queue %d, epoch %d)\n",
		*addr, cfg.Workers, cfg.QueueDepth, cfg.EpochLength)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Printf("%v: draining\n", sig)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = hs.Shutdown(shutdownCtx)
	s.Close()
	if *record != "" {
		if tr := s.RecordedTrace(); tr != nil {
			if err := tr.WriteFile(*record); err != nil {
				fatal(err)
			}
			fmt.Printf("recorded %d requests -> %s\n", len(tr.Requests), *record)
		}
	}
	st := s.StatsNow()
	fmt.Printf("served %d requests (%d traps, %d canceled, %d rejected)\n",
		st.Completed, st.Traps, st.Canceled, st.Rejected)
	stopProf()
}

// runReplay is `evolvevm replay`: re-run a recorded trace through a
// fresh server and verify every outcome checksum matches the recording.
func runReplay(args []string) {
	fs := flag.NewFlagSet("evolvevm replay", flag.ExitOnError)
	tracePath := fs.String("trace", "", "trace file to replay (required)")
	out := fs.String("out", "", "write the re-recorded trace here")
	noVerify := fs.Bool("no-verify", false, "skip comparing outcomes against the recording")
	build := serverFlags(fs)
	fs.Parse(args)

	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "evolvevm replay: -trace is required")
		os.Exit(2)
	}
	tr, err := traffic.ReadFile(*tracePath)
	if err != nil {
		fatal(err)
	}
	cfg, err := build()
	if err != nil {
		fatal(err)
	}
	if len(cfg.Benches) == 0 {
		cfg.Benches = traceBenches(tr)
	}
	cfg.Record = true // the outcomes are compared and written below
	s, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}
	defer s.Close()
	if err := s.Run(context.Background(), tr); err != nil {
		fatal(err)
	}
	if err := s.LedgerBalanced(); err != nil {
		fatal(err)
	}

	got := s.Outcomes()
	if !*noVerify && len(tr.Outcomes) > 0 {
		drift := outcomeDrift(tr.Outcomes, got)
		for _, d := range drift[:min(len(drift), 10)] {
			fmt.Fprintln(os.Stderr, d)
		}
		if len(drift) > 0 {
			fmt.Fprintf(os.Stderr, "evolvevm replay: %d of %d recorded outcomes diverged or were not replayed\n",
				len(drift), len(tr.Outcomes))
			os.Exit(1)
		}
		fmt.Printf("replayed %d requests, all outcomes match the recording\n", len(got))
	} else {
		fmt.Printf("replayed %d requests\n", len(got))
	}
	if *out != "" {
		tr.Outcomes = got
		if err := tr.WriteFile(*out); err != nil {
			fatal(err)
		}
	}
}

// outcomeDrift compares a replay with its recording, in recorded order:
// one line per recorded outcome the replay changed or never produced.
// Replayed outcomes the recording lacks are not compared.
func outcomeDrift(recorded, replayed []traffic.Outcome) []string {
	got := make(map[int64]traffic.Outcome, len(replayed))
	for _, o := range replayed {
		got[o.Seq] = o
	}
	var drift []string
	for _, w := range recorded {
		o, ok := got[w.Seq]
		switch {
		case !ok:
			drift = append(drift, fmt.Sprintf("seq %d missing: recorded %+v, not replayed", w.Seq, w))
		case o != w:
			drift = append(drift, fmt.Sprintf("seq %d diverged: recorded %+v, replayed %+v", w.Seq, w, o))
		}
	}
	return drift
}

// traceBenches collects the distinct benchmarks a trace exercises, so
// replay servers construct only the prototypes they need.
func traceBenches(tr *traffic.Trace) []string {
	seen := make(map[string]bool)
	var out []string
	for _, req := range tr.Requests {
		if !seen[req.Bench] {
			seen[req.Bench] = true
			out = append(out, req.Bench)
		}
	}
	return out
}

// runLoadTest is `evolvevm loadtest`: generate a seeded workload, serve
// it, and report deterministic checksums plus latency/throughput.
func runLoadTest(args []string) {
	fs := flag.NewFlagSet("evolvevm loadtest", flag.ExitOnError)
	var (
		requests  = fs.Int("requests", 2000, "workload size")
		tenants   = fs.Int("tenants", 8, "tenant count")
		meanGap   = fs.Int64("mean-gap", 100, "mean inter-arrival gap in virtual microseconds")
		deadline  = fs.Int64("deadline", 0, "per-request deadline in microseconds (0 = none)")
		cold      = fs.String("cold", "", "cold-tenant name for the shared-learning experiment")
		coldReqs  = fs.Int("cold-requests", 16, "cold tenant's request count")
		compare   = fs.Bool("compare", false, "also run the isolated control arm for the cold-start comparison")
		traceOut  = fs.String("trace-out", "", "write the generated+recorded trace here")
		benchName = fs.String("bench", "", "emit a go-bench line under this name instead of JSON")
	)
	build := serverFlags(fs)
	startProf, stopProf := profileFlags(fs)
	fs.Parse(args)
	startProf()
	defer stopProf()

	cfg, err := build()
	if err != nil {
		fatal(err)
	}
	lc := serve.LoadConfig{
		Traffic: traffic.GenConfig{
			Seed:           cfg.Seed,
			Requests:       *requests,
			Tenants:        *tenants,
			Benches:        cfg.Benches,
			MeanGapMicros:  *meanGap,
			DeadlineMicros: *deadline,
			ColdTenant:     *cold,
			ColdRequests:   *coldReqs,
		},
		Server:  cfg,
		Compare: *compare,
	}
	if len(lc.Traffic.Benches) == 0 {
		lc.Traffic.Benches = []string{"compress", "search"}
	}
	rep, tr, err := serve.LoadTest(context.Background(), lc)
	if err != nil {
		fatal(err)
	}
	if *traceOut != "" {
		if err := tr.WriteFile(*traceOut); err != nil {
			fatal(err)
		}
	}
	if *benchName != "" {
		rep.WriteBench(os.Stdout, *benchName)
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
}
