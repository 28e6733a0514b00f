package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/harness"
	"evolvevm/internal/session"
	"evolvevm/internal/traffic"
	"evolvevm/internal/vm"
)

func testConfig(workers int) Config {
	return Config{
		Workers:     workers,
		QueueDepth:  64,
		EpochLength: 16,
		Scenario:    harness.ScenarioEvolve,
		Seed:        42,
		CorpusSize:  6,
		Benches:     []string{"compress", "search"},
	}
}

func testTrace(t *testing.T, requests, tenants int) *traffic.Trace {
	t.Helper()
	tr, err := traffic.Generate(traffic.GenConfig{
		Seed:     42,
		Requests: requests,
		Tenants:  tenants,
		Benches:  []string{"compress", "search"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// runTrace replays tr on a recording server, so its callers can read
// the outcomes.
func runTrace(t *testing.T, cfg Config, tr *traffic.Trace) *Server {
	t.Helper()
	cfg.Record = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDeterministicAcrossWorkers is the core serving-determinism claim:
// the same trace on 1, 2, and 8 workers yields identical per-tenant
// checksums, identical per-request outcomes, and identical latency
// histogram buckets. Virtual observables are a function of the trace,
// never of host concurrency. The second trace marks all of epoch 1
// (seqs 16..31 at EpochLength 16) and a scatter of other seqs canceled,
// as a live deadline would have: replay reproduces them without
// executing, and the all-canceled epoch enqueues no barrier.
func TestDeterministicAcrossWorkers(t *testing.T) {
	sparse := testTrace(t, 64, 3)
	for _, req := range sparse.Requests {
		if (req.Seq >= 16 && req.Seq < 32) || req.Seq%13 == 5 {
			sparse.Outcomes = append(sparse.Outcomes, traffic.Outcome{
				Seq: req.Seq, Status: traffic.StatusCanceled,
			})
		}
	}
	for _, in := range []struct {
		name string
		tr   *traffic.Trace
	}{
		{"plain", testTrace(t, 96, 4)},
		{"canceled_sparse_epochs", sparse},
	} {
		t.Run(in.name, func(t *testing.T) {
			tr := in.tr
			ref := runTrace(t, testConfig(1), tr)
			defer ref.Close()
			refSums := ref.TenantChecksums()
			refOut := ref.Outcomes()
			if len(refOut) != len(tr.Requests) {
				t.Fatalf("serial run completed %d of %d requests", len(refOut), len(tr.Requests))
			}
			if err := ref.LedgerBalanced(); err != nil {
				t.Fatal(err)
			}

			for _, workers := range []int{2, 8} {
				s := runTrace(t, testConfig(workers), tr)
				sums := s.TenantChecksums()
				if len(sums) != len(refSums) {
					t.Fatalf("workers=%d saw %d tenants, want %d", workers, len(sums), len(refSums))
				}
				for tenant, want := range refSums {
					if got := sums[tenant]; got != want {
						t.Errorf("workers=%d tenant %s checksum %#x, want %#x", workers, tenant, got, want)
					}
				}
				out := s.Outcomes()
				if len(out) != len(refOut) {
					t.Fatalf("workers=%d completed %d outcomes, want %d", workers, len(out), len(refOut))
				}
				for i, o := range out {
					if o != refOut[i] {
						t.Fatalf("workers=%d outcome %d = %+v, want %+v", workers, i, o, refOut[i])
					}
				}
				if got, want := s.vhist.Snapshot(), ref.vhist.Snapshot(); got != want {
					t.Errorf("workers=%d histogram differs:\ngot  %v\nwant %v", workers, &got, &want)
				}
				if err := s.LedgerBalanced(); err != nil {
					t.Errorf("workers=%d: %v", workers, err)
				}
				s.Close()
			}
		})
	}
}

// TestConcurrentSubmittersMatchSerialReplay hammers a live recording
// server from goroutine tenants, then replays the recorded trace on a
// single worker: every per-tenant checksum must match. This is the
// record/replay contract — whatever interleaving live traffic produced,
// the trace it recorded reproduces the exact same observables serially.
func TestConcurrentSubmittersMatchSerialReplay(t *testing.T) {
	cfg := testConfig(8)
	cfg.Record = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const tenants, perTenant = 6, 12
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", ti)
			for i := 0; i < perTenant; i++ {
				bench := cfg.Benches[(ti+i)%len(cfg.Benches)]
				if _, err := s.Submit(context.Background(), tenant, bench, ti*31+i, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(ti)
	}
	wg.Wait()
	s.Drain()
	liveSums := s.TenantChecksums()
	tr := s.RecordedTrace()
	if len(tr.Requests) != tenants*perTenant || len(tr.Outcomes) != tenants*perTenant {
		t.Fatalf("recorded %d requests, %d outcomes; want %d", len(tr.Requests), len(tr.Outcomes), tenants*perTenant)
	}
	if err := s.LedgerBalanced(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	replayCfg := testConfig(1)
	replay := runTrace(t, replayCfg, tr)
	defer replay.Close()
	replaySums := replay.TenantChecksums()
	for tenant, want := range liveSums {
		if got := replaySums[tenant]; got != want {
			t.Errorf("tenant %s: replay checksum %#x, live %#x", tenant, got, want)
		}
	}
	// The recorded outcomes themselves must be reproduced verbatim.
	rout := replay.Outcomes()
	for i, o := range rout {
		if o != tr.Outcomes[i] {
			t.Fatalf("replay outcome %d = %+v, recorded %+v", i, o, tr.Outcomes[i])
		}
	}
}

// TestRecordingOfReplayReloads: a recording server that replays a trace
// with a recorded-canceled seq records that request along with its
// outcome, so the saved recording loads (traces must be densely
// numbered) and replays to the same outcomes.
func TestRecordingOfReplayReloads(t *testing.T) {
	tr := testTrace(t, 24, 3)
	tr.Outcomes = []traffic.Outcome{{Seq: 5, Status: traffic.StatusCanceled}}
	s := runTrace(t, testConfig(2), tr)
	defer s.Close()
	var buf bytes.Buffer
	if err := s.RecordedTrace().Save(&buf); err != nil {
		t.Fatal(err)
	}
	rec, err := traffic.Load(&buf)
	if err != nil {
		t.Fatalf("recording does not reload: %v", err)
	}
	if len(rec.Requests) != len(tr.Requests) || len(rec.Outcomes) != len(tr.Requests) {
		t.Fatalf("recorded %d requests and %d outcomes, want %d of each",
			len(rec.Requests), len(rec.Outcomes), len(tr.Requests))
	}
	if o := rec.Outcomes[5]; o.Seq != 5 || o.Status != traffic.StatusCanceled {
		t.Fatalf("recorded outcome 5 = %+v, want seq 5 canceled", o)
	}
	again := runTrace(t, testConfig(1), rec)
	defer again.Close()
	for i, o := range again.Outcomes() {
		if o != rec.Outcomes[i] {
			t.Fatalf("replay of the recording: outcome %d = %+v, recorded %+v", i, o, rec.Outcomes[i])
		}
	}
}

// TestHeapPlateau: a live server without Record keeps nothing per
// request. Once every chain exists and has seen the whole corpus, 900
// more requests must leave the live heap where it was, and must add no
// entry to the code memo, the baseline memo or either prototype's
// feature-vector memo: those memos have no capacity, and this is the
// test that their key sets stay bounded. The code memo holds at most one
// form per function and level (4 levels) of the served programs.
func TestHeapPlateau(t *testing.T) {
	cfg := testConfig(2)
	cfg.CorpusSize = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const tenants = 4
	serve := func(from, to int) {
		for i := from; i < to; i++ {
			tenant := fmt.Sprintf("t%d", i%tenants)
			bench := cfg.Benches[(i/tenants)%len(cfg.Benches)]
			input := (i / (tenants * len(cfg.Benches))) % cfg.CorpusSize
			if _, err := s.Submit(context.Background(), tenant, bench, input, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveHeap := func() int64 {
		// The first collection only moves sync.Pool contents to the victim
		// cache; the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	memos := func() map[string]int {
		m := map[string]int{
			"code":     harness.CodeCacheStats().Entries,
			"baseline": harness.BaselineCacheStats().Entries,
		}
		for _, b := range cfg.Benches {
			m[b+" feature-vector"] = s.protos[b].State.FVCache().Stats().Entries
		}
		return m
	}
	serve(0, 100)
	memosAt100 := memos()
	before := liveHeap()
	serve(100, 1000)
	grew := liveHeap() - before
	t.Logf("live heap %+d B over 900 requests; memo entries %v", grew, memosAt100)
	if grew >= 32<<10 {
		t.Fatalf("live heap grew %d B over 900 requests (%d B/request), want under 32 KiB", grew, grew/900)
	}
	for name, n := range memos() {
		if n != memosAt100[name] {
			t.Errorf("%s memo went from %d entries at request 100 to %d at request 1000", name, memosAt100[name], n)
		}
	}
	funcs := 0
	for _, b := range cfg.Benches {
		funcs += len(s.protos[b].Prog.Funcs)
	}
	if n := memosAt100["code"]; n > 4*funcs {
		t.Errorf("code memo holds %d forms, want at most 4 per function (%d)", n, 4*funcs)
	}
}

// TestCheckpointNeverTearsUnderLoad saves session checkpoints while the
// pool is executing: every checkpoint must decode, and the final one
// (after drain) must hold exactly the drained chains' learned state and
// nothing else — restored chain by chain into fresh states, each
// snapshots byte-identical to its chain.
func TestCheckpointNeverTearsUnderLoad(t *testing.T) {
	cfg := testConfig(4)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	tr := testTrace(t, 64, 3)
	done := make(chan error, 1)
	go func() { done <- s.Run(context.Background(), tr) }()

	for {
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := session.Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("checkpoint does not decode: %v", err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if err := s.LedgerBalanced(); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := s.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			chk, err := session.Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if units := chk.UnitKeys(); len(units) != 0 {
				t.Fatalf("checkpoint holds %d units, want learned state only", len(units))
			}
			chains := s.allChains()
			if len(chains) == 0 {
				t.Fatal("no chains served")
			}
			for _, ch := range chains {
				fresh := s.protos[ch.bench].Fork()
				key := (&traffic.Request{Tenant: ch.tenant, Bench: ch.bench}).Chain()
				if err := chk.Attach(key, fresh.State); err != nil {
					t.Fatal(err)
				}
				want, err := ch.runner.State.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				got, err := fresh.State.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("chain %s restored from the checkpoint snapshots differently from the drained chain", key)
				}
			}
			return
		default:
		}
	}
}

// TestAdmissionQueueFull: TrySubmit must reject with ErrQueueFull when
// the queue is saturated, and 429-style rejection counts as rejected in
// the stats. White-box: the queue is filled by marking slots in flight.
func TestAdmissionQueueFull(t *testing.T) {
	cfg := testConfig(2)
	cfg.QueueDepth = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	s.mu.Lock()
	s.inflight = cfg.QueueDepth
	s.mu.Unlock()
	if _, err := s.TrySubmit(context.Background(), "t0", "compress", 1, 0); err != ErrQueueFull {
		t.Fatalf("TrySubmit on full queue: %v, want ErrQueueFull", err)
	}
	s.mu.Lock()
	s.inflight = 0
	s.mu.Unlock()
	if rejected := s.rejected.Load(); rejected != 1 {
		t.Fatalf("rejected = %d, want 1", rejected)
	}
	if resp, err := s.TrySubmit(context.Background(), "t0", "compress", 1, 0); err != nil || resp.Status != traffic.StatusOK {
		t.Fatalf("TrySubmit with space: resp=%+v err=%v", resp, err)
	}
}

// TestAdmissionTenantCap: one tenant at its in-flight cap is rejected
// with ErrTenantBusy — for Submit too, so a greedy tenant cannot occupy
// the backpressure queue — while other tenants still get through.
func TestAdmissionTenantCap(t *testing.T) {
	cfg := testConfig(2)
	cfg.TenantCap = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	s.mu.Lock()
	s.perTenant["greedy"] = 2
	s.mu.Unlock()
	if _, err := s.Submit(context.Background(), "greedy", "compress", 1, 0); err != ErrTenantBusy {
		t.Fatalf("Submit over tenant cap: %v, want ErrTenantBusy", err)
	}
	if _, err := s.TrySubmit(context.Background(), "greedy", "compress", 1, 0); err != ErrTenantBusy {
		t.Fatalf("TrySubmit over tenant cap: %v, want ErrTenantBusy", err)
	}
	if resp, err := s.Submit(context.Background(), "modest", "compress", 1, 0); err != nil || resp.Status != traffic.StatusOK {
		t.Fatalf("other tenant blocked: resp=%+v err=%v", resp, err)
	}
	s.mu.Lock()
	delete(s.perTenant, "greedy")
	s.mu.Unlock()
}

// TestAdmissionDeadlineExpires: an unmeetable deadline cancels the run
// at a sample boundary; the response reports status canceled, no learner
// state commits, and the drained server's ledger stays balanced (the
// canceled request completes no unit).
func TestAdmissionDeadlineExpires(t *testing.T) {
	cfg := testConfig(2)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	resp, err := s.Submit(context.Background(), "t0", "compress", 1, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != traffic.StatusCanceled {
		t.Fatalf("status %q, want canceled", resp.Status)
	}
	if resp.Checksum != 0 || resp.Cycles != 0 {
		t.Fatalf("canceled run has observables: %+v", resp)
	}
	// A successful request after the canceled one: the chain's learner
	// must behave as if the canceled run never happened. Chain run count
	// stays a deterministic-outcome count.
	if resp, err := s.Submit(context.Background(), "t0", "compress", 1, 0); err != nil || resp.Status != traffic.StatusOK {
		t.Fatalf("follow-up: resp=%+v err=%v", resp, err)
	}
	s.Drain()
	if err := s.LedgerBalanced(); err != nil {
		t.Fatal(err)
	}
	runs := s.chains["t0/compress"].runs
	if runs != 1 {
		t.Fatalf("chain counted %d runs, want 1 (canceled run must not count)", runs)
	}
}

// TestSubmitCancelKeepsCause: a live caller that stops waiting gets its
// context's cause back, with the benchmark named, not a bare
// context.Canceled. The only worker is parked so the admitted request
// cannot answer first.
func TestSubmitCancelKeepsCause(t *testing.T) {
	s, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release := make(chan struct{})
	s.pool.Go("parked", func() { <-release })
	defer close(release)

	cause := errors.New("client went away")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	_, err = s.Submit(ctx, "t0", "compress", 1, 0)
	if !errors.Is(err, cause) {
		t.Fatalf("Submit error %v, want one wrapping %v", err, cause)
	}
	if !strings.Contains(err.Error(), "compress") {
		t.Errorf("error %q does not name the benchmark", err)
	}
}

// TestLedgerViolationsKeepFirst: the per-run ledger cross-check counts
// violations and keeps only the first message.
func TestLedgerViolationsKeepFirst(t *testing.T) {
	s, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := s.protos["compress"]
	for _, skew := range []int64{1, 2} {
		m := vm.New(r.Prog, r.JitCfg, nil)
		m.Engine.Cycles += skew
		r.Inspect(m)
	}
	err = s.LedgerBalanced()
	want := "serve: 2 per-run ledger violations (first: vm: cycle ledger off by 1:"
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("LedgerBalanced = %v, want prefix %q", err, want)
	}
}

// TestGracefulDrain: Close drains in-flight work, leaves the ledger
// balanced, and rejects later submissions with ErrClosed.
func TestGracefulDrain(t *testing.T) {
	cfg := testConfig(4)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Submit(context.Background(), fmt.Sprintf("t%d", i%3), "compress", i, 0)
			if err != nil && err != ErrClosed {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	s.Close()
	if err := s.LedgerBalanced(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), "t0", "compress", 1, 0); err != ErrClosed {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	if _, err := s.TrySubmit(context.Background(), "t0", "compress", 1, 0); err != ErrClosed {
		t.Fatalf("TrySubmit after Close: %v, want ErrClosed", err)
	}
}

// TestColdTenantBenefitsFromSharedTier is the cross-tenant learning
// acceptance check: a cold tenant joining after the shared tier has been
// published gets a predicted (learned) strategy on its very first
// request; with sharing disabled (Isolated) the same first request runs
// unpredicted, because a fresh learner has no confidence. Cold-start
// prediction is exactly what the shared tier buys.
func TestColdTenantBenefitsFromSharedTier(t *testing.T) {
	tr, err := traffic.Generate(traffic.GenConfig{
		Seed:         7,
		Requests:     80,
		Tenants:      3,
		Benches:      []string{"compress"},
		ColdTenant:   "cold",
		ColdRequests: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(4)
	cfg.Benches = []string{"compress"}
	cfg.EpochLength = 8

	firstColdPredicted := func(s *Server) bool {
		t.Helper()
		var first *Response
		for _, resp := range s.recorded() {
			if resp.Tenant == "cold" && (first == nil || resp.Seq < first.Seq) {
				first = resp
			}
		}
		if first == nil {
			t.Fatal("cold tenant never served")
		}
		return first.Predicted
	}

	shared := runTrace(t, cfg, tr)
	defer shared.Close()
	if !firstColdPredicted(shared) {
		t.Error("shared tier: cold tenant's first request was not predicted")
	}

	iso := cfg
	iso.Isolated = true
	isolated := runTrace(t, iso, tr)
	defer isolated.Close()
	if firstColdPredicted(isolated) {
		t.Error("isolated: cold tenant's first request was predicted without shared learning")
	}
}

// TestChecksumBytes pins the bytes checksum hashes to a format string:
// recorded traces carry these checksums, so changing the bytes means
// regenerating every committed trace. The compile charge and the
// speedup's bits are folded in after predicted, so a wrong Default
// baseline (every served speedup wrong) diverges a replay.
func TestChecksumBytes(t *testing.T) {
	for _, resp := range []*Response{
		{Tenant: "t0", Bench: "compress", InputID: "compress-003", Status: traffic.StatusOK,
			Value: bytecode.Int(-42), Cycles: 123456789, CompileCycles: 4567, Speedup: 1.25, Predicted: true},
		{Tenant: "t1", Bench: "search", Status: traffic.StatusTrap, Trap: "division by zero"},
		{Status: traffic.StatusOK, Value: bytecode.Float(math.NaN()), Cycles: -1, Speedup: math.NaN()},
		{Value: bytecode.Value{Kind: 255, I: math.MinInt64, F: math.Inf(-1)}, Cycles: math.MaxInt64,
			CompileCycles: math.MinInt64, Speedup: math.Inf(1)},
		{Tenant: strings.Repeat("tenant", 40), Trap: strings.Repeat("x", 300)}, // outgrows the stack buffer
	} {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%s|%s|%s|%s|%d|%d|%d|%d|%t|%d|%d",
			resp.Tenant, resp.Bench, resp.InputID, resp.Status, resp.Trap,
			resp.Value.Kind, resp.Value.I, math.Float64bits(resp.Value.F),
			resp.Cycles, resp.Predicted, resp.CompileCycles, math.Float64bits(resp.Speedup))
		if got, want := checksum(resp), h.Sum64(); got != want {
			t.Errorf("checksum(%+v) = %#x, want %#x", resp, got, want)
		}
	}
}

// TestLoadReportExactWallQuantiles: a load report's wall p50 and p99 are
// nearest-rank values over the recorded responses' wall times, not
// histogram bucket edges. A replayed cancellation never executed, has no
// wall time, and does not count.
func TestLoadReportExactWallQuantiles(t *testing.T) {
	s := &Server{}
	for i := 200; i >= 1; i-- {
		s.responses = append(s.responses, &Response{Seq: int64(i), Tenant: "t", Wall: time.Duration(i) * time.Microsecond})
	}
	s.responses = append(s.responses, &Response{Seq: 0, Tenant: "t", Status: traffic.StatusCanceled})
	rep := report(s, len(s.responses), time.Second)
	if rep.WallP50 != 100_000 || rep.WallP99 != 198_000 {
		t.Errorf("wall p50/p99 = %d/%d ns, want 100000/198000", rep.WallP50, rep.WallP99)
	}
	for _, c := range []struct {
		walls []int64
		pct   int
		want  int64
	}{
		{nil, 50, 0},
		{[]int64{7}, 99, 7},
		{[]int64{1, 2}, 50, 1},
		{[]int64{1, 2, 3}, 50, 2},
		{[]int64{1, 2, 3}, 99, 3},
	} {
		if got := nearestRank(c.walls, c.pct); got != c.want {
			t.Errorf("nearestRank(%v, %d) = %d, want %d", c.walls, c.pct, got, c.want)
		}
	}
}
