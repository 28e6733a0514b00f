// Package serve is the multi-tenant serving front end: a long-running
// process that accepts concurrent run requests from many tenants,
// executes them through internal/exec off a bounded worker pool, and
// shares cross-run learning state between requests.
//
// # Determinism under concurrency
//
// Every tenant's virtual observables (results, traps, cycles, ledgers,
// latency-histogram buckets) are a pure function of the request trace
// and the server config — never of worker count, goroutine interleaving,
// or wall-clock time. Three rules make that hold:
//
//  1. Learning state is sharded into per-(tenant, benchmark) chains;
//     a chain's requests execute serially in global sequence order
//     (sched.Chains), so each learner sees a deterministic run sequence.
//  2. The shared cross-tenant tier is read and written only at epoch
//     barriers — every Config.EpochLength sequence numbers, a barrier
//     drains the pool and publishes, per benchmark, a frozen copy of the
//     most-trained chain's state (ties to the lexicographically smallest
//     tenant). A chain created between barriers adopts the state
//     published at its epoch's start, so a cold tenant's first request
//     benefits from what other tenants already learned, by exactly the
//     same amount in every replay.
//  3. Wall-clock effects never commit: a deadline-expired run aborts
//     with *interp.CanceledError before the controller's OnRunEnd, so
//     cancellation cannot perturb learner state; recorded traces mark
//     canceled sequence numbers and replay skips them instead of
//     depending on live timing.
//
// Admission control keeps the pool bounded: a queue-depth cap with
// backpressure (Submit blocks, TrySubmit rejects for HTTP 429), per-
// tenant in-flight caps, and request deadlines threaded down to the
// engine's sample-boundary cancellation check. Replay (Run) is one loop
// that admits a trace's requests in seq order through the same path.
//
// # Memory
//
// A server keeps its learned state — one chain per (tenant, benchmark)
// and the shared tier — and nothing per request. Outcomes, per-tenant
// checksums and the recorded trace exist only when Config.Record is set.
// The process-wide memos the runs share (compiled code, feature vectors,
// Default baselines) have no capacity: their keys are the served
// programs' functions and levels and the corpora's inputs, all fixed
// when the server starts.
package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/exec"
	"evolvevm/internal/harness"
	"evolvevm/internal/interp"
	"evolvevm/internal/programs"
	"evolvevm/internal/sched"
	"evolvevm/internal/session"
	"evolvevm/internal/traffic"
	"evolvevm/internal/vm"
)

// Admission and lifecycle errors. The HTTP layer maps the first two to
// 429 with a Retry-After hint and ErrClosed to 503.
var (
	ErrQueueFull  = errors.New("serve: request queue full")
	ErrTenantBusy = errors.New("serve: tenant in-flight cap reached")
	ErrClosed     = errors.New("serve: server is draining")
)

// Config parameterizes a Server. The zero value of every field has a
// serviceable default; Benches defaults to all registered benchmarks.
type Config struct {
	// Workers bounds the execution pool (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds admitted-but-unfinished requests (default 256).
	// Submit blocks for a slot; TrySubmit rejects with ErrQueueFull.
	QueueDepth int
	// TenantCap bounds one tenant's in-flight requests (0 = unlimited).
	// Live admission only — replayed traces already passed admission.
	TenantCap int
	// EpochLength is the shared-tier publication cadence in sequence
	// numbers (default 32). Smaller epochs share learning faster but
	// drain the pool more often.
	EpochLength int
	// Scenario selects the optimization controller. The zero value is
	// harness.ScenarioDefault, the reactive optimizer, which never
	// predicts; set ScenarioEvolve for cross-input learning. The
	// `evolvevm serve`, `replay` and `loadtest` commands pass Evolve
	// unless -scenario says otherwise.
	Scenario harness.Scenario
	// Seed keys every deterministic choice: input corpora and, through
	// the trace, the workload itself.
	Seed int64
	// CorpusSize is the per-benchmark input corpus size (0 = default).
	CorpusSize int
	// Isolated disables the shared cross-tenant tier: chains never seed
	// from other tenants' learning. The control arm of the cold-start
	// experiment.
	Isolated bool
	// Substrate toggles the host-performance mechanisms for every run the
	// server executes. Virtual observables must not change with it — the
	// difftest soak serves identical traces across host tiers to prove so.
	Substrate exec.Substrate
	// Benches names the benchmarks this server accepts (default: all).
	Benches []string
	// Record keeps every admitted request and every finished response,
	// live or replayed, for Outcomes, TenantChecksums and RecordedTrace.
	// Without it those read nothing, and the server holds no state that
	// grows with requests.
	Record bool
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.EpochLength <= 0 {
		c.EpochLength = 32
	}
	if len(c.Benches) == 0 {
		for _, b := range programs.All() {
			c.Benches = append(c.Benches, b.Name)
		}
	}
}

// Response is one request's outcome. Every field except Wall is a
// virtual observable — deterministic for a given trace and config.
type Response struct {
	Seq     int64  `json:"seq"`
	Tenant  string `json:"tenant"`
	Bench   string `json:"bench"`
	InputID string `json:"input_id"`
	// Status is "ok", "trap", or "canceled" (traffic.Status*).
	Status string `json:"status"`
	// Trap is the normalized runtime-error message for status "trap".
	Trap string `json:"trap,omitempty"`
	// Value is the program result for status "ok".
	Value         bytecode.Value `json:"value"`
	Cycles        int64          `json:"cycles"`
	CompileCycles int64          `json:"compile_cycles"`
	Speedup       float64        `json:"speedup,omitempty"`
	// Predicted reports whether the discriminative guard passed and a
	// learned strategy was installed up front (Evolve scenario).
	Predicted bool `json:"predicted,omitempty"`
	// Checksum folds the virtual observables of this response into one
	// value; per-tenant folds of these are the replay-equivalence oracle.
	Checksum uint64 `json:"checksum"`
	// Wall is host wall time — reporting only, never checksummed.
	Wall time.Duration `json:"wall_ns"`
}

// chain is one (tenant, benchmark) learning chain. Its fields are only
// touched from the chain's serially-executing tasks, so it needs no lock
// of its own.
type chain struct {
	tenant string
	bench  string
	runner *harness.Runner
	// runs counts deterministic outcomes (ok and trap, never canceled) —
	// the shared-tier publication rule ranks chains by it.
	runs int
}

// Server is the multi-tenant serving front end. Create with New, submit
// with Submit/TrySubmit (live) or Run (trace replay), stop with Close.
type Server struct {
	cfg    Config
	protos map[string]*harness.Runner // per-benchmark prototype runners

	pool *sched.Chains
	sess *session.Session

	// mu is the admission lock: it orders sequence-number assignment,
	// admission accounting, epoch-barrier enqueueing, and pool
	// submission, making pool queue order equal seq order — the
	// determinism source. It is intentionally narrow: completion
	// bookkeeping and stat counters live outside it on atomic state,
	// and a recording server keeps responses under recMu.
	mu        sync.Mutex
	space     *sync.Cond // signaled when queue slots free up
	drained   *sync.Cond // broadcast when inflight reaches zero
	waiters   int        // submitters blocked on space
	nextSeq   int64
	lastEpoch int64 // highest epoch whose barrier has been enqueued
	inflight  int
	perTenant map[string]int
	closed    bool

	// Hot-path stat counters: atomics, aggregated on read. Host-side
	// only — never virtual observables.
	rejected  atomic.Int64
	completed atomic.Int64
	traps     atomic.Int64
	canceled  atomic.Int64

	// tier is the shared cross-tenant state: per-benchmark frozen states
	// published only at epoch barriers. Tasks read it (RLock) when a new
	// chain is created; only the barrier writes it, with the pool empty.
	// This is the one remaining epoch-scoped lock on the request path.
	tierMu sync.RWMutex
	tier   map[string]*session.Frozen

	// chainMu guards the chains map itself, never chain state (chains
	// are touched only from their serially-executing pool tasks).
	chainMu sync.Mutex
	chains  map[string]*chain // keyed by traffic.Request.Chain

	// Latency histograms over every tenant: virtual cycles and wall
	// nanos (reporting only).
	vhist traffic.AtomicHistogram
	whist traffic.AtomicHistogram

	// Per-run cycle-ledger violations: a count and the first message,
	// so a long-running server's memory stays bounded however many fail.
	ledgerMu    sync.Mutex
	ledgerBad   int
	ledgerFirst string

	// The recording (cfg.Record only): admitted requests in admission
	// order and finished responses in completion order.
	recMu     sync.Mutex
	requests  []traffic.Request
	responses []*Response
}

// New builds a server, constructing one prototype runner per benchmark.
// Prototypes are forked per chain, so corpus generation, program
// compilation and the corpus's feature-vector memo happen once per
// benchmark, not once per tenant.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	s := &Server{
		cfg:       cfg,
		protos:    make(map[string]*harness.Runner, len(cfg.Benches)),
		pool:      sched.NewChains(cfg.Workers),
		sess:      session.New(),
		perTenant: make(map[string]int),
		tier:      make(map[string]*session.Frozen),
		chains:    make(map[string]*chain),
		lastEpoch: -1,
	}
	s.space = sync.NewCond(&s.mu)
	s.drained = sync.NewCond(&s.mu)
	for _, name := range cfg.Benches {
		b := programs.ByName(name)
		if b == nil {
			return nil, fmt.Errorf("serve: unknown benchmark %q", name)
		}
		r, err := harness.NewRunner(b, cfg.CorpusSize, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("serve: %s: %w", name, err)
		}
		r.Substrate = cfg.Substrate
		r.Inspect = func(m *vm.Machine) {
			if err := m.LedgerError(); err != nil {
				s.ledgerMu.Lock()
				if s.ledgerBad == 0 {
					s.ledgerFirst = err.Error()
				}
				s.ledgerBad++
				s.ledgerMu.Unlock()
			}
		}
		s.protos[name] = r
	}
	return s, nil
}

// Submit executes one live request, blocking for a queue slot under
// backpressure and for the response. A per-tenant cap rejects rather
// than blocks (a capped tenant should back off, not pile up).
func (s *Server) Submit(ctx context.Context, tenant, bench string, input int, deadline time.Duration) (*Response, error) {
	return s.submitLive(ctx, tenant, bench, input, deadline, true)
}

// TrySubmit is Submit without backpressure: a full queue or a capped
// tenant rejects immediately (ErrQueueFull / ErrTenantBusy) so the HTTP
// layer can answer 429 with Retry-After.
func (s *Server) TrySubmit(ctx context.Context, tenant, bench string, input int, deadline time.Duration) (*Response, error) {
	return s.submitLive(ctx, tenant, bench, input, deadline, false)
}

func (s *Server) submitLive(ctx context.Context, tenant, bench string, input int, deadline time.Duration, wait bool) (*Response, error) {
	if tenant == "" || s.protos[bench] == nil {
		return nil, fmt.Errorf("serve: bad request: tenant %q bench %q", tenant, bench)
	}
	deadlineMicros := deadline.Microseconds()
	if deadline > 0 && deadlineMicros == 0 {
		deadlineMicros = 1 // round sub-microsecond deadlines up, not to "none"
	}
	req := traffic.Request{
		Tenant:         tenant,
		Bench:          bench,
		Input:          input,
		DeadlineMicros: deadlineMicros,
	}
	done := make(chan *Response, 1)

	s.mu.Lock()
	if err := s.slotLocked(tenant, wait); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	req.Seq = s.nextSeq
	s.admitLocked(req, done)
	s.mu.Unlock()

	select {
	case resp := <-done:
		return resp, nil
	case <-ctx.Done():
		// The request is already admitted and will run to completion (or
		// its own deadline); only this caller stops waiting.
		return nil, &interp.CanceledError{Prog: bench, Cause: context.Cause(ctx)}
	}
}

// slotLocked returns once the queue has a free slot, waiting for one if
// wait is set and failing with ErrQueueFull if not. It fails with
// ErrClosed once the server drains and, when capTenant is not empty,
// with ErrTenantBusy while that tenant is at Config.TenantCap. Caller
// holds s.mu.
func (s *Server) slotLocked(capTenant string, wait bool) error {
	for {
		if s.closed {
			return ErrClosed
		}
		if capTenant != "" && s.cfg.TenantCap > 0 && s.perTenant[capTenant] >= s.cfg.TenantCap {
			s.rejected.Add(1)
			return ErrTenantBusy
		}
		if s.inflight < s.cfg.QueueDepth {
			return nil
		}
		if !wait {
			s.rejected.Add(1)
			return ErrQueueFull
		}
		s.waiters++
		s.space.Wait()
		s.waiters--
	}
}

// takeLocked moves the seq counter past req and, when recording, keeps
// the request. Caller holds s.mu.
func (s *Server) takeLocked(req traffic.Request) {
	s.nextSeq = max(s.nextSeq, req.Seq+1)
	if s.cfg.Record {
		s.recMu.Lock()
		s.requests = append(s.requests, req)
		s.recMu.Unlock()
	}
}

// admitLocked takes, epoch-gates, and enqueues one admitted request.
// Caller holds s.mu and has found a queue slot with slotLocked.
func (s *Server) admitLocked(req traffic.Request, done chan<- *Response) {
	s.takeLocked(req)
	s.inflight++
	s.perTenant[req.Tenant]++
	if epoch := req.Seq / int64(s.cfg.EpochLength); epoch > s.lastEpoch {
		s.lastEpoch = epoch
		if epoch > 0 {
			s.pool.Barrier(s.publish)
		}
	}
	s.pool.Go(req.Chain(), func() {
		resp := s.execute(req)
		s.finish(req, resp)
		if done != nil {
			done <- resp
		}
	})
}

// Run replays a trace and drains: one loop admits its requests in seq
// order through the live admission path, waiting for a queue slot as
// Submit does, so queue-depth backpressure bounds memory. Tenant caps
// and request deadlines don't apply: the trace already passed admission
// when it was recorded, and its statuses come from the recording, not
// from live timing. Sequence numbers recorded as canceled are reproduced
// as canceled without executing — live cancellation is a wall-clock
// event, and replay must not depend on wall clocks.
func (s *Server) Run(ctx context.Context, tr *traffic.Trace) error {
	for _, req := range tr.Requests {
		if s.protos[req.Bench] == nil {
			return fmt.Errorf("serve: trace request %d wants unserved benchmark %q", req.Seq, req.Bench)
		}
	}
	defer s.Drain()
	recorded := tr.OutcomeMap()
	for _, req := range tr.Requests {
		if err := ctx.Err(); err != nil {
			return err
		}
		req.DeadlineMicros = 0
		s.mu.Lock()
		if recorded[req.Seq].Status == traffic.StatusCanceled {
			s.takeLocked(req)
			s.mu.Unlock()
			s.record(&Response{Seq: req.Seq, Tenant: req.Tenant, Bench: req.Bench, Status: traffic.StatusCanceled})
			continue
		}
		if err := s.slotLocked("", true); err != nil {
			s.mu.Unlock()
			return err
		}
		s.admitLocked(req, nil)
		s.mu.Unlock()
	}
	return nil
}

// RunClients is Run; n is ignored.
//
// Deprecated: use Run. RunClients remains only because perfbench/serve.go
// calls it, and goes with the next change to perfbench.
func (s *Server) RunClients(ctx context.Context, tr *traffic.Trace, n int) error {
	return s.Run(ctx, tr)
}

// execute runs one admitted request on its learning chain. It executes
// inside the chain's serially-ordered pool task.
func (s *Server) execute(req traffic.Request) *Response {
	ch := s.chain(req)
	in := ch.runner.Inputs[((req.Input%len(ch.runner.Inputs))+len(ch.runner.Inputs))%len(ch.runner.Inputs)]

	ctx := context.Background()
	if req.DeadlineMicros > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMicros)*time.Microsecond)
		defer cancel()
	}

	resp := &Response{Seq: req.Seq, Tenant: req.Tenant, Bench: req.Bench, InputID: in.ID}
	start := time.Now()

	// BeginRun/EndRun bracket the learner mutation so a checkpoint never
	// captures half a run (see session.BenchState). A canceled run
	// committed nothing and replay reproduces it without executing, so it
	// does not count; every deterministic outcome counts exactly once.
	ch.runner.State.BeginRun()
	res, err := ch.runner.RunRequest(ctx, s.cfg.Scenario, in)
	ch.runner.State.EndRun()
	var cerr *interp.CanceledError
	canceled := err != nil && errors.As(err, &cerr)
	if !canceled {
		ch.runs++
	}
	resp.Wall = time.Since(start)

	if canceled {
		resp.Status = traffic.StatusCanceled
		return resp
	}
	if err != nil {
		// Configuration errors (bad feature spec etc.) surface as traps
		// with the error text: deterministic, answerable outcomes.
		resp.Status = traffic.StatusTrap
		resp.Trap = err.Error()
		resp.Checksum = checksum(resp)
		return resp
	}
	resp.Cycles = res.Cycles
	resp.CompileCycles = res.CompileCycles
	resp.Speedup = res.Speedup
	if res.Evolve != nil {
		resp.Predicted = res.Evolve.Predicted
	}
	if res.Trap != "" {
		resp.Status = traffic.StatusTrap
		resp.Trap = res.Trap
	} else {
		resp.Status = traffic.StatusOK
		resp.Value = res.Result
	}
	resp.Checksum = checksum(resp)
	return resp
}

// chain returns (or creates) the request's learning chain. Creation
// adopts the shared tier's frozen state for the benchmark — published at
// the current epoch's barrier — unless the server is Isolated.
func (s *Server) chain(req traffic.Request) *chain {
	key := req.Chain()
	s.chainMu.Lock()
	ch := s.chains[key]
	if ch == nil {
		ch = &chain{
			tenant: req.Tenant,
			bench:  req.Bench,
			runner: s.protos[req.Bench].Fork(),
		}
		s.chains[key] = ch
		s.chainMu.Unlock()
		if !s.cfg.Isolated {
			s.tierMu.RLock()
			f := s.tier[req.Bench]
			s.tierMu.RUnlock()
			if f != nil {
				// A failed seed leaves the chain cold — it still serves.
				_ = ch.runner.State.Adopt(f)
			}
		}
		// Attach after seeding so a checkpoint taken later captures the
		// chain under its key. Attach only takes the session lock.
		_ = s.sess.Attach(key, ch.runner.State)
		return ch
	}
	s.chainMu.Unlock()
	return ch
}

// allChains returns every chain, in no particular order.
func (s *Server) allChains() []*chain {
	s.chainMu.Lock()
	defer s.chainMu.Unlock()
	return slices.Collect(maps.Values(s.chains))
}

// publish is the epoch barrier body: with the pool drained, freeze the
// most-trained chain of each benchmark (ties to the smallest tenant
// name) into the shared tier. Runs and tenant names are deterministic,
// so the published states are too.
func (s *Server) publish() {
	if s.cfg.Isolated {
		return
	}
	// Best-chain selection is a max over (runs desc, tenant asc) — order-
	// independent, so map iteration order doesn't matter.
	best := make(map[string]*chain)
	for _, ch := range s.allChains() {
		if ch.runs == 0 {
			continue
		}
		b := best[ch.bench]
		if b == nil || ch.runs > b.runs || (ch.runs == b.runs && ch.tenant < b.tenant) {
			best[ch.bench] = ch
		}
	}
	for bench, ch := range best {
		f, err := ch.runner.State.Freeze()
		if err != nil {
			continue
		}
		s.tierMu.Lock()
		s.tier[bench] = f
		s.tierMu.Unlock()
	}
}

// finish releases the request's admission slot and records its outcome.
// Recording happens outside s.mu; only the slot release takes it, and it
// wakes exactly one blocked submitter (plus the drain waiters when the
// pool empties) instead of broadcasting to every waiter on every
// completion.
func (s *Server) finish(req traffic.Request, resp *Response) {
	s.record(resp)
	s.mu.Lock()
	s.inflight--
	s.perTenant[req.Tenant]--
	if s.perTenant[req.Tenant] == 0 {
		delete(s.perTenant, req.Tenant)
	}
	if s.waiters > 0 {
		s.space.Signal()
	}
	if s.inflight == 0 {
		s.drained.Broadcast()
	}
	s.mu.Unlock()
}

// record counts a finished response into the stats and, when recording,
// keeps it.
func (s *Server) record(resp *Response) {
	s.completed.Add(1)
	switch resp.Status {
	case traffic.StatusTrap:
		s.traps.Add(1)
	case traffic.StatusCanceled:
		s.canceled.Add(1)
	}
	if resp.Status != traffic.StatusCanceled {
		s.vhist.Observe(resp.Cycles)
	}
	if resp.Wall > 0 {
		s.whist.Observe(resp.Wall.Nanoseconds())
	}
	if s.cfg.Record {
		s.recMu.Lock()
		s.responses = append(s.responses, resp)
		s.recMu.Unlock()
	}
}

// Drain blocks until every admitted request has finished.
func (s *Server) Drain() {
	s.mu.Lock()
	for s.inflight > 0 {
		s.drained.Wait()
	}
	s.mu.Unlock()
	s.pool.Wait()
}

// Close drains and shuts the pool down. Further submissions fail with
// ErrClosed; Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.space.Broadcast()
	s.mu.Unlock()
	s.Drain()
	s.pool.Close()
}

// checksum folds a response's virtual observables into one value. Wall
// time deliberately excluded. The hashed bytes are
// "tenant|bench|input|status|trap|kind|i|fbits|cycles|predicted|compile|sbits",
// with the integers in decimal (Value.Kind as its number, fbits and
// sbits the IEEE bits of Value.F and Speedup) and predicted as
// true/false; they are built with strconv, not fmt, because this runs on
// every request.
func checksum(resp *Response) uint64 {
	var buf [128]byte
	b := buf[:0]
	for _, f := range [...]string{resp.Tenant, resp.Bench, resp.InputID, resp.Status, resp.Trap} {
		b = append(b, f...)
		b = append(b, '|')
	}
	b = strconv.AppendUint(b, uint64(resp.Value.Kind), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, resp.Value.I, 10)
	b = append(b, '|')
	b = strconv.AppendUint(b, math.Float64bits(resp.Value.F), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, resp.Cycles, 10)
	b = append(b, '|')
	b = strconv.AppendBool(b, resp.Predicted)
	b = append(b, '|')
	b = strconv.AppendInt(b, resp.CompileCycles, 10)
	b = append(b, '|')
	b = strconv.AppendUint(b, math.Float64bits(resp.Speedup), 10)
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// recorded returns the recorded responses (Config.Record) sorted by seq.
func (s *Server) recorded() []*Response {
	s.recMu.Lock()
	out := slices.Clone(s.responses)
	s.recMu.Unlock()
	slices.SortFunc(out, func(a, b *Response) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// TenantChecksums folds every tenant's recorded outcomes (Config.Record)
// — in sequence order, so the value is independent of completion
// interleaving — into one checksum per tenant. Two servers that serve
// the same trace must agree on every fold, whatever their worker counts.
func (s *Server) TenantChecksums() map[string]uint64 {
	hs := make(map[string]*fnvState)
	for _, o := range s.recorded() {
		st := hs[o.Tenant]
		if st == nil {
			st = &fnvState{sum: 14695981039346656037}
			hs[o.Tenant] = st
		}
		st.fold(uint64(o.Seq))
		st.fold(o.Checksum)
	}
	out := make(map[string]uint64, len(hs))
	for t, st := range hs {
		out[t] = st.sum
	}
	return out
}

// fnvState is an incremental FNV-1a fold over uint64 words.
type fnvState struct{ sum uint64 }

func (f *fnvState) fold(v uint64) {
	for i := 0; i < 8; i++ {
		f.sum ^= v & 0xff
		f.sum *= 1099511628211
		v >>= 8
	}
}

// Outcomes returns every recorded outcome (Config.Record) sorted by
// sequence number.
func (s *Server) Outcomes() []traffic.Outcome {
	all := s.recorded()
	out := make([]traffic.Outcome, 0, len(all))
	for _, resp := range all {
		out = append(out, traffic.Outcome{
			Seq: resp.Seq, Status: resp.Status, Checksum: resp.Checksum,
			Cycles: resp.Cycles, Trap: resp.Trap,
		})
	}
	return out
}

// RecordedTrace returns a fresh trace of the recorded requests and
// outcomes, sorted by seq — ready for WriteFile and a later Run — or nil
// unless Config.Record is set.
func (s *Server) RecordedTrace() *traffic.Trace {
	if !s.cfg.Record {
		return nil
	}
	s.recMu.Lock()
	reqs := slices.Clone(s.requests)
	s.recMu.Unlock()
	slices.SortFunc(reqs, func(a, b traffic.Request) int { return cmp.Compare(a.Seq, b.Seq) })
	return &traffic.Trace{Version: traffic.TraceVersion, Requests: reqs, Outcomes: s.Outcomes()}
}

// Stats is a point-in-time summary of the server's work.
type Stats struct {
	Admitted  int64 `json:"admitted"`
	Rejected  int64 `json:"rejected"`
	Completed int64 `json:"completed"`
	Traps     int64 `json:"traps"`
	Canceled  int64 `json:"canceled"`
	InFlight  int   `json:"in_flight"`
	Tenants   int   `json:"tenants"`
	Chains    int   `json:"chains"`
	Epoch     int64 `json:"epoch"`
	// Virtual-cycle latency quantiles (deterministic).
	VirtualP50 int64 `json:"virtual_p50"`
	VirtualP99 int64 `json:"virtual_p99"`
	// Wall-clock latency quantiles in nanoseconds (reporting only).
	WallP50 int64 `json:"wall_p50_ns"`
	WallP99 int64 `json:"wall_p99_ns"`
	// Trace reports the register-trace tier's activity — builds,
	// per-reason degradations, entries, side exits, traps, deopts.
	// Process-global (the counters aggregate every engine in the process,
	// not only this server's, and a run adds its counts when it returns);
	// host-side diagnostics only, never a virtual observable.
	Trace interp.TraceStats `json:"trace"`
	// PlanInstall counts plan-install CAS races lost process-wide
	// (build work paid for a plan another builder landed first).
	PlanInstall interp.PlanInstallStats `json:"plan_install"`
}

// StatsNow reads the current stats. The hot-path counters are atomics,
// so this never blocks a request; quantiles come from histogram
// snapshots.
func (s *Server) StatsNow() Stats {
	var st Stats
	s.mu.Lock()
	st.Admitted = s.nextSeq
	st.InFlight = s.inflight
	st.Epoch = s.lastEpoch
	s.mu.Unlock()
	st.Rejected = s.rejected.Load()
	st.Completed = s.completed.Load()
	st.Traps = s.traps.Load()
	st.Canceled = s.canceled.Load()
	chains := s.allChains()
	st.Chains = len(chains)
	tenants := make(map[string]bool)
	for _, ch := range chains {
		tenants[ch.tenant] = true
	}
	st.Tenants = len(tenants)
	virt := s.vhist.Snapshot()
	st.VirtualP50 = virt.Quantile(0.50)
	st.VirtualP99 = virt.Quantile(0.99)
	wall := s.whist.Snapshot()
	st.WallP50 = wall.Quantile(0.50)
	st.WallP99 = wall.Quantile(0.99)
	st.Trace = interp.ReadTraceStats()
	st.PlanInstall = interp.ReadPlanInstallStats()
	return st
}

// LedgerBalanced verifies the ledgers after a drain: the chains' runs sum
// to the deterministic outcomes (ok or trap; completed minus canceled),
// and no per-run cycle-ledger cross-check failed. It reports an error
// describing the first imbalance found.
func (s *Server) LedgerBalanced() error {
	deterministic := int(s.completed.Load() - s.canceled.Load())
	s.ledgerMu.Lock()
	nledger, first := s.ledgerBad, s.ledgerFirst
	s.ledgerMu.Unlock()
	if nledger > 0 {
		return fmt.Errorf("serve: %d per-run ledger violations (first: %s)", nledger, first)
	}
	runs := 0
	for _, ch := range s.allChains() {
		runs += ch.runs
	}
	if runs != deterministic {
		return fmt.Errorf("serve: run ledger unbalanced: chains ran %d times for %d deterministic outcomes", runs, deterministic)
	}
	return nil
}

// Checkpoint writes a consistent snapshot of every chain's learned state,
// and nothing else — the session Save path, which acquires every chain's
// commit lock so no checkpoint tears mid-request.
func (s *Server) Checkpoint(w io.Writer) error {
	return s.sess.Save(w)
}
