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
// engine's sample-boundary cancellation check.
package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"io"
	"math"
	"runtime"
	"sort"
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
	// Scenario selects the optimization controller (default Evolve).
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
	// Record captures every live-submitted request and outcome into a
	// trace retrievable with RecordedTrace.
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

// shardCount stripes the chain and outcome maps. 16 matches
// internal/stripe's default — enough to spread any plausible worker
// count without making snapshot iteration expensive.
const shardCount = 16

var chainSeed = maphash.MakeSeed()

// chainShard is one stripe of the chain map; its mutex guards only the
// map structure, never chain state (chains are touched only from their
// serially-executing pool tasks).
type chainShard struct {
	mu sync.Mutex
	m  map[string]*chain
}

// chainMap is the lock-striped chain key → chain map. Different chains
// resolve on different shards, so concurrent tasks creating or looking
// up chains no longer serialize on one global chainMu.
type chainMap struct {
	shards [shardCount]chainShard
}

func (cm *chainMap) init() {
	for i := range cm.shards {
		cm.shards[i].m = make(map[string]*chain)
	}
}

func (cm *chainMap) shard(key string) *chainShard {
	return &cm.shards[maphash.String(chainSeed, key)%shardCount]
}

// get returns the chain for key, or nil.
func (cm *chainMap) get(key string) *chain {
	sh := cm.shard(key)
	sh.mu.Lock()
	ch := sh.m[key]
	sh.mu.Unlock()
	return ch
}

// all collects every chain across shards (order unspecified).
func (cm *chainMap) all() []*chain {
	var out []*chain
	for i := range cm.shards {
		sh := &cm.shards[i]
		sh.mu.Lock()
		for _, ch := range sh.m {
			out = append(out, ch)
		}
		sh.mu.Unlock()
	}
	return out
}

// outcomeShard is one stripe of the outcome map, sharded by seq.
type outcomeShard struct {
	mu sync.Mutex
	m  map[int64]*Response
}

// outcomeMap collects finished requests by seq behind striped locks, so
// concurrent completions on different workers no longer serialize on one
// global outMu. Per-tenant checksums fold outcomes in seq order at read
// time, so collection order (which is racy) never matters.
type outcomeMap struct {
	shards [shardCount]outcomeShard
}

func (om *outcomeMap) init() {
	for i := range om.shards {
		om.shards[i].m = make(map[int64]*Response)
	}
}

func (om *outcomeMap) put(resp *Response) {
	sh := &om.shards[uint64(resp.Seq)%shardCount]
	sh.mu.Lock()
	sh.m[resp.Seq] = resp
	sh.mu.Unlock()
}

// all returns every recorded response sorted by seq.
func (om *outcomeMap) all() []*Response {
	var out []*Response
	for i := range om.shards {
		sh := &om.shards[i]
		sh.mu.Lock()
		for _, resp := range sh.m {
			out = append(out, resp)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Server is the multi-tenant serving front end. Create with New, submit
// with Submit/TrySubmit (live) or Run/RunClients (trace replay), stop
// with Close.
type Server struct {
	cfg    Config
	protos map[string]*harness.Runner // per-benchmark prototype runners

	pool *sched.Chains
	sess *session.Session

	// mu is the admission lock: it orders sequence-number assignment,
	// admission accounting, epoch-barrier enqueueing, and (live) pool
	// submission, making pool queue order equal seq order — the
	// determinism source. It is intentionally narrow: completion
	// bookkeeping, outcome recording, and stat counters all live outside
	// it on striped or atomic state.
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

	// chains and out are lock-striped; see chainMap and outcomeMap.
	chains chainMap
	out    outcomeMap

	// Latency histograms: per-tenant virtual cycles (striped map of
	// atomic histograms) and wall nanos (reporting only, one atomic
	// histogram).
	vhist traffic.ShardedTenantHistograms
	whist traffic.AtomicHistogram

	// Per-run cycle-ledger violations: a count and the first message,
	// so a long-running server's memory stays bounded however many fail.
	ledgerMu    sync.Mutex
	ledgerBad   int
	ledgerFirst string

	traceMu sync.Mutex
	trace   *traffic.Trace // live recording (cfg.Record); set once in New
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
		lastEpoch: -1,
	}
	s.chains.init()
	s.out.init()
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
	if cfg.Record {
		s.trace = &traffic.Trace{Version: traffic.TraceVersion}
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
	for {
		if s.closed {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		if s.cfg.TenantCap > 0 && s.perTenant[tenant] >= s.cfg.TenantCap {
			s.mu.Unlock()
			s.rejected.Add(1)
			return nil, ErrTenantBusy
		}
		if s.inflight < s.cfg.QueueDepth {
			break
		}
		if !wait {
			s.mu.Unlock()
			s.rejected.Add(1)
			return nil, ErrQueueFull
		}
		s.waiters++
		s.space.Wait()
		s.waiters--
	}
	req.Seq = s.nextSeq
	s.nextSeq++
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

// admitLocked records, epoch-gates, and enqueues one admitted request.
// Caller holds s.mu; the queue slot is already reserved.
func (s *Server) admitLocked(req traffic.Request, done chan<- *Response) {
	s.inflight++
	s.perTenant[req.Tenant]++
	if s.trace != nil {
		s.traceMu.Lock()
		s.trace.Requests = append(s.trace.Requests, req)
		s.traceMu.Unlock()
	}
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

// Run executes a trace in sequence order through the pool and drains.
// Sequence numbers recorded as canceled are reproduced as canceled
// without executing — live cancellation is a wall-clock event, and
// replay must not depend on wall clocks. Tenant caps don't apply (the
// trace already passed admission when it was recorded); queue-depth
// backpressure does, bounding memory.
func (s *Server) Run(ctx context.Context, tr *traffic.Trace) error {
	return s.RunClients(ctx, tr, 1)
}

// ClientOf deterministically assigns a chain to one of n replay clients.
// The hash is FNV-1a of the chain key — stable across processes and
// machines, so recorded per-client checksums compare across runs (unlike
// maphash, which is seeded per process).
func ClientOf(chainKey string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(chainKey))
	return int(h.Sum32() % uint32(n))
}

// RunClients executes a trace through the pool using n concurrent
// submission loops and drains. Virtual observables are byte-identical to
// Run's for every n:
//
//   - Requests are partitioned by chain (ClientOf), so each chain's
//     requests are submitted by one client in seq order — and a chain's
//     tasks execute serially in submission order (sched.Chains), which
//     preserves rule 1 of the determinism argument.
//   - Submission proceeds in epoch lockstep: no client submits a request
//     of epoch k+1 until every client has finished submitting epoch k.
//     The last client to reach the epoch latch enqueues the epoch
//     barrier while it still holds the latch, so the barrier lands
//     between the last epoch-k submission and the first epoch-k+1
//     submission — exactly where the serial loop puts it. Barriers are
//     enqueued only for epochs that have at least one executed
//     (non-canceled) request, matching the serial loop's epoch-crossing
//     rule.
//
// Queue-depth backpressure cannot deadlock the latch: a client blocked
// on a queue slot is waiting on running tasks, all of which come from
// epochs whose submissions already passed the latch.
func (s *Server) RunClients(ctx context.Context, tr *traffic.Trace, n int) error {
	if n < 1 {
		n = 1
	}
	if len(tr.Requests) == 0 {
		s.Drain()
		return nil
	}
	om := tr.OutcomeMap()
	for _, req := range tr.Requests {
		if s.protos[req.Bench] == nil {
			return fmt.Errorf("serve: trace request %d wants unserved benchmark %q", req.Seq, req.Bench)
		}
	}
	epochLen := int64(s.cfg.EpochLength)
	var maxSeq int64
	executed := make(map[int64]bool) // epochs with ≥1 non-canceled request
	for _, req := range tr.Requests {
		if req.Seq > maxSeq {
			maxSeq = req.Seq
		}
		if o, ok := om[req.Seq]; !ok || o.Status != traffic.StatusCanceled {
			executed[req.Seq/epochLen] = true
		}
	}
	epochs := maxSeq/epochLen + 1

	// parts[c][e] is client c's epoch-e requests. Trace requests are
	// densely numbered (traffic.Load validates), so iteration order is
	// seq order and each slice stays seq-sorted.
	parts := make([][][]traffic.Request, n)
	for c := range parts {
		parts[c] = make([][]traffic.Request, epochs)
	}
	for _, req := range tr.Requests {
		c := ClientOf(req.Chain(), n)
		e := req.Seq / epochLen
		parts[c][e] = append(parts[c][e], req)
	}

	// Mirror the serial loop's lastEpoch bookkeeping: epoch 0 is current
	// as soon as its first request is admitted, with no barrier.
	if executed[0] {
		s.mu.Lock()
		if s.lastEpoch < 0 {
			s.lastEpoch = 0
		}
		s.mu.Unlock()
	}

	var (
		latch    = newEpochLatch(n)
		aborted  atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	abort := func(err error) {
		errOnce.Do(func() { firstErr = err })
		aborted.Store(true)
	}
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for e := int64(0); e < epochs; e++ {
				if !aborted.Load() {
					for _, req := range parts[c][e] {
						if err := ctx.Err(); err != nil {
							abort(err)
							break
						}
						if o, ok := om[req.Seq]; ok && o.Status == traffic.StatusCanceled {
							s.record(&Response{
								Seq: req.Seq, Tenant: req.Tenant, Bench: req.Bench,
								Status: traffic.StatusCanceled,
							}, 0)
							continue
						}
						req := req
						req.DeadlineMicros = 0 // statuses come from the record, not live timing
						if err := s.admitReplay(req); err != nil {
							abort(err)
							break
						}
					}
				}
				next := e + 1
				latch.arrive(func() {
					if aborted.Load() || next >= epochs || !executed[next] {
						return
					}
					s.pool.Barrier(s.publish)
					s.mu.Lock()
					if next > s.lastEpoch {
						s.lastEpoch = next
					}
					s.mu.Unlock()
				})
			}
		}(c)
	}
	wg.Wait()
	s.Drain()
	return firstErr
}

// admitReplay admits one replayed request and enqueues its task. Unlike
// the live path, pool submission happens outside s.mu: per-chain order
// is already guaranteed by the owning client's serial submission loop,
// and cross-chain pool order is irrelevant between barriers.
func (s *Server) admitReplay(req traffic.Request) error {
	s.mu.Lock()
	for !s.closed && s.inflight >= s.cfg.QueueDepth {
		s.waiters++
		s.space.Wait()
		s.waiters--
	}
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if req.Seq >= s.nextSeq {
		s.nextSeq = req.Seq + 1
	}
	s.inflight++
	s.perTenant[req.Tenant]++
	s.mu.Unlock()
	if s.trace != nil {
		s.traceMu.Lock()
		s.trace.Requests = append(s.trace.Requests, req)
		s.traceMu.Unlock()
	}
	s.pool.Go(req.Chain(), func() {
		resp := s.execute(req)
		s.finish(req, resp)
	})
	return nil
}

// epochLatch is a reusable rendezvous for the replay clients: every
// party arrives, the last arriver runs onLast while the latch is still
// held (so no party races ahead of the barrier it enqueues), then all
// parties release into the next round together.
type epochLatch struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	arrived int
	round   int64
}

func newEpochLatch(parties int) *epochLatch {
	l := &epochLatch{parties: parties}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *epochLatch) arrive(onLast func()) {
	l.mu.Lock()
	l.arrived++
	if l.arrived == l.parties {
		onLast()
		l.arrived = 0
		l.round++
		l.cond.Broadcast()
		l.mu.Unlock()
		return
	}
	r := l.round
	for l.round == r {
		l.cond.Wait()
	}
	l.mu.Unlock()
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

	// BeginRun/EndRun bracket the learner mutation and the session unit
	// so checkpoints never tear between them (see session.BenchState).
	// Only cancellation skips the unit: a canceled run committed nothing
	// and replay reproduces it without executing, so it must leave no
	// ledger trace; every deterministic outcome completes exactly one.
	ch.runner.State.BeginRun()
	res, err := ch.runner.RunRequest(ctx, s.cfg.Scenario, in)
	var cerr *interp.CanceledError
	canceled := err != nil && errors.As(err, &cerr)
	if !canceled {
		var key [24]byte
		s.sess.CompleteUnit(string(strconv.AppendInt(append(key[:0], "seq:"...), req.Seq, 10)), nil)
		ch.runs++
	}
	ch.runner.State.EndRun()
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
	sh := s.chains.shard(key)
	sh.mu.Lock()
	ch := sh.m[key]
	if ch == nil {
		ch = &chain{
			tenant: req.Tenant,
			bench:  req.Bench,
			runner: s.protos[req.Bench].Fork(),
		}
		sh.m[key] = ch
		sh.mu.Unlock()
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
	sh.mu.Unlock()
	return ch
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
	// independent, so shard iteration order doesn't matter.
	best := make(map[string]*chain)
	for _, ch := range s.chains.all() {
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
// Recording happens entirely on striped/atomic state; only the slot
// release takes s.mu, and it wakes exactly one blocked submitter (plus
// the drain waiters when the pool empties) instead of broadcasting to
// every waiter on every completion.
func (s *Server) finish(req traffic.Request, resp *Response) {
	s.record(resp, resp.Wall.Nanoseconds())
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

func (s *Server) record(resp *Response, wallNanos int64) {
	s.out.put(resp)
	s.completed.Add(1)
	switch resp.Status {
	case traffic.StatusTrap:
		s.traps.Add(1)
	case traffic.StatusCanceled:
		s.canceled.Add(1)
	}
	if resp.Status != traffic.StatusCanceled {
		s.vhist.Observe(resp.Tenant, resp.Cycles)
	}
	if wallNanos > 0 {
		s.whist.Observe(wallNanos)
	}
	if s.trace != nil {
		s.traceMu.Lock()
		s.trace.Outcomes = append(s.trace.Outcomes, traffic.Outcome{
			Seq: resp.Seq, Status: resp.Status, Checksum: resp.Checksum,
			Cycles: resp.Cycles, Trap: resp.Trap,
		})
		s.traceMu.Unlock()
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
// "tenant|bench|input|status|trap|kind|i|fbits|cycles|predicted", with
// the integers in decimal (Value.Kind as its number) and predicted as
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
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TenantChecksums folds every tenant's outcomes — in sequence order, so
// the value is independent of completion interleaving — into one
// checksum per tenant. Two servers that serve the same trace must agree
// on every fold, whatever their worker counts.
func (s *Server) TenantChecksums() map[string]uint64 {
	hs := make(map[string]*fnvState)
	for _, o := range s.out.all() {
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

// Outcomes returns every recorded outcome sorted by sequence number.
func (s *Server) Outcomes() []traffic.Outcome {
	all := s.out.all()
	out := make([]traffic.Outcome, 0, len(all))
	for _, resp := range all {
		out = append(out, traffic.Outcome{
			Seq: resp.Seq, Status: resp.Status, Checksum: resp.Checksum,
			Cycles: resp.Cycles, Trap: resp.Trap,
		})
	}
	return out
}

// RecordedTrace returns the live-recorded trace (Config.Record), with
// requests and outcomes sorted by seq — ready for WriteFile and later
// Run. (Multi-client replay appends requests in admission-race order, so
// both slices need the sort.)
func (s *Server) RecordedTrace() *traffic.Trace {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	if s.trace == nil {
		return nil
	}
	sort.Slice(s.trace.Requests, func(i, j int) bool {
		return s.trace.Requests[i].Seq < s.trace.Requests[j].Seq
	})
	sort.Slice(s.trace.Outcomes, func(i, j int) bool {
		return s.trace.Outcomes[i].Seq < s.trace.Outcomes[j].Seq
	})
	return s.trace
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
	// per-reason degradations, head/OSR entries, linked (in-register)
	// transitions, side exits, deopts, guard failures, inlined calls.
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
	chains := s.chains.all()
	st.Chains = len(chains)
	tenants := make(map[string]bool)
	for _, ch := range chains {
		tenants[ch.tenant] = true
	}
	st.Tenants = len(tenants)
	all := s.vhist.Merged()
	st.VirtualP50 = all.Quantile(0.50)
	st.VirtualP99 = all.Quantile(0.99)
	wall := s.whist.Snapshot()
	st.WallP50 = wall.Quantile(0.50)
	st.WallP99 = wall.Quantile(0.99)
	st.Trace = interp.ReadTraceStats()
	st.PlanInstall = interp.ReadPlanInstallStats()
	return st
}

// TenantHistogram returns a copy of one tenant's virtual-cycle latency
// histogram (zero histogram if the tenant never completed a request).
func (s *Server) TenantHistogram(tenant string) traffic.Histogram {
	return s.vhist.Snapshot(tenant)
}

// LedgerBalanced verifies the session ledger after a drain: every
// deterministic outcome (ok or trap) completed exactly one session unit,
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
	units := len(s.sess.UnitKeys())
	if units != deterministic {
		return fmt.Errorf("serve: session ledger unbalanced: %d units for %d deterministic outcomes", units, deterministic)
	}
	return nil
}

// Checkpoint writes a consistent snapshot of every chain's learned state
// plus the completed-unit ledger — the session Save path, which acquires
// every chain's commit lock so no checkpoint tears mid-request.
func (s *Server) Checkpoint(w io.Writer) error {
	return s.sess.Save(w)
}
