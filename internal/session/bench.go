package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"sync"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/core"
	"evolvevm/internal/rep"
	"evolvevm/internal/xicl"
)

// BenchState bundles one benchmark's cross-run state: the Evolve
// learner, the Rep repository, the optional GC selector, and the
// memoized Default-scenario baselines. It implements CrossRunState so a
// whole benchmark's learned state checkpoints and resumes as one blob.
//
// Locking: the defaults map is written concurrently by parallel baseline
// measurements; the learners are only touched from their (serial) run
// sequences, but Freeze/Adopt may race with baseline warming, so one
// mutex covers everything.
//
// The learners themselves (Evolver, Repository, GCSelector) have no
// internal locks: a run's controller mutates them directly when the run
// commits (Controller.OnRunEnd). runMu is the commit lock that keeps
// Freeze consistent with that: the executing layer brackets every
// state-mutating run with BeginRun/EndRun, and Freeze/Adopt (so also
// Snapshot/Restore) acquire runMu first, so a capture observes the state
// strictly between run commits — never a half-applied one. Lock order:
// runMu, then mu; and never a session lock while holding either (see
// Session.Save).
type BenchState struct {
	runMu sync.Mutex
	mu    sync.Mutex
	prog  *bytecode.Program

	evolveCfg core.Config
	gcCfg     core.Config

	evolver  *core.Evolver
	repo     *rep.Repository
	gcsel    *core.GCSelector
	defaults map[string]int64
	fvcache  *xicl.FVCache
}

var _ CrossRunState = (*BenchState)(nil)

// NewBenchState returns fresh cross-run state for prog.
func NewBenchState(prog *bytecode.Program, evolveCfg core.Config) *BenchState {
	b := &BenchState{prog: prog, evolveCfg: evolveCfg}
	b.reset()
	return b
}

func (b *BenchState) reset() {
	b.evolver = core.NewEvolver(b.prog, b.evolveCfg)
	b.repo = rep.NewRepository(b.prog)
	b.gcsel = nil
	if b.defaults == nil {
		b.defaults = make(map[string]int64)
	}
	if b.fvcache == nil {
		b.fvcache = xicl.NewFVCache()
	}
}

// Reset clears the learned state (Evolve models, Rep history, GC
// selector) while keeping the memoized default baselines — those are
// deterministic properties of the inputs, not learned state.
func (b *BenchState) Reset() {
	b.runMu.Lock()
	defer b.runMu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reset()
}

// BeginRun acquires the state's commit lock for one state-mutating run.
// The run's controller mutates the learners without further locking; a
// concurrent Freeze waits at the commit boundary instead of observing a
// torn state. Callers must pair it with EndRun. Completing session
// units inside the bracket is fine (CompleteUnit takes only the session
// mutex); saving the owning session is not — Save acquires this same
// commit lock and would deadlock.
func (b *BenchState) BeginRun() { b.runMu.Lock() }

// EndRun releases the commit lock taken by BeginRun.
func (b *BenchState) EndRun() { b.runMu.Unlock() }

// Evolver returns the benchmark's Evolve learner.
func (b *BenchState) Evolver() *core.Evolver {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.evolver
}

// Repo returns the benchmark's Rep repository.
func (b *BenchState) Repo() *rep.Repository {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.repo
}

// GCSelector returns the benchmark's GC selector, creating it with cfg
// on first use (later calls ignore cfg).
func (b *BenchState) GCSelector(cfg core.Config) *core.GCSelector {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.gcsel == nil {
		b.gcCfg = cfg
		b.gcsel = core.NewGCSelector(cfg)
	}
	return b.gcsel
}

// FVCache returns the benchmark's feature-vector memo. Like the default
// baselines it survives Reset and is excluded from Freeze/Adopt:
// feature extraction is a deterministic property of the inputs, not
// learned state, so the cache is always safe to rebuild and never worth
// serializing.
func (b *BenchState) FVCache() *xicl.FVCache {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fvcache
}

// DefaultCycles returns the memoized Default-scenario cycles of an input.
func (b *BenchState) DefaultCycles(inputID string) (int64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, ok := b.defaults[inputID]
	return c, ok
}

// SetDefaultCycles memoizes an input's Default-scenario cycles.
func (b *BenchState) SetDefaultCycles(inputID string, cycles int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.defaults[inputID] = cycles
}

// Frozen is an immutable capture of a BenchState's learned state, taken
// at a run boundary by Freeze: what Snapshot encodes and what Adopt
// installs. It shares the learners' append-only histories (distinct
// examples, feature vectors, work rows) with the state it came from,
// copy-on-write, and copies the example counts, so freezing costs
// O(methods × distinct examples) rather than O(runs), and any number of
// states may adopt one Frozen concurrently. Nothing ever trains the
// learners it holds.
type Frozen struct {
	program  string
	evolver  *core.Evolver
	repo     *rep.Repository
	gcCfg    core.Config
	gcsel    *core.GCSelector // nil: the state had no GC selector
	defaults map[string]int64
}

// Freeze captures the learned state. It acquires the commit lock, so it
// observes the state between run commits, never mid-commit.
func (b *BenchState) Freeze() (*Frozen, error) {
	b.runMu.Lock()
	defer b.runMu.Unlock()
	return b.freezeLocked()
}

// freezeLocked is Freeze with the commit lock already held — the path
// Session.Save uses after pre-acquiring every component's commit lock.
func (b *BenchState) freezeLocked() (*Frozen, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ev, err := b.evolver.Fork(b.prog, b.evolveCfg)
	if err != nil {
		return nil, err
	}
	repo, err := b.repo.Fork(b.prog)
	if err != nil {
		return nil, err
	}
	f := &Frozen{program: b.prog.Name, evolver: ev, repo: repo, defaults: maps.Clone(b.defaults)}
	if b.gcsel != nil {
		f.gcCfg = b.gcCfg
		f.gcsel = b.gcsel.Fork(b.gcCfg)
	}
	return f, nil
}

// Adopt replaces the learned state with a fork of f, after any in-flight
// run commits. It is the one install path: Restore is Adopt of a decoded
// blob, and Adopt of a Freeze behaves bit-identically to Restore of the
// matching Snapshot. The Evolve config is b's and the GC selector's is
// f's; trees start stale and the Rep plan cache empty; f's default
// baselines merge into b's, and b keeps its feature-vector cache. f is
// only read.
func (b *BenchState) Adopt(f *Frozen) error {
	ev, err := f.evolver.Fork(b.prog, b.evolveCfg) // checks the program name
	if err != nil {
		return err
	}
	repo, err := f.repo.Fork(b.prog)
	if err != nil {
		return err
	}
	var gcsel *core.GCSelector
	if f.gcsel != nil {
		gcsel = f.gcsel.Fork(f.gcCfg)
	}
	b.runMu.Lock()
	defer b.runMu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.evolver, b.repo, b.gcsel = ev, repo, gcsel
	if gcsel != nil {
		b.gcCfg = f.gcCfg
	}
	maps.Copy(b.defaults, f.defaults)
	return nil
}

// benchBlob is Frozen's serialized form. The learners' own Save formats
// are embedded verbatim, so the per-component golden tests cover the
// session checkpoint too.
type benchBlob struct {
	Program    string           `json:"program"`
	Evolver    json.RawMessage  `json:"evolver,omitempty"`
	Repository json.RawMessage  `json:"repository,omitempty"`
	GCConfig   *core.Config     `json:"gcconfig,omitempty"`
	GCSelector json.RawMessage  `json:"gcselector,omitempty"`
	Defaults   map[string]int64 `json:"defaults,omitempty"`
}

// Snapshot implements CrossRunState: the JSON encoding of Freeze.
func (b *BenchState) Snapshot() (json.RawMessage, error) {
	f, err := b.Freeze()
	if err != nil {
		return nil, err
	}
	return f.encode()
}

// Restore implements CrossRunState: Adopt of the decoded blob.
func (b *BenchState) Restore(raw json.RawMessage) error {
	f, err := b.decode(raw)
	if err != nil {
		return err
	}
	return b.Adopt(f)
}

// encode writes f in benchBlob form.
func (f *Frozen) encode() (json.RawMessage, error) {
	blob := benchBlob{Program: f.program, Defaults: f.defaults}
	var buf bytes.Buffer
	if err := f.evolver.Save(&buf); err != nil {
		return nil, err
	}
	blob.Evolver = append(json.RawMessage(nil), buf.Bytes()...)
	buf.Reset()
	if err := f.repo.Save(&buf); err != nil {
		return nil, err
	}
	blob.Repository = append(json.RawMessage(nil), buf.Bytes()...)
	if f.gcsel != nil {
		buf.Reset()
		if err := f.gcsel.Save(&buf); err != nil {
			return nil, err
		}
		cfg := f.gcCfg
		blob.GCConfig = &cfg
		blob.GCSelector = append(json.RawMessage(nil), buf.Bytes()...)
	}
	return json.Marshal(blob)
}

// decode parses a benchBlob into the Frozen it encodes, bound to b's
// program and Evolve config. A component the blob omits decodes empty.
func (b *BenchState) decode(raw json.RawMessage) (*Frozen, error) {
	var blob benchBlob
	if err := json.Unmarshal(raw, &blob); err != nil {
		return nil, fmt.Errorf("session: bench state: %w", err)
	}
	if blob.Program != b.prog.Name {
		return nil, fmt.Errorf("session: bench state is for program %q, not %q", blob.Program, b.prog.Name)
	}
	f := &Frozen{
		program:  blob.Program,
		evolver:  core.NewEvolver(b.prog, b.evolveCfg),
		repo:     rep.NewRepository(b.prog),
		defaults: blob.Defaults,
	}
	if len(blob.Evolver) > 0 {
		ev, err := core.LoadEvolver(b.prog, b.evolveCfg, bytes.NewReader(blob.Evolver))
		if err != nil {
			return nil, err
		}
		f.evolver = ev
	}
	if len(blob.Repository) > 0 {
		repo, err := rep.LoadRepository(b.prog, bytes.NewReader(blob.Repository))
		if err != nil {
			return nil, err
		}
		f.repo = repo
	}
	if len(blob.GCSelector) > 0 {
		cfg := b.evolveCfg
		if blob.GCConfig != nil {
			cfg = *blob.GCConfig
		}
		sel, err := core.LoadGCSelector(cfg, bytes.NewReader(blob.GCSelector))
		if err != nil {
			return nil, err
		}
		f.gcCfg, f.gcsel = cfg, sel
	}
	return f, nil
}
