package session_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"evolvevm/internal/core"
	"evolvevm/internal/harness"
	"evolvevm/internal/programs"
	"evolvevm/internal/session"
	"evolvevm/internal/stats"
	"evolvevm/internal/xicl"
)

// counterState is a CrossRunState with its own lock, standing in for
// foreign components in the Attach/Save race below.
type counterState struct {
	mu      sync.Mutex
	version int64
}

func (c *counterState) Snapshot() (json.RawMessage, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return json.Marshal(c.version)
}

func (c *counterState) Restore(blob json.RawMessage) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return json.Unmarshal(blob, &c.version)
}

// TestSaveRacesAttachAndCompleteUnit hammers Save concurrently with
// Attach and CompleteUnit under the race detector: every produced
// checkpoint must decode cleanly.
func TestSaveRacesAttachAndCompleteUnit(t *testing.T) {
	s := session.New()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // attacher: continually re-attaches components (the resume pattern)
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Attach(fmt.Sprintf("comp%d", i%4), &counterState{version: int64(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // unit completer
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.CompleteUnit(fmt.Sprintf("unit%d", i%64), json.RawMessage(`1`))
			s.Unit(fmt.Sprintf("unit%d", (i+1)%64))
			s.UnitKeys()
		}
	}()

	for i := 0; i < 100; i++ {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := session.Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("checkpoint does not decode: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSaveAtomicWithRunCommit asserts the commit-lock protocol: a writer
// that brackets [state commit, CompleteUnit] with BeginRun/EndRun can
// never be split by a concurrent Save — in every checkpoint the
// repository's recorded run count equals the number of completed units.
// Before Save pre-acquired component commit locks, a Save interleaved
// between the commit and CompleteUnit produced a checkpoint whose resume
// would replay a run the learner had already absorbed.
func TestSaveAtomicWithRunCommit(t *testing.T) {
	prog, err := programs.Compress().Program()
	if err != nil {
		t.Fatal(err)
	}
	st := session.NewBenchState(prog, core.DefaultConfig(), xicl.NewFVCache())
	s := session.New()
	if err := s.Attach("bench", st); err != nil {
		t.Fatal(err)
	}

	const commits = 300
	work := make([]int64, len(prog.Funcs))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < commits; i++ {
			st.BeginRun()
			// Commit: mutate learned state outside BenchState.mu, exactly
			// like a run's controller does, then record the unit.
			st.Repo().RecordWork(work)
			s.CompleteUnit(fmt.Sprintf("run%d", i), json.RawMessage(`1`))
			st.EndRun()
		}
	}()

	check := func() int {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		chk, err := session.Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		st2 := session.NewBenchState(prog, core.DefaultConfig(), xicl.NewFVCache())
		if err := chk.Attach("bench", st2); err != nil {
			t.Fatal(err)
		}
		runs, units := st2.Repo().Runs(), len(chk.UnitKeys())
		if runs != units {
			t.Fatalf("torn checkpoint: repository has %d runs but %d units completed", runs, units)
		}
		return units
	}
	for {
		check()
		select {
		case <-done:
			if got := check(); got != commits {
				t.Fatalf("final checkpoint has %d units, want %d", got, commits)
			}
			return
		default:
		}
	}
}

// TestSnapshotNeverTearsMidCommit races BenchState.Snapshot against
// BeginRun/EndRun-bracketed commits: every snapshot must restore cleanly
// into a fresh state, and its run count reflects a commit boundary.
func TestSnapshotNeverTearsMidCommit(t *testing.T) {
	prog, err := programs.Compress().Program()
	if err != nil {
		t.Fatal(err)
	}
	st := session.NewBenchState(prog, core.DefaultConfig(), xicl.NewFVCache())
	work := make([]int64, len(prog.Funcs))

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			st.BeginRun()
			st.Repo().RecordWork(work)
			st.EndRun()
		}
	}()
	for {
		blob, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		st2 := session.NewBenchState(prog, core.DefaultConfig(), xicl.NewFVCache())
		if err := st2.Restore(blob); err != nil {
			t.Fatalf("snapshot does not restore: %v", err)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// TestAdoptersTrainConcurrently has 8 goroutines adopt one frozen state
// and train on it at once, each on its own input rotation, while the
// source keeps training too. Run under -race it proves the shared
// histories are only ever read; each adopter's runs and final learned
// state must also match a serial twin restored from the JSON encoding of
// the same state.
func TestAdoptersTrainConcurrently(t *testing.T) {
	const adopters, steps = 8, 4
	src := newRunner(t, "compress")
	// Five runs leave the histories with spare capacity (append grows
	// them to 8), which an unclipped fork would hand to its adopters.
	order := src.Order(stats.Stream(9, "session-test", "race"), 5)
	scenarios := []harness.Scenario{harness.ScenarioEvolve, harness.ScenarioRep}
	for _, idx := range order {
		for _, sc := range scenarios {
			run(t, src, sc, idx)
		}
	}
	frozen, err := src.State.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := src.State.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	n := len(src.Inputs)
	input := func(g, step int) int { return (g + 3*step) % n }
	got := make([][]*harness.RunResult, adopters)
	rs := make([]*harness.Runner, adopters)
	var wg sync.WaitGroup
	for g := range rs {
		r := src.Fork()
		rs[g] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.State.Adopt(frozen); err != nil {
				t.Error(err)
				return
			}
			for step := 0; step < steps; step++ {
				for _, sc := range scenarios {
					res, err := r.RunOne(context.Background(), sc, r.Inputs[input(g, step)])
					if err != nil {
						t.Error(err)
						return
					}
					got[g] = append(got[g], res)
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // the source trains on while its adopters do
		defer wg.Done()
		for _, idx := range order {
			if _, err := src.RunOne(context.Background(), harness.ScenarioEvolve, src.Inputs[idx]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	for g := 0; g < adopters; g++ {
		twin := newRunner(t, "compress")
		if err := twin.State.Restore(blob); err != nil {
			t.Fatal(err)
		}
		i := 0
		for step := 0; step < steps; step++ {
			for _, sc := range scenarios {
				sameRun(t, fmt.Sprintf("adopter %d step %d", g, step), run(t, twin, sc, input(g, step)), got[g][i])
				i++
			}
		}
		want, err := twin.State.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if state, err := rs[g].State.Snapshot(); err != nil || !bytes.Equal(state, want) {
			t.Fatalf("adopter %d: learned state diverged from its twin's (err %v)", g, err)
		}
	}
}

// commitProbe is a checkpoint writer that, before taking any bytes,
// waits for a run to commit on st — as a slow disk would let other
// chains run on. It gives up after 5 s.
type commitProbe struct {
	st     *session.BenchState
	probed bool
	buf    bytes.Buffer
}

func (p *commitProbe) Write(b []byte) (int, error) {
	if !p.probed {
		p.probed = true
		committed := make(chan struct{})
		go func() {
			p.st.BeginRun()
			p.st.EndRun()
			close(committed)
		}()
		select {
		case <-committed:
		case <-time.After(5 * time.Second):
			return 0, errors.New("no run could commit while Save was writing")
		}
	}
	return p.buf.Write(b)
}

// TestSaveWritesOutsideCommitLocks: Save holds the commit locks only
// while it freezes, not while it encodes and writes, so a checkpoint to a
// slow writer never stalls the chains it captures.
func TestSaveWritesOutsideCommitLocks(t *testing.T) {
	prog, err := programs.Compress().Program()
	if err != nil {
		t.Fatal(err)
	}
	st := session.NewBenchState(prog, core.DefaultConfig(), xicl.NewFVCache())
	st.Repo().RecordWork(make([]int64, len(prog.Funcs)))
	s := session.New()
	if err := s.Attach("bench", st); err != nil {
		t.Fatal(err)
	}
	p := &commitProbe{st: st}
	if err := s.Save(p); err != nil {
		t.Fatal(err)
	}
	chk, err := session.Load(&p.buf)
	if err != nil {
		t.Fatal(err)
	}
	st2 := session.NewBenchState(prog, core.DefaultConfig(), xicl.NewFVCache())
	if err := chk.Attach("bench", st2); err != nil {
		t.Fatal(err)
	}
	if runs := st2.Repo().Runs(); runs != 1 {
		t.Fatalf("checkpoint restored %d Rep runs, want 1", runs)
	}
}
