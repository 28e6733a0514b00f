package session_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"evolvevm/internal/core"
	"evolvevm/internal/harness"
	"evolvevm/internal/programs"
	"evolvevm/internal/session"
	"evolvevm/internal/stats"
	"evolvevm/internal/xicl"
)

// fakeComponent is a minimal CrossRunState: a JSON blob it hands back.
type fakeComponent struct {
	blob json.RawMessage
}

func (f *fakeComponent) Snapshot() (json.RawMessage, error) { return f.blob, nil }
func (f *fakeComponent) Restore(b json.RawMessage) error {
	f.blob = append(json.RawMessage(nil), b...)
	return nil
}

// sameJSON compares two blobs semantically: the checkpoint encoder may
// re-indent embedded raw messages, which consumers never see because
// every unit output is read back through json.Unmarshal.
func sameJSON(t *testing.T, a, b json.RawMessage) bool {
	t.Helper()
	var va, vb any
	if err := json.Unmarshal(a, &va); err != nil {
		t.Fatalf("bad JSON %q: %v", a, err)
	}
	if err := json.Unmarshal(b, &vb); err != nil {
		t.Fatalf("bad JSON %q: %v", b, err)
	}
	return reflect.DeepEqual(va, vb)
}

func TestUnitMemoRoundTrip(t *testing.T) {
	s := session.New()
	s.CompleteUnit("b/unit", json.RawMessage(`{"x":2}`))
	s.CompleteUnit("a/unit", json.RawMessage(`[1,2,3]`))

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := session.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Unit("a/unit"); !ok || !sameJSON(t, got, json.RawMessage(`[1,2,3]`)) {
		t.Errorf("unit a/unit = %q, %v", got, ok)
	}
	if got, ok := s2.Unit("b/unit"); !ok || !sameJSON(t, got, json.RawMessage(`{"x":2}`)) {
		t.Errorf("unit b/unit = %q, %v", got, ok)
	}
	if _, ok := s2.Unit("missing"); ok {
		t.Error("missing unit reported present")
	}
	if keys := s2.UnitKeys(); !reflect.DeepEqual(keys, []string{"a/unit", "b/unit"}) {
		t.Errorf("UnitKeys = %v, want sorted pair", keys)
	}
}

func TestAttachConsumesPendingComponentBlob(t *testing.T) {
	s := session.New()
	orig := &fakeComponent{blob: json.RawMessage(`{"learned":true}`)}
	if err := s.Attach("bench/mtrt", orig); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := session.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The blob stays pending until a live component claims the name...
	fresh := &fakeComponent{}
	if err := s2.Attach("bench/mtrt", fresh); err != nil {
		t.Fatal(err)
	}
	if !sameJSON(t, fresh.blob, json.RawMessage(`{"learned":true}`)) {
		t.Errorf("attached component not restored: %q", fresh.blob)
	}
	// ...and an unrelated name restores nothing.
	other := &fakeComponent{}
	if err := s2.Attach("bench/other", other); err != nil {
		t.Fatal(err)
	}
	if other.blob != nil {
		t.Errorf("unrelated component restored from %q", other.blob)
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.json")
	s := session.New()
	s.CompleteUnit("k", json.RawMessage(`7`))
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Atomic write leaves no temp files behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries after SaveFile, want 1", len(entries))
	}
	s2, err := session.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Unit("k"); !ok || string(got) != "7" {
		t.Errorf("unit = %q, %v", got, ok)
	}
	if _, err := session.LoadFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("loading a missing checkpoint succeeded")
	}
}

func TestLoadRejectsGarbageAndWrongVersion(t *testing.T) {
	if _, err := session.Load(bytes.NewReader([]byte("{nope"))); err == nil {
		t.Error("garbage checkpoint accepted")
	}
	if _, err := session.Load(bytes.NewReader([]byte(`{"version":999}`))); err == nil {
		t.Error("future-version checkpoint accepted")
	}
}

// transfers are the two ways one BenchState's learned state reaches
// another: the JSON encoding that checkpoints use, and the in-memory
// freeze the serving tier publishes. They must be interchangeable.
var transfers = []struct {
	name string
	move func(t *testing.T, from, to *session.BenchState)
}{
	{"snapshot+restore", func(t *testing.T, from, to *session.BenchState) {
		t.Helper()
		blob, err := from.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := to.Restore(blob); err != nil {
			t.Fatal(err)
		}
	}},
	{"freeze+adopt", func(t *testing.T, from, to *session.BenchState) {
		t.Helper()
		f, err := from.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		if err := to.Adopt(f); err != nil {
			t.Fatal(err)
		}
	}},
}

func newRunner(t *testing.T, bench string) *harness.Runner {
	t.Helper()
	r, err := harness.NewRunner(programs.ByName(bench), 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sameRun fails unless two runs of one input agree in every recorded
// observable, the Evolve learning record included.
func sameRun(t *testing.T, what string, ra, rb *harness.RunResult) {
	t.Helper()
	if ra.Cycles != rb.Cycles || ra.Speedup != rb.Speedup ||
		!ra.Result.Equal(rb.Result) {
		t.Fatalf("%s: input %s: run diverged:\nwant %+v\ngot  %+v", what, ra.InputID, ra, rb)
	}
	if (ra.Scenario == harness.ScenarioEvolve && (ra.Evolve == nil || rb.Evolve == nil)) ||
		!reflect.DeepEqual(ra.Evolve, rb.Evolve) {
		t.Fatalf("%s: input %s: learning record diverged:\nwant %+v\ngot  %+v",
			what, ra.InputID, ra.Evolve, rb.Evolve)
	}
}

// run executes one input on r, failing the test on error.
func run(t *testing.T, r *harness.Runner, sc harness.Scenario, idx int) *harness.RunResult {
	t.Helper()
	res, err := r.RunOne(context.Background(), sc, r.Inputs[idx])
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runTwins runs one input under both learning scenarios — Evolve trains
// the per-method models, Rep the work history — on a learner and on its
// twin, and requires identical outcomes and identical learned state.
func runTwins(t *testing.T, what string, twin, r *harness.Runner, idx int) {
	t.Helper()
	for _, sc := range []harness.Scenario{harness.ScenarioEvolve, harness.ScenarioRep} {
		sameRun(t, what, run(t, twin, sc, idx), run(t, r, sc, idx))
	}
	want, err := twin.State.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.State.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("%s: learned state diverged from its twin's", what)
	}
}

// TestBenchStateResumeBitIdentical is the session-level persistence
// guarantee: move a benchmark's learned state mid-sequence into a fresh
// process-worth of state, along either transfer path, and the remaining
// runs must be bit-identical in every recorded observable.
func TestBenchStateResumeBitIdentical(t *testing.T) {
	for _, tc := range transfers {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			a := newRunner(t, "mtrt")
			order := a.Order(stats.Stream(9, "session-test", "order"), 20)
			half := len(order) / 2

			if _, err := a.RunSequence(ctx, harness.ScenarioEvolve, order[:half]); err != nil {
				t.Fatal(err)
			}
			b := newRunner(t, "mtrt")
			tc.move(t, a.State, b.State)
			if a.Evolver().Confidence() != b.Evolver().Confidence() ||
				a.Evolver().Runs() != b.Evolver().Runs() {
				t.Fatalf("transferred learner differs: %.6f/%d vs %.6f/%d",
					a.Evolver().Confidence(), a.Evolver().Runs(),
					b.Evolver().Confidence(), b.Evolver().Runs())
			}
			for _, idx := range order[half:] {
				sameRun(t, "resumed", run(t, a, harness.ScenarioEvolve, idx), run(t, b, harness.ScenarioEvolve, idx))
			}
		})
	}
}

// TestFreezeAdoptNeverAliases trains on both sides of a freeze. The
// frozen state shares its example and work histories with the source and
// with every adopter; if any of them could append into another's backing
// array, a learner would train on examples it never saw. Each learner is
// checked run for run against a twin whose state moved by JSON, which
// shares nothing: the source keeps training after the freeze, then two
// adopters of the one frozen state train, interleaved, on different
// inputs, and the source trains again.
func TestFreezeAdoptNeverAliases(t *testing.T) {
	src, srcJSON := newRunner(t, "compress"), newRunner(t, "compress")
	order := src.Order(stats.Stream(9, "session-test", "alias"), 30)
	for _, idx := range order[:10] {
		runTwins(t, "source before freeze", srcJSON, src, idx)
	}
	frozen, err := src.State.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := srcJSON.State.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range order[10:15] {
		runTwins(t, "source after freeze", srcJSON, src, idx)
	}

	var adopters, twins [2]*harness.Runner
	for i := range adopters {
		adopters[i], twins[i] = newRunner(t, "compress"), newRunner(t, "compress")
		if err := adopters[i].State.Adopt(frozen); err != nil {
			t.Fatal(err)
		}
		if err := twins[i].State.Restore(blob); err != nil {
			t.Fatal(err)
		}
	}
	n := len(src.Inputs)
	for step, idx := range order[15:] {
		for i := range adopters {
			in := (idx + i*(n/2+1)) % n // the adopters see different inputs
			runTwins(t, fmt.Sprintf("adopter %d step %d", i, step), twins[i], adopters[i], in)
		}
		if step%3 == 2 {
			runTwins(t, fmt.Sprintf("source step %d", step), srcJSON, src, idx)
		}
	}
}

// TestBenchStateRejectsWrongProgram: a snapshot or frozen state binds to
// its program.
func TestBenchStateRejectsWrongProgram(t *testing.T) {
	mtrt, err := programs.ByName("mtrt").Program()
	if err != nil {
		t.Fatal(err)
	}
	compress, err := programs.ByName("compress").Program()
	if err != nil {
		t.Fatal(err)
	}
	a := session.NewBenchState(mtrt, core.DefaultConfig(), xicl.NewFVCache())
	blob, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := session.NewBenchState(compress, core.DefaultConfig(), xicl.NewFVCache())
	if err := b.Restore(blob); err == nil {
		t.Error("mtrt snapshot restored into compress state")
	}
	f, err := a.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Adopt(f); err == nil {
		t.Error("frozen mtrt state adopted into compress state")
	}
	if err := b.Restore(json.RawMessage("{nope")); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

// TestBenchStateLoadsBlobWithDefaults: the testdata blob is the state
// this test trains, saved while bench states still memoized
// Default-scenario baselines, so it carries a "defaults" key. It still
// restores, and saving it again gives the bytes a snapshot of the same
// training gives now.
func TestBenchStateLoadsBlobWithDefaults(t *testing.T) {
	const path = "testdata/compress_state_with_defaults.json"
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(old, []byte(`"defaults":{`)) {
		t.Fatalf("%s has no defaults key", path)
	}
	r := newRunner(t, "compress")
	order := r.Order(stats.Stream(9, "session-test", "old-blob"), 12)
	for _, sc := range []harness.Scenario{harness.ScenarioEvolve, harness.ScenarioRep} {
		if _, err := r.RunSequence(context.Background(), sc, order); err != nil {
			t.Fatal(err)
		}
	}
	want, err := r.State.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(want, []byte(`"defaults"`)) {
		t.Fatal("a snapshot still carries baselines")
	}
	loaded := newRunner(t, "compress")
	if err := loaded.State.Restore(old); err != nil {
		t.Fatal(err)
	}
	got, err := loaded.State.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-saved old blob differs from a fresh snapshot:\ngot  %s\nwant %s", got, want)
	}
}

// errComponent fails to restore; Attach must surface the error.
type errComponent struct{}

func (errComponent) Snapshot() (json.RawMessage, error) { return json.RawMessage("{}"), nil }
func (errComponent) Restore(json.RawMessage) error      { return errors.New("corrupt") }

func TestAttachSurfacesRestoreError(t *testing.T) {
	s := session.New()
	if err := s.Attach("x", &fakeComponent{blob: json.RawMessage("{}")}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := session.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Attach("x", errComponent{}); err == nil {
		t.Error("failing Restore not surfaced by Attach")
	}
}
