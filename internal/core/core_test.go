package core

import (
	"bytes"
	"strings"
	"testing"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/jit"
	"evolvevm/internal/vm"
	"evolvevm/internal/xicl"
)

// workSrc: the hot method's work scales with the global n, so its ideal
// level is a function of the input.
const workSrc = `
global n
func main() locals i acc
  const 0
  store acc
  const 0
  store i
loop:
  load i
  const 60
  ige
  jnz done
  load acc
  call kernel 0
  iadd
  store acc
  iinc i 1
  jmp loop
done:
  load acc
  ret
end
func kernel() locals j acc
  const 0
  store acc
  const 0
  store j
loop:
  load j
  gload n
  ige
  jnz done
  load acc
  load j
  iadd
  store acc
  iinc j 1
  jmp loop
done:
  load acc
  ret
end
`

func testProg(t *testing.T) *bytecode.Program {
	t.Helper()
	p, err := bytecode.Assemble("coretest", workSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func features(n int64) xicl.Vector {
	return xicl.Vector{xicl.NumFeature("-n.VAL", float64(n))}
}

// oneRun executes one production run of the program under the evolver.
func oneRun(t *testing.T, ev *Evolver, n int64) (*vm.Machine, *Controller) {
	t.Helper()
	ctrl := ev.Controller(features(n), 25)
	m := vm.New(ev.prog, jit.DefaultConfig(), ctrl)
	if err := m.Engine.SetGlobal("n", bytecode.Int(n)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m, ctrl
}

func TestLearningLoop(t *testing.T) {
	ev := NewEvolver(testProg(t), DefaultConfig())
	if ev.WouldPredict() {
		t.Fatal("fresh evolver confident")
	}

	// Alternate small and large inputs; the kernel's ideal level differs.
	inputs := []int64{30, 4000, 30, 4000, 30, 4000, 4000, 30}
	var sawPrediction bool
	for i, n := range inputs {
		m, ctrl := oneRun(t, ev, n)
		rec := ctrl.Report()
		if rec == nil {
			t.Fatalf("run %d: no report", i)
		}
		if rec.Run != i+1 {
			t.Errorf("run number = %d, want %d", rec.Run, i+1)
		}
		if ctrl.Predicted() {
			sawPrediction = true
		}
		_ = m
	}
	if !sawPrediction {
		t.Error("never predicted after 8 runs of a trivially learnable relation")
	}
	if ev.Confidence() <= 0.7 {
		t.Errorf("confidence %.3f did not rise", ev.Confidence())
	}
	if ev.Runs() != len(inputs) {
		t.Errorf("runs %d, want %d", ev.Runs(), len(inputs))
	}

	// The learned strategies must be input-specific.
	kernelIdx, _ := ev.prog.FuncIndex("kernel")
	sSmall := ev.PredictStrategy(features(30))
	sLarge := ev.PredictStrategy(features(4000))
	if sSmall[kernelIdx] >= sLarge[kernelIdx] {
		t.Errorf("kernel prediction small=%d large=%d, want input-specific increase",
			sSmall[kernelIdx], sLarge[kernelIdx])
	}
}

func TestGuardBlocksImmaturePredictions(t *testing.T) {
	ev := NewEvolver(testProg(t), DefaultConfig())
	_, ctrl := oneRun(t, ev, 1000)
	if ctrl.Predicted() {
		t.Error("first run predicted with empty model")
	}
	// A sequence of bad accuracy keeps the guard shut: feed the learner
	// contradictory labels by alternating extremes faster than γ decays.
	if ev.WouldPredict() && ev.Confidence() <= ev.Config().ConfidenceThreshold {
		t.Error("WouldPredict inconsistent with threshold")
	}
}

func TestPredictedRunsInstallStrategy(t *testing.T) {
	ev := NewEvolver(testProg(t), DefaultConfig())
	for i := 0; i < 6; i++ {
		oneRun(t, ev, 4000)
	}
	if !ev.WouldPredict() {
		t.Fatal("not confident after 6 identical runs")
	}
	m, ctrl := oneRun(t, ev, 4000)
	if !ctrl.Predicted() {
		t.Fatal("no prediction despite confidence")
	}
	kernelIdx, _ := ev.prog.FuncIndex("kernel")
	if m.Level(kernelIdx) < 1 {
		t.Errorf("kernel level %d after predicted run, want >= 1", m.Level(kernelIdx))
	}
	if m.OverheadCycles <= 0 {
		t.Error("prediction charged no overhead")
	}
}

func TestRunWithoutFeaturesLearnsNothing(t *testing.T) {
	ev := NewEvolver(testProg(t), DefaultConfig())
	ctrl := ev.Controller(nil, 0)
	m := vm.New(ev.prog, jit.DefaultConfig(), ctrl)
	if err := m.Engine.SetGlobal("n", bytecode.Int(500)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if ev.Confidence() != 0 {
		t.Error("confidence moved without features")
	}
	if ev.ModelFor(0) != nil {
		t.Error("model created without features")
	}
	if ev.Runs() != 1 {
		t.Error("run not recorded")
	}
}

func TestSetFeaturesMidRun(t *testing.T) {
	// Deliver features through the runtime channel after the run begins
	// (the XICL runtime-construct path): prediction must still happen
	// and apply to already-invoked methods.
	ev := NewEvolver(testProg(t), DefaultConfig())
	for i := 0; i < 6; i++ {
		oneRun(t, ev, 4000)
	}
	ctrl := ev.Controller(nil, 10)
	m := vm.New(ev.prog, jit.DefaultConfig(), ctrl)
	if err := m.Engine.SetGlobal("n", bytecode.Int(4000)); err != nil {
		t.Fatal(err)
	}
	kernelIdx, _ := ev.prog.FuncIndex("kernel")
	delivered := false
	m.Engine.OnInvoke = func(fnIdx int, count int64) {
		m.Controller.OnInvoke(m, fnIdx, count)
		if !delivered && fnIdx == kernelIdx && count == 3 {
			delivered = true
			ctrl.SetFeatures(features(4000))
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !ctrl.Predicted() {
		t.Fatal("mid-run features did not trigger prediction")
	}
	if m.Level(kernelIdx) < 1 {
		t.Errorf("already-invoked kernel not caught up (level %d)", m.Level(kernelIdx))
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	ev := NewEvolver(testProg(t), DefaultConfig())
	for _, n := range []int64{30, 4000, 30, 4000, 800} {
		oneRun(t, ev, n)
	}
	var buf bytes.Buffer
	if err := ev.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "coretest") {
		t.Error("saved state missing program name")
	}

	ev2, err := LoadEvolver(ev.prog, DefaultConfig(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Confidence() != ev.Confidence() || ev2.Runs() != ev.Runs() {
		t.Errorf("restored conf/runs = %.3f/%d, want %.3f/%d",
			ev2.Confidence(), ev2.Runs(), ev.Confidence(), ev.Runs())
	}
	for _, n := range []int64{30, 4000} {
		a := ev.PredictStrategy(features(n))
		b := ev2.PredictStrategy(features(n))
		for fn := range a {
			if a[fn] != b[fn] {
				t.Errorf("n=%d fn=%d: prediction %d != restored %d", n, fn, a[fn], b[fn])
			}
		}
	}

	// Wrong program rejected.
	other, _ := bytecode.Assemble("otherprog", "func main()\n const 1\n ret\nend\n")
	if _, err := LoadEvolver(other, DefaultConfig(), bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("state loaded into wrong program")
	}
	// Garbage rejected.
	if _, err := LoadEvolver(ev.prog, DefaultConfig(), strings.NewReader("{nope")); err == nil {
		t.Error("garbage state accepted")
	}
}

func TestUsedFeatureNamesReflectTrees(t *testing.T) {
	ev := NewEvolver(testProg(t), DefaultConfig())
	mixed := func(n int64) xicl.Vector {
		return xicl.Vector{
			xicl.NumFeature("-n.VAL", float64(n)),
			xicl.NumFeature("constant", 42),
		}
	}
	for _, n := range []int64{30, 4000, 30, 4000, 30, 4000} {
		ctrl := ev.Controller(mixed(n), 0)
		m := vm.New(ev.prog, jit.DefaultConfig(), ctrl)
		if err := m.Engine.SetGlobal("n", bytecode.Int(n)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	used := ev.UsedFeatureNames()
	for _, u := range used {
		if u == "constant" {
			t.Error("constant feature selected into a tree")
		}
	}
	if len(used) == 0 {
		t.Error("no features used despite learnable relation")
	}
}

func TestDefaultConfigClamps(t *testing.T) {
	ev := NewEvolver(testProg(t), Config{Decay: 5, ConfidenceThreshold: 0})
	if ev.cfg.Decay != 0.7 || ev.cfg.ConfidenceThreshold != 0.7 {
		t.Errorf("bad config not clamped: %+v", ev.cfg)
	}
	// Negative thresholds survive (guard disabled, for ablations).
	ev2 := NewEvolver(testProg(t), Config{ConfidenceThreshold: -1, Decay: 0.7})
	if !ev2.WouldPredict() {
		t.Error("negative threshold did not disable the guard")
	}
}

func TestSpecFeedback(t *testing.T) {
	ev := NewEvolver(testProg(t), DefaultConfig())
	mixed := func(n int64) xicl.Vector {
		return xicl.Vector{
			xicl.NumFeature("-n.VAL", float64(n)),
			xicl.NumFeature("-q.VAL", 0), // never varies
		}
	}
	for _, n := range []int64{30, 4000, 30, 4000, 30, 4000} {
		ctrl := ev.Controller(mixed(n), 0)
		m := vm.New(ev.prog, jit.DefaultConfig(), ctrl)
		if err := m.Engine.SetGlobal("n", bytecode.Int(n)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	fb := ev.Feedback([]string{"-n.VAL", "-q.VAL"})
	if len(fb.Used) != 1 || fb.Used[0] != "-n.VAL" {
		t.Errorf("Used = %v, want [-n.VAL]", fb.Used)
	}
	if len(fb.Unused) != 1 || fb.Unused[0] != "-q.VAL" {
		t.Errorf("Unused = %v, want [-q.VAL]", fb.Unused)
	}
	if fb.MethodsModeled == 0 || fb.Examples == 0 {
		t.Errorf("coverage empty: %+v", fb)
	}
	s := fb.String()
	if !strings.Contains(s, "-q.VAL") || !strings.Contains(s, "never-used") {
		t.Errorf("report missing advice: %s", s)
	}
}
