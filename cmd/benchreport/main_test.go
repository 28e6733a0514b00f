package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchText = `goos: linux
goarch: amd64
cpu: Test CPU
BenchmarkFast-8        3       100 ns/op
BenchmarkFast-8        3       120 ns/op
BenchmarkAlloc-8       2      2000 ns/op     512 B/op      7 allocs/op
PASS
`

func TestParseAggregates(t *testing.T) {
	rep, err := parse(strings.NewReader(benchText))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.CPU != "Test CPU" {
		t.Errorf("machine header not parsed: %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("want 2 benchmarks, got %d", len(rep.Benchmarks))
	}
	// Sorted by name: Alloc first.
	a, f := rep.Benchmarks[0], rep.Benchmarks[1]
	if a.Name != "BenchmarkAlloc" || a.BytesPerOp != 512 || a.AllocsPerOp != 7 {
		t.Errorf("alloc entry wrong: %+v", a)
	}
	if f.Name != "BenchmarkFast" || f.Runs != 2 || f.MinNsPerOp != 100 ||
		f.MaxNsPerOp != 120 || f.MeanNsPerOp != 110 {
		t.Errorf("fast entry wrong: %+v", f)
	}
}

func writeBenchFile(t *testing.T, dir, text string) string {
	t.Helper()
	p := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTrajectoryAppendAndReplace(t *testing.T) {
	dir := t.TempDir()
	in := writeBenchFile(t, dir, benchText)
	out := filepath.Join(dir, "traj.json")

	var stdout, stderr bytes.Buffer
	if code := runGenerate([]string{"-o", out, "-commit", "aaa", in}, &stdout, &stderr); code != 0 {
		t.Fatalf("first append exited %d: %s", code, stderr.String())
	}
	if code := runGenerate([]string{"-o", out, "-commit", "bbb", in}, &stdout, &stderr); code != 0 {
		t.Fatalf("second append exited %d: %s", code, stderr.String())
	}
	// Same commit again: replaces, does not grow.
	if code := runGenerate([]string{"-o", out, "-commit", "bbb", in}, &stdout, &stderr); code != 0 {
		t.Fatalf("replace exited %d: %s", code, stderr.String())
	}

	traj, err := loadTrajectory(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(traj.History) != 2 {
		t.Fatalf("want 2 history entries, got %d", len(traj.History))
	}
	if traj.History[0].Commit != "aaa" || traj.History[1].Commit != "bbb" {
		t.Errorf("commits wrong: %q %q", traj.History[0].Commit, traj.History[1].Commit)
	}

	snap, err := latestSnapshot(out)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Commit != "bbb" || len(snap.Benchmarks) != 2 {
		t.Errorf("latest snapshot wrong: %+v", snap)
	}
}

func TestTrajectoryMigratesFlatReport(t *testing.T) {
	dir := t.TempDir()
	in := writeBenchFile(t, dir, benchText)
	out := filepath.Join(dir, "legacy.json")

	// Seed a pre-trajectory flat report.
	legacy := Report{Benchmarks: []Entry{{Name: "BenchmarkOld", Runs: 1, MeanNsPerOp: 50}}}
	data, _ := json.Marshal(legacy)
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := runGenerate([]string{"-o", out, "-commit", "ccc", in}, &stdout, &stderr); code != 0 {
		t.Fatalf("append over flat report exited %d: %s", code, stderr.String())
	}
	traj, err := loadTrajectory(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(traj.History) != 2 {
		t.Fatalf("want migrated entry + new entry, got %d", len(traj.History))
	}
	if traj.History[0].Benchmarks[0].Name != "BenchmarkOld" {
		t.Errorf("flat report not migrated as oldest entry: %+v", traj.History[0])
	}
}

func TestFlatOutput(t *testing.T) {
	dir := t.TempDir()
	in := writeBenchFile(t, dir, benchText)
	out := filepath.Join(dir, "flat.json")
	var stdout, stderr bytes.Buffer
	if code := runGenerate([]string{"-flat", "-o", out, in}, &stdout, &stderr); code != 0 {
		t.Fatalf("flat exited %d: %s", code, stderr.String())
	}
	snap, err := latestSnapshot(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 2 {
		t.Errorf("flat snapshot wrong: %+v", snap)
	}
}

func writeSnapshot(t *testing.T, dir, name string, entries []Entry) string {
	t.Helper()
	p := filepath.Join(dir, name)
	data, err := json.Marshal(Report{Benchmarks: entries})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json", []Entry{
		{Name: "BenchmarkA", MeanNsPerOp: 1000},
		{Name: "BenchmarkB", MeanNsPerOp: 1000},
	})
	cases := []struct {
		name string
		newA float64
		newB float64
		want int
	}{
		{"improvement", 800, 900, 0},
		{"small regression", 1050, 1000, 0},
		{"warn regression", 1150, 1000, 1},
		{"hard regression", 1300, 1000, 2},
		{"hard beats warn", 1150, 1300, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newer := writeSnapshot(t, dir, "new.json", []Entry{
				{Name: "BenchmarkA", MeanNsPerOp: tc.newA},
				{Name: "BenchmarkB", MeanNsPerOp: tc.newB},
			})
			var stdout, stderr bytes.Buffer
			got := runCompare([]string{"-warn", "0.10", "-fail", "0.25", old, newer}, &stdout, &stderr)
			if got != tc.want {
				t.Errorf("exit %d, want %d\n%s%s", got, tc.want, stdout.String(), stderr.String())
			}
		})
	}
}

const serveBenchText = `BenchmarkServeLoad 	    2000	      150000 ns/op	      900000 p99-ns	      1234.5 req/s	        4096 vp50-cycles	       65536 vp99-cycles
BenchmarkServeLoad 	    2000	      160000 ns/op	     1100000 p99-ns	      1200.5 req/s	        4096 vp50-cycles	       65536 vp99-cycles
PASS
`

func TestParseCustomMetrics(t *testing.T) {
	rep, err := parse(strings.NewReader(serveBenchText))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("want 1 benchmark, got %d", len(rep.Benchmarks))
	}
	e := rep.Benchmarks[0]
	if e.Runs != 2 || e.MeanNsPerOp != 155000 {
		t.Errorf("ns/op aggregation wrong: %+v", e)
	}
	want := map[string]float64{
		"p99-ns":      1000000,
		"req/s":       1217.5,
		"vp50-cycles": 4096,
		"vp99-cycles": 65536,
	}
	for unit, v := range want {
		if got := e.Metrics[unit]; got != v {
			t.Errorf("metric %s = %v, want %v", unit, got, v)
		}
	}
	if got := e.MetricsMin["p99-ns"]; got != 900000 {
		t.Errorf("metric min p99-ns = %v, want 900000", got)
	}
}

func TestCompareGatesOnLatencyMetrics(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json", []Entry{{
		Name: "BenchmarkServeLoad", MeanNsPerOp: 1000,
		Metrics: map[string]float64{"p99-ns": 1000, "req/s": 500},
	}})
	cases := []struct {
		name string
		p99  float64
		rps  float64
		want int
	}{
		{"all flat", 1000, 500, 0},
		{"p99 warn", 1150, 500, 1},
		{"p99 fail", 1300, 500, 2},
		{"throughput drop is informational", 1000, 100, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newer := writeSnapshot(t, dir, "new.json", []Entry{{
				Name: "BenchmarkServeLoad", MeanNsPerOp: 1000,
				Metrics: map[string]float64{"p99-ns": tc.p99, "req/s": tc.rps},
			}})
			var stdout, stderr bytes.Buffer
			got := runCompare([]string{"-warn", "0.10", "-fail", "0.25", old, newer}, &stdout, &stderr)
			if got != tc.want {
				t.Errorf("exit %d, want %d\n%s%s", got, tc.want, stdout.String(), stderr.String())
			}
		})
	}
}

// TestCompareGatesOnMinOfRuns: when both sides recorded a min, the gate
// judges min-vs-min and ignores mean movement — one descheduled
// repetition inflating the mean must not read as a regression, while a
// genuinely slower min must.
func TestCompareGatesOnMinOfRuns(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json", []Entry{{
		Name: "BenchmarkA", Runs: 5, MinNsPerOp: 1000, MeanNsPerOp: 1100,
		Metrics:    map[string]float64{"p99-ns": 1100},
		MetricsMin: map[string]float64{"p99-ns": 1000},
	}})
	cases := []struct {
		name       string
		min, mean  float64
		p99, p99mn float64
		want       int
		basis      string
	}{
		// Mean blew up 2x (noisy repetition) but the min held: no gate.
		{"noisy mean ignored", 1000, 2200, 1100, 1000, 0, "min"},
		{"min regression gates", 1300, 1300, 1100, 1000, 2, "min"},
		{"metric min regression gates", 1000, 1100, 2200, 1300, 2, "min"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newer := writeSnapshot(t, dir, "new.json", []Entry{{
				Name: "BenchmarkA", Runs: 5, MinNsPerOp: tc.min, MeanNsPerOp: tc.mean,
				Metrics:    map[string]float64{"p99-ns": tc.p99},
				MetricsMin: map[string]float64{"p99-ns": tc.p99mn},
			}})
			var stdout, stderr bytes.Buffer
			got := runCompare([]string{"-warn", "0.10", "-fail", "0.25", old, newer}, &stdout, &stderr)
			if got != tc.want {
				t.Errorf("exit %d, want %d\n%s%s", got, tc.want, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.basis) {
				t.Errorf("basis %q not printed:\n%s", tc.basis, stdout.String())
			}
		})
	}
}

// TestCompareMinFallsBackToMean: baselines written before min recording
// (MinNsPerOp zero, no MetricsMin) are judged on means, and the row says
// so.
func TestCompareMinFallsBackToMean(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json", []Entry{{
		Name: "BenchmarkA", MeanNsPerOp: 1000,
		Metrics: map[string]float64{"p99-ns": 1000},
	}})
	newer := writeSnapshot(t, dir, "new.json", []Entry{{
		Name: "BenchmarkA", Runs: 5, MinNsPerOp: 1250, MeanNsPerOp: 1300,
		Metrics:    map[string]float64{"p99-ns": 1300},
		MetricsMin: map[string]float64{"p99-ns": 1250},
	}})
	var stdout, stderr bytes.Buffer
	if got := runCompare([]string{"-warn", "0.10", "-fail", "0.25", old, newer}, &stdout, &stderr); got != 2 {
		t.Errorf("exit %d, want 2 on mean fallback\n%s", got, stdout.String())
	}
	if !strings.Contains(stdout.String(), "mean") {
		t.Errorf("mean basis not printed:\n%s", stdout.String())
	}
}

func TestCompareNewBenchmarkIsNotRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json", []Entry{{Name: "BenchmarkA", MeanNsPerOp: 1000}})
	newer := writeSnapshot(t, dir, "new.json", []Entry{
		{Name: "BenchmarkA", MeanNsPerOp: 1000},
		{Name: "BenchmarkNew", MeanNsPerOp: 123456},
	})
	var stdout, stderr bytes.Buffer
	if got := runCompare([]string{old, newer}, &stdout, &stderr); got != 0 {
		t.Errorf("exit %d, want 0 for newly added benchmark\n%s", got, stdout.String())
	}
	if !strings.Contains(stdout.String(), "new") {
		t.Errorf("new benchmark not reported:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "1 benchmark(s) not in baseline") {
		t.Errorf("skip note missing:\n%s", stdout.String())
	}
	// Even a grossly slower new benchmark must not gate: there is no
	// baseline to regress against.
	slower := writeSnapshot(t, dir, "slower.json", []Entry{
		{Name: "BenchmarkA", MeanNsPerOp: 1000},
		{Name: "BenchmarkNew", MeanNsPerOp: 9e9},
	})
	stdout.Reset()
	if got := runCompare([]string{"-warn", "0.01", "-fail", "0.02", old, slower}, &stdout, &stderr); got != 0 {
		t.Errorf("exit %d, want 0: new benchmark gated against missing baseline\n%s", got, stdout.String())
	}
}

func TestCompareReportsGoneBenchmarks(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json", []Entry{
		{Name: "BenchmarkA", MeanNsPerOp: 1000, Runs: 5},
		{Name: "BenchmarkRemoved", MeanNsPerOp: 4321, Runs: 5},
	})
	newer := writeSnapshot(t, dir, "new.json", []Entry{{Name: "BenchmarkA", MeanNsPerOp: 1000, Runs: 5}})
	var stdout, stderr bytes.Buffer
	if got := runCompare([]string{old, newer}, &stdout, &stderr); got != 0 {
		t.Errorf("exit %d, want 0: a missing benchmark is informational\n%s", got, stdout.String())
	}
	var row string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(line, "BenchmarkRemoved ") {
			row = line
		}
	}
	if !strings.Contains(row, "4321") || !strings.Contains(row, "gone") {
		t.Errorf("removed benchmark not listed as gone with its baseline value:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "note: 1 baseline benchmark(s) missing from the new run") {
		t.Errorf("gone count note missing:\n%s", stdout.String())
	}
}

func TestCompareMissingFile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := runCompare([]string{"/nonexistent/a.json", "/nonexistent/b.json"}, &stdout, &stderr); got != 2 {
		t.Errorf("exit %d, want 2 for unreadable input", got)
	}
}
