package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// spread is one side's round-to-round host noise: ten rounds within ±5%.
var spread = []float64{1.00, 1.04, 0.97, 1.02, 0.99, 1.05, 0.96, 1.01, 1.03, 0.98}

// noisy returns ten rounds of center moved by spread.
func noisy(center float64) []float64 {
	v := make([]float64, len(spread))
	for k, s := range spread {
		v[k] = center * s
	}
	return v
}

// scaled returns vals times one factor each round, or times f[k] in
// round k.
func scaled(vals []float64, f ...float64) []float64 {
	v := make([]float64, len(vals))
	for k, x := range vals {
		v[k] = x * f[min(k, len(f)-1)]
	}
	return v
}

// benchRows renders a go-bench row, one line per round.
func benchRows(name string, ns []float64) string {
	var b strings.Builder
	for _, v := range ns {
		fmt.Fprintf(&b, "%s-2  \t      10\t %12.1f ns/op\t     512 B/op\t       7 allocs/op\n", name, v)
	}
	return b.String()
}

// perfRows renders one perfbench metric of a correct, failure-free
// workload run per round.
func perfRows(workload, metric string, vals []float64) string {
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, "%s {\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{%q:{\"value\":%g,\"unit\":\"x\"}}}\n", workload, metric, v)
	}
	return b.String()
}

// compareSides writes the two sides' output and runs compare on them
// from the repository root, whose BENCHMARK.json bounds the perfbench
// metrics.
func compareSides(t *testing.T, base, change string, args ...string) (int, string, string) {
	t.Helper()
	dir := t.TempDir()
	b, c := filepath.Join(dir, "base.out"), filepath.Join(dir, "change.out")
	for p, text := range map[string]string{b: base, c: change} {
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir("../..")
	var stdout, stderr bytes.Buffer
	got := runCompare(append(args, b, c), &stdout, &stderr)
	return got, stdout.String(), stderr.String()
}

func TestParseAggregates(t *testing.T) {
	s, err := parse(strings.NewReader(`goos: linux
goarch: amd64
cpu: Test CPU
BenchmarkFast-8        3       100 ns/op
BenchmarkAlloc-8       2      2000 ns/op     512 B/op      7 allocs/op
BenchmarkFast-8        3       120 ns/op
PASS
ok  	evolvevm	1.234s
`))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]float64{"BenchmarkFast-8": {100, 120}, "BenchmarkAlloc-8": {2000}}
	if len(s.rows) != len(want) {
		t.Fatalf("rows %v, want %v", s.rows, want)
	}
	for name, v := range want {
		if !slices.Equal(s.rows[name], v) {
			t.Errorf("row %s = %v, want %v in round order", name, s.rows[name], v)
		}
	}
}

// TestParseCustomMetrics: a perfbench line adds each of its metrics to
// the row "workload metric" and keeps the run's correctness and failure
// counts; a go-bench line's custom units make no row.
func TestParseCustomMetrics(t *testing.T) {
	s, err := parse(strings.NewReader(`BenchmarkServe-2  100  150000 ns/op  900000 p99-ns  1234.5 req/s
churn-http {"correct":true,"attempted":1700,"failed":2,"metrics":{"throughput_rps":{"value":2100.5,"unit":"1/s"},"latency_p99_ms":{"value":9.5,"unit":"ms"}}}
churn-http {"correct":false,"attempted":1700,"failed":0,"metrics":{"throughput_rps":{"value":1900,"unit":"1/s"},"latency_p99_ms":{"value":8.5,"unit":"ms"}}}
`))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]float64{
		"BenchmarkServe-2":          {150000},
		"churn-http throughput_rps": {2100.5, 1900},
		"churn-http latency_p99_ms": {9.5, 8.5},
	}
	if len(s.rows) != len(want) {
		t.Fatalf("rows %v, want %v", s.rows, want)
	}
	for name, v := range want {
		if !slices.Equal(s.rows[name], v) {
			t.Errorf("row %s = %v, want %v", name, s.rows[name], v)
		}
	}
	runs := s.runs["churn-http"]
	if len(runs) != 2 || !runs[0].Correct || runs[0].Failed != 2 || runs[0].Attempted != 1700 || runs[1].Correct {
		t.Errorf("runs %+v, want a correct run failing 2 of 1700, then an incorrect one", runs)
	}
}

func TestCompareExitCodes(t *testing.T) {
	a, b := noisy(1000), noisy(5000)
	cases := []struct {
		name   string
		fa, fb []float64 // per-round factors of the change
		want   int
	}{
		{"improvement", []float64{0.8}, []float64{0.9}, 0},
		{"small regression", []float64{1.05}, []float64{1}, 0},
		{"warn regression", []float64{1.15}, []float64{1}, 1},
		{"hard regression", []float64{1.30}, []float64{1}, 2},
		{"hard beats warn", []float64{1.15}, []float64{1.30}, 2},
		{"30 pct slower in 9 of 10 rounds", []float64{1.3, 1.3, 1.3, 1.3, 0.95, 1.3, 1.3, 1.3, 1.3, 1.3}, []float64{1}, 2},
		{"12 pct slower", []float64{1.12}, []float64{1}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := benchRows("BenchmarkA", a) + benchRows("BenchmarkB", b)
			change := benchRows("BenchmarkA", scaled(a, tc.fa...)) + benchRows("BenchmarkB", scaled(b, tc.fb...))
			got, stdout, stderr := compareSides(t, base, change, "-warn", "0.10", "-fail", "0.25")
			if got != tc.want {
				t.Errorf("exit %d, want %d\n%s%s", got, tc.want, stdout, stderr)
			}
		})
	}
}

// TestCompareGatesOnLatencyMetrics: perfbench end-to-end metrics gate on
// their BENCHMARK.json bounds (0.25 for both below) and directions.
func TestCompareGatesOnLatencyMetrics(t *testing.T) {
	p99, rps := noisy(30), noisy(2000)
	cases := []struct {
		name   string
		fp, fr float64
		want   int
	}{
		{"all flat", 1, 1, 0},
		{"p99 warn", 1.15, 1, 1},
		{"p99 fail", 1.30, 1, 2},
		{"throughput drop fails", 1, 0.70, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := perfRows("warm-closed", "latency_p99_ms", p99) + perfRows("warm-closed", "throughput_rps", rps)
			change := perfRows("warm-closed", "latency_p99_ms", scaled(p99, tc.fp)) +
				perfRows("warm-closed", "throughput_rps", scaled(rps, tc.fr))
			got, stdout, stderr := compareSides(t, base, change, "-warn", "0.10", "-fail", "0.25")
			if got != tc.want {
				t.Errorf("exit %d, want %d\n%s%s", got, tc.want, stdout, stderr)
			}
		})
	}
}

// TestCompareAbsorbsHostLoad: host load that moves both sides of each
// round together, as over ten warm-closed pairs whose parent spread
// 1479–2303 req/s, cancels in the paired ratios; a 30% drop under the
// same load still fails.
func TestCompareAbsorbsHostLoad(t *testing.T) {
	host := []float64{1479, 2303, 1550, 2176, 1899, 1620, 2250, 1700, 2010, 1820}
	base := perfRows("warm-closed", "throughput_rps", host)
	jitter := []float64{0.97, 1.02, 1.01, 0.98, 1.03, 0.99, 1.00, 1.02, 0.97, 1.01}
	if got, stdout, stderr := compareSides(t, base, perfRows("warm-closed", "throughput_rps", scaled(host, jitter...))); got != 0 {
		t.Errorf("exit %d under host load alone, want 0\n%s%s", got, stdout, stderr)
	}
	if got, stdout, stderr := compareSides(t, base, perfRows("warm-closed", "throughput_rps", scaled(host, 0.7))); got != 2 {
		t.Errorf("exit %d on a 30%% drop under host load, want 2\n%s%s", got, stdout, stderr)
	}
}

// TestCompareIgnoresOneSlowRound: one paper-batch round whose change run
// reads latency_p99_ms 1.67× its pair (883.9 against 529.8 ms) moves
// neither the median ratio nor the count of worse rounds.
func TestCompareIgnoresOneSlowRound(t *testing.T) {
	p99 := noisy(529.8)
	f := []float64{1, 0.99, 1.01, 1, 0.98, 1.02, 1, 883.9 / 529.8, 1, 0.99}
	got, stdout, stderr := compareSides(t, perfRows("paper-batch", "latency_p99_ms", p99), perfRows("paper-batch", "latency_p99_ms", scaled(p99, f...)))
	if got != 0 {
		t.Errorf("exit %d, want 0\n%s%s", got, stdout, stderr)
	}
}

// TestCompareGatesCorrectness: an incorrect change run, or one failing a
// larger share of its operations than the base run of its round, fails
// the comparison whatever its timings; the base's failures do not.
func TestCompareGatesCorrectness(t *testing.T) {
	run := func(correct bool, failed int) string {
		return fmt.Sprintf("churn-http {\"correct\":%t,\"attempted\":1500,\"failed\":%d,\"metrics\":{\"throughput_rps\":{\"value\":2000,\"unit\":\"1/s\"}}}\n", correct, failed)
	}
	ok := strings.Repeat(run(true, 0), 9)
	cases := []struct {
		name         string
		base, change string
		want         int
	}{
		{"incorrect change run", ok + run(true, 0), ok + run(false, 0), 2},
		{"larger failed share", ok + run(true, 1), ok + run(true, 3), 2},
		{"base failures", ok + run(false, 3), ok + run(true, 0), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, stdout, stderr := compareSides(t, tc.base, tc.change)
			if got != tc.want {
				t.Errorf("exit %d, want %d\n%s%s", got, tc.want, stdout, stderr)
			}
			if tc.want == 2 && !strings.Contains(stdout, "churn-http round 10") {
				t.Errorf("failing round not named:\n%s", stdout)
			}
		})
	}
}

func TestCompareNewBenchmarkIsNotRegression(t *testing.T) {
	a := noisy(1000)
	base := benchRows("BenchmarkA", a)
	// Even a grossly slow row must not gate: it has no pair to regress
	// against.
	change := base + benchRows("BenchmarkNew", noisy(9e9))
	got, stdout, stderr := compareSides(t, base, change, "-warn", "0.01", "-fail", "0.02")
	if got != 0 {
		t.Errorf("exit %d, want 0 for a row on the change side only\n%s%s", got, stdout, stderr)
	}
	if !strings.Contains(stdout, "BenchmarkNew-2") || !strings.Contains(stdout, "change only") {
		t.Errorf("new row not listed:\n%s", stdout)
	}
	if !strings.Contains(stdout, "note: 1 row(s) on one side only") {
		t.Errorf("one-sided note missing:\n%s", stdout)
	}
}

func TestCompareReportsGoneBenchmarks(t *testing.T) {
	a := noisy(1000)
	base := benchRows("BenchmarkA", a) + benchRows("BenchmarkRemoved", []float64{4321})
	got, stdout, stderr := compareSides(t, base, benchRows("BenchmarkA", a))
	if got != 0 {
		t.Errorf("exit %d, want 0: a row missing from the change is informational\n%s%s", got, stdout, stderr)
	}
	var row string
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "BenchmarkRemoved-2 ") {
			row = line
		}
	}
	if !strings.Contains(row, "4321") || !strings.Contains(row, "base only") {
		t.Errorf("removed row not listed as base only with its median:\n%s", stdout)
	}
}

// TestCompareUnequalSamplesIsError: a row whose sides have different
// sample counts cannot be paired, and is an error rather than a pass.
func TestCompareUnequalSamplesIsError(t *testing.T) {
	a := noisy(1000)
	got, stdout, stderr := compareSides(t, benchRows("BenchmarkA", a), benchRows("BenchmarkA", a[:9]))
	if got != 2 {
		t.Errorf("exit %d, want 2\n%s%s", got, stdout, stderr)
	}
	if !strings.Contains(stderr, "10 base samples, 9 change samples") {
		t.Errorf("error does not name the counts:\n%s", stderr)
	}
}

// TestCompareUnknownMetricIsError: a perfbench metric BENCHMARK.json
// gives no bound or direction cannot be judged.
func TestCompareUnknownMetricIsError(t *testing.T) {
	rows := perfRows("warm-closed", "no_such_metric", noisy(1))
	if got, stdout, stderr := compareSides(t, rows, rows); got != 2 || !strings.Contains(stderr, "no end-to-end metric no_such_metric") {
		t.Errorf("exit %d, want 2 naming the metric\n%s%s", got, stdout, stderr)
	}
}

// TestCompareTiesCountForNeitherSide: rounds with equal values are not
// worse rounds, so 8 slower rounds and 2 ties do not gate although the
// median ratio is 1.3, while 9 slower rounds and a tie do.
func TestCompareTiesCountForNeitherSide(t *testing.T) {
	a := noisy(1000)
	for _, tc := range []struct {
		worse, want int
	}{{8, 0}, {9, 2}} {
		f := make([]float64, len(a))
		for k := range f {
			f[k] = 1
			if k < tc.worse {
				f[k] = 1.3
			}
		}
		got, stdout, stderr := compareSides(t, benchRows("BenchmarkA", a), benchRows("BenchmarkA", scaled(a, f...)))
		if got != tc.want {
			t.Errorf("%d slower rounds and %d ties: exit %d, want %d\n%s%s", tc.worse, len(a)-tc.worse, got, tc.want, stdout, stderr)
		}
	}
}

func TestCompareMissingFile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := runCompare([]string{"/nonexistent/a.out", "/nonexistent/b.out"}, &stdout, &stderr); got != 2 {
		t.Errorf("exit %d, want 2 for unreadable input", got)
	}
}
