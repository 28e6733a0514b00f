// Command benchreport compares the benchmark runs of a base revision and
// of a change measured beside it, in alternating rounds on one machine:
//
//	benchreport compare [-warn 0.10] [-fail 0.25] base.out change.out
//
// Each input holds one side's raw output, round after round: `go test
// -bench` lines, and perfbench result lines (perfbench's last output
// line, its JSON result, prefixed by the workload name and a space). The
// k-th sample of a row on one side is paired with the k-th sample on the
// other: the two ran back to back, so host load that moves a whole round
// moves both and cancels in their ratio.
//
// A row regresses past a bound when the median of its per-round ratios
// (change ÷ base) is worse than the bound and the change is worse in at
// least 9 of every 10 rounds; a round with equal values counts for
// neither side. A perfbench end-to-end metric takes its bound and its
// better direction from BENCHMARK.json in the working directory; a
// go-bench row's ns/op is bound by -fail. Exit status 2: a row past its
// bound, an incorrect change run, a change run failing a larger share of
// its operations than the base run of its round, or unusable input
// (unreadable, or a row with unequal sample counts). Exit status 1: a row
// past -warn. Rows on one side only are listed and never gated.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
)

// minWorse is the share of rounds in which the change must be worse
// before a row's median ratio can gate: 9 of 10, not 8. A run compares
// some 60 rows, and by chance alone 8 or more of 10 rounds come up worse
// for about one row in 18; go-bench rows, whose single-process times can
// be bimodal on a shared host, then often carry a median past 25% too.
const minWorse = 0.9

// side is one side's samples: each row's values in round order, and each
// perfbench workload's result lines.
type side struct {
	rows map[string][]float64
	runs map[string][]result
}

// result is one perfbench run's output line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// failedShare is the fraction of the run's attempted operations that
// failed.
func (r result) failedShare() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// rule is how one row is judged: the relative regression that fails it,
// and whether higher values are better.
type rule struct {
	bound  float64
	higher bool
}

func main() {
	if len(os.Args) < 2 || os.Args[1] != "compare" {
		fmt.Fprintln(os.Stderr, "usage: benchreport compare [-warn F] [-fail F] base.out change.out")
		os.Exit(2)
	}
	os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
}

// runCompare parses both sides, judges every row both have, and returns
// the exit status.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	warn := fs.Float64("warn", 0.10, "median regression that makes the exit status 1")
	fail := fs.Float64("fail", 0.25, "median ns/op regression that makes the exit status 2")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchreport compare [-warn F] [-fail F] base.out change.out")
		return 2
	}
	base, err := parseFile(fs.Arg(0))
	if err == nil {
		var change *side
		if change, err = parseFile(fs.Arg(1)); err == nil {
			var status int
			if status, err = compare(base, change, *warn, *fail, stdout); err == nil {
				return status
			}
		}
	}
	fmt.Fprintf(stderr, "benchreport compare: %v\n", err)
	return 2
}

// compare writes one line per row and returns the exit status.
func compare(base, change *side, warn, fail float64, w io.Writer) (int, error) {
	status := 0
	if failedRuns(base, change, w) {
		status = 2
	}
	var bounds map[string]rule
	if len(base.runs) > 0 || len(change.runs) > 0 {
		var err error
		if bounds, err = loadBounds("BENCHMARK.json"); err != nil {
			return 2, err
		}
	}
	all := maps.Clone(base.rows)
	maps.Copy(all, change.rows)
	oneSided := 0
	fmt.Fprintf(w, "%-48s %12s %12s %7s %6s\n", "row (medians)", "base", "change", "ratio", "worse")
	for _, name := range slices.Sorted(maps.Keys(all)) {
		b, c := base.rows[name], change.rows[name]
		if b == nil || c == nil {
			oneSided++
			which, v := "base only", b
			if b == nil {
				which, v = "change only", c
			}
			fmt.Fprintf(w, "%-48s %12.4g %12s  %s\n", name, median(v), "-", which)
			continue
		}
		if len(b) != len(c) {
			return 2, fmt.Errorf("%s: %d base samples, %d change samples", name, len(b), len(c))
		}
		r := rule{bound: fail}
		if _, metric, ok := strings.Cut(name, " "); ok {
			var known bool
			if r, known = bounds[metric]; !known {
				return 2, fmt.Errorf("%s: BENCHMARK.json names no end-to-end metric %s", name, metric)
			}
		}
		ratio, worse, reg := judge(b, c, r.higher)
		mark := ""
		if float64(worse) >= minWorse*float64(len(b)) {
			switch {
			case reg > r.bound:
				mark, status = " FAIL", 2
			case reg > warn:
				mark, status = " warn", max(status, 1)
			}
		}
		fmt.Fprintf(w, "%-48s %12.4g %12.4g %7.3f %3d/%-2d%s\n", name, median(b), median(c), ratio, worse, len(b), mark)
	}
	if oneSided > 0 {
		fmt.Fprintf(w, "note: %d row(s) on one side only, not compared\n", oneSided)
	}
	switch status {
	case 1:
		fmt.Fprintf(w, "WARN: a row regressed past %.0f%% in its median round\n", warn*100)
	case 2:
		fmt.Fprintln(w, "FAIL: a row regressed past its bound in its median round, or a change run failed")
	}
	return status, nil
}

// failedRuns lists each change run that is not correct, or that fails a
// larger share of its operations than the base run of its round, and
// reports whether there was one.
func failedRuns(base, change *side, w io.Writer) bool {
	failed := false
	for _, name := range slices.Sorted(maps.Keys(change.runs)) {
		paired := base.runs[name]
		for k, r := range change.runs[name] {
			switch {
			case !r.Correct:
				fmt.Fprintf(w, "FAIL: %s round %d: the change's run is not correct\n", name, k+1)
			case k < len(paired) && r.failedShare() > paired[k].failedShare():
				fmt.Fprintf(w, "FAIL: %s round %d: the change failed %d of %d operations, the base %d of %d\n",
					name, k+1, r.Failed, r.Attempted, paired[k].Failed, paired[k].Attempted)
			default:
				continue
			}
			failed = true
		}
	}
	return failed
}

// judge pairs a row's samples round by round. It returns the median
// ratio change ÷ base, the number of rounds the change is worse, and the
// median's regression: the fraction by which it is worse than 1.
func judge(base, change []float64, higher bool) (ratio float64, worse int, reg float64) {
	ratios := make([]float64, len(base))
	for k, b := range base {
		c := change[k]
		ratios[k] = 1
		if c != b {
			ratios[k] = c / b
			if (c < b) == higher {
				worse++
			}
		}
	}
	ratio = median(ratios)
	if higher {
		return ratio, worse, 1 - ratio
	}
	return ratio, worse, ratio - 1
}

// median returns the median of v, which is not empty (the mean of the
// middle two for an even count).
func median(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// loadBounds reads the end-to-end metrics' bounds and directions from a
// BENCHMARK.json.
func loadBounds(path string) (map[string]rule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	bounds := make(map[string]rule, len(spec.EndToEnd))
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = rule{bound: m.Bound, higher: m.Better == "higher"}
	}
	return bounds, nil
}

func parseFile(path string) (*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return s, nil
}

// parse reads one side's output. A go-bench line adds its ns/op to the
// row of the benchmark's name; a perfbench line adds each metric's value
// to the row "workload metric". Other lines are skipped.
func parse(in io.Reader) (*side, error) {
	s := &side{rows: map[string][]float64{}, runs: map[string][]result{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		f := strings.Fields(line)
		switch {
		case len(f) >= 4 && strings.HasPrefix(f[0], "Benchmark") && f[3] == "ns/op":
			// BenchmarkName-8  N  123 ns/op [ 456 B/op  7 allocs/op ]
			ns, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: %v", f[0], err)
			}
			s.rows[f[0]] = append(s.rows[f[0]], ns)
		case len(f) >= 2 && strings.HasPrefix(f[1], "{"):
			workload, data, _ := strings.Cut(line, " ")
			var r result
			if err := json.Unmarshal([]byte(data), &r); err != nil {
				return nil, fmt.Errorf("%s: %v", workload, err)
			}
			s.runs[workload] = append(s.runs[workload], r)
			for metric, m := range r.Metrics {
				row := workload + " " + metric
				s.rows[row] = append(s.rows[row], m.Value)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(s.rows) == 0 && len(s.runs) == 0 {
		return nil, fmt.Errorf("no benchmark or perfbench lines")
	}
	return s, nil
}
