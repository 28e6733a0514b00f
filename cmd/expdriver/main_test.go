package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestUnknownExperimentExits2(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown experiment") {
		t.Errorf("stderr %q missing diagnosis", errOut.String())
	}
}

func TestBadFlagExits2(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestMissingResumeFileExits1(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-exp", "table1",
		"-resume", filepath.Join(t.TempDir(), "absent.json")}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "-resume") {
		t.Errorf("stderr %q does not mention -resume", errOut.String())
	}
}

// TestCheckpointResumeReproducesOutput is the driver-level acceptance
// check: a completed run saves a checkpoint, and a resumed run replays it
// to byte-identical stdout.
func TestCheckpointResumeReproducesOutput(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "state.json")
	args := []string{"-exp", "table1", "-quick", "-seed", "8", "-bench", "compress"}

	var first, firstErr bytes.Buffer
	if code := run(append(args, "-checkpoint", ckpt), &first, &firstErr); code != 0 {
		t.Fatalf("first run exit %d: %s", code, firstErr.String())
	}
	var resumed, resumedErr bytes.Buffer
	if code := run(append(args, "-resume", ckpt), &resumed, &resumedErr); code != 0 {
		t.Fatalf("resumed run exit %d: %s", code, resumedErr.String())
	}
	if first.String() != resumed.String() {
		t.Errorf("resumed stdout differs from original:\n--- first ---\n%s--- resumed ---\n%s",
			first.String(), resumed.String())
	}
}

// TestDeadlineAbortIsTypedAndResumable: an expiring -timeout must produce
// a clean typed cancellation (exit 1, "deadline exceeded" on stderr, no
// panic), save the checkpoint, and a -resume of that checkpoint must then
// finish with the same output as an uninterrupted run.
func TestDeadlineAbortIsTypedAndResumable(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "state.json")
	args := []string{"-exp", "fig8", "-quick", "-seed", "8", "-bench", "mtrt"}

	var aborted, abortedErr bytes.Buffer
	// The deadline must expire mid-run: a whole quick Figure 8 of mtrt
	// takes about 20 ms on a 2-vCPU container, so 30 ms could let it
	// finish first.
	code := run(append(args, "-checkpoint", ckpt, "-timeout", "5ms"), &aborted, &abortedErr)
	if code != 1 {
		t.Fatalf("interrupted run exit %d (stderr %q), want 1", code, abortedErr.String())
	}
	if !strings.Contains(abortedErr.String(), "deadline exceeded") {
		t.Errorf("stderr %q does not report a typed deadline abort", abortedErr.String())
	}

	var resumed, resumedErr bytes.Buffer
	if code := run(append(args, "-resume", ckpt), &resumed, &resumedErr); code != 0 {
		t.Fatalf("resumed run exit %d: %s", code, resumedErr.String())
	}
	var clean, cleanErr bytes.Buffer
	if code := run(args, &clean, &cleanErr); code != 0 {
		t.Fatalf("clean run exit %d: %s", code, cleanErr.String())
	}
	if resumed.String() != clean.String() {
		t.Errorf("post-abort resume differs from an uninterrupted run:\n--- resumed ---\n%s--- clean ---\n%s",
			resumed.String(), clean.String())
	}
}

// TestTraceStatsReportPlanInstalls: -tracestats prints the plan-install
// line whether or not any trace degraded (compress at this seed has no
// degradations).
func TestTraceStatsReportPlanInstalls(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-exp", "table1", "-quick", "-bench", "compress", "-seed", "8", "-tracestats"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "plan installs:") {
		t.Errorf("stderr lacks the plan-install line:\n%s", errOut.String())
	}
}
