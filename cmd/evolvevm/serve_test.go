package main

import (
	"strings"
	"testing"

	"evolvevm/internal/traffic"
)

// TestOutcomeDrift holds the replay drift gate to the regressions it
// names: a changed outcome and a recorded outcome the replay dropped
// both count as drift; an identical replay reports none.
func TestOutcomeDrift(t *testing.T) {
	recorded := []traffic.Outcome{
		{Seq: 0, Status: traffic.StatusOK, Checksum: 0x11, Cycles: 100},
		{Seq: 1, Status: traffic.StatusTrap, Checksum: 0x22, Cycles: 50, Trap: "division by zero"},
		{Seq: 2, Status: traffic.StatusCanceled},
	}
	changed := append([]traffic.Outcome(nil), recorded...)
	changed[1].Checksum = 0x23
	cases := []struct {
		name     string
		replayed []traffic.Outcome
		want     string // substring of the only drift line; "" for none
	}{
		{"identical", append([]traffic.Outcome(nil), recorded...), ""},
		{"changed checksum", changed, "seq 1 diverged"},
		{"dropped outcome", []traffic.Outcome{recorded[0], recorded[2]}, "seq 1 missing"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			drift := outcomeDrift(recorded, c.replayed)
			if c.want == "" {
				if len(drift) != 0 {
					t.Fatalf("identical replay reported drift: %q", drift)
				}
				return
			}
			if len(drift) != 1 || !strings.Contains(drift[0], c.want) {
				t.Fatalf("drift %q, want one line containing %q", drift, c.want)
			}
		})
	}
}
