package core

import (
	"fmt"
	"sort"
	"strings"
)

// SpecFeedback is the VM's advice to the programmer about an XICL
// specification, computed from what the learned models actually consult —
// the extension the paper's §VI proposes ("let the virtual machine offer
// feedback to the programmers for the refinement of the specifications").
type SpecFeedback struct {
	// Used features appear in at least one method's tree.
	Used []string
	// Unused features were extracted every run but never reduced
	// impurity in any tree; candidates for removal from the spec (or
	// evidence an expected signal is missing).
	Unused []string
	// MethodsModeled / MethodsTotal sizes the learner's coverage.
	MethodsModeled, MethodsTotal int
	// Examples is the total number of stored observations.
	Examples int
}

// Feedback compares the features the translator produces (vectorNames,
// i.e. Vector.Names() of any run's vector) against the features the
// models use.
func (ev *Evolver) Feedback(vectorNames []string) SpecFeedback {
	used := map[string]bool{}
	for _, n := range ev.UsedFeatureNames() {
		used[n] = true
	}
	fb := SpecFeedback{MethodsTotal: len(ev.prog.Funcs)}
	for _, n := range vectorNames {
		if used[n] {
			fb.Used = append(fb.Used, n)
		} else {
			fb.Unused = append(fb.Unused, n)
		}
	}
	sort.Strings(fb.Used)
	sort.Strings(fb.Unused)
	for _, m := range ev.models {
		if m != nil && m.Len() > 0 {
			fb.MethodsModeled++
			fb.Examples += m.Len()
		}
	}
	return fb
}

// String renders the feedback as a short human-readable report.
func (fb SpecFeedback) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "XICL spec feedback (%d methods modeled of %d, %d observations):\n",
		fb.MethodsModeled, fb.MethodsTotal, fb.Examples)
	if len(fb.Used) > 0 {
		fmt.Fprintf(&b, "  informative features: %s\n", strings.Join(fb.Used, ", "))
	}
	if len(fb.Unused) > 0 {
		fmt.Fprintf(&b, "  never-used features:  %s\n", strings.Join(fb.Unused, ", "))
		b.WriteString("  consider removing them from the spec, or check whether an expected signal is missing\n")
	}
	return b.String()
}
