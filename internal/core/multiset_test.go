package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"evolvevm/internal/xicl"
)

// savedState decodes a learner's Save output.
func savedState(t *testing.T, blob []byte) persistState {
	t.Helper()
	var st persistState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// totalLen sums the learner's per-method observation counts.
func totalLen(ev *Evolver) int {
	n := 0
	for _, m := range ev.models {
		if m != nil {
			n += m.Len()
		}
	}
	return n
}

// TestEvolverStateBoundedByDistinctInputs: a learner fed the same four
// inputs over and over saves the same number of example entries at 100
// and at 1600 runs, while the observations it stands for grow 16x — its
// state follows the distinct inputs, not the chain's age.
func TestEvolverStateBoundedByDistinctInputs(t *testing.T) {
	inputs := []int64{30, 300, 1500, 4000}
	ev := NewEvolver(testProg(t), DefaultConfig())
	entries := map[int]int{}
	lens := map[int]int{}
	for run := 1; run <= 1600; run++ {
		oneRun(t, ev, inputs[run%len(inputs)])
		if run != 100 && run != 1600 {
			continue
		}
		var blob bytes.Buffer
		if err := ev.Save(&blob); err != nil {
			t.Fatal(err)
		}
		for _, pm := range savedState(t, blob.Bytes()).Models {
			entries[run] += len(pm.Examples)
		}
		lens[run] = totalLen(ev)
	}
	if entries[100] != entries[1600] || entries[100] == 0 {
		t.Errorf("saved example entries: %d at 100 runs, %d at 1600; want equal and nonzero",
			entries[100], entries[1600])
	}
	if lens[1600] != 16*lens[100] {
		t.Errorf("observations: %d at 100 runs, %d at 1600; want 16x", lens[100], lens[1600])
	}
	t.Logf("%d entries stand for %d and %d observations", entries[100], lens[100], lens[1600])
}

// TestLoadListFormMergesDuplicates: a state in the list form, one entry
// per observation with no count, loads to the same learner as its
// multiset, and re-saves with one entry per distinct example.
func TestLoadListFormMergesDuplicates(t *testing.T) {
	ev := NewEvolver(testProg(t), DefaultConfig())
	for _, n := range []int64{30, 4000, 30, 4000, 800, 30, 4000, 800, 30} {
		oneRun(t, ev, n)
	}
	var blob bytes.Buffer
	if err := ev.Save(&blob); err != nil {
		t.Fatal(err)
	}

	// Expand every entry into count copies without a count, dealt round
	// robin so duplicates interleave the way runs did; first-seen order
	// is kept.
	st := savedState(t, blob.Bytes())
	merged := 0
	for i, pm := range st.Models {
		left := make([]int, len(pm.Examples))
		for j, pe := range pm.Examples {
			left[j] = max(pe.Count, 1)
		}
		var list []persistExample
		for more := true; more; {
			more = false
			for j, pe := range pm.Examples {
				if left[j] > 0 {
					left[j]--
					list = append(list, persistExample{Label: pe.Label, Features: pe.Features})
					more = true
				}
			}
		}
		merged += len(list) - len(pm.Examples)
		st.Models[i].Examples = list
	}
	if merged == 0 {
		t.Fatal("training produced no repeated example; the test needs duplicates")
	}
	listBlob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(listBlob, []byte(`"count"`)) {
		t.Fatal("list-form blob still carries counts")
	}

	ev2, err := LoadEvolver(ev.prog, DefaultConfig(), bytes.NewReader(listBlob))
	if err != nil {
		t.Fatal(err)
	}
	if totalLen(ev2) != totalLen(ev) {
		t.Errorf("observations %d after loading the list form, want %d", totalLen(ev2), totalLen(ev))
	}
	for _, n := range []int64{30, 200, 800, 2500, 4000} {
		a, b := ev.PredictStrategy(features(n)), ev2.PredictStrategy(features(n))
		if !slices.Equal(a, b) {
			t.Errorf("n=%d: prediction %v from the list form, want %v", n, b, a)
		}
	}
	var resaved bytes.Buffer
	if err := ev2.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), blob.Bytes()) {
		t.Errorf("list form re-saved as\n%s\nwant\n%s", resaved.String(), blob.String())
	}
}

// malformations break a saved example list in the ways a state file from
// outside can: a vector of another length, a feature of another kind, a
// negative count.
var malformations = []struct {
	name, want string
	apply      func(exs []persistExample) []persistExample
}{
	{"feature count", "has 2 features, example 0 has 1", func(exs []persistExample) []persistExample {
		extra := exs[0]
		extra.Features = append([]persistFeature{{Name: "-x.VAL", Kind: xicl.Numeric.String(), Num: 1}}, extra.Features...)
		return append(exs, extra)
	}},
	{"feature kind", "kind mismatch", func(exs []persistExample) []persistExample {
		odd := exs[0]
		odd.Features = []persistFeature{{Name: odd.Features[0].Name, Kind: xicl.Categorical.String(), Cat: "big"}}
		return append(exs, odd)
	}},
	{"negative count", "count -2", func(exs []persistExample) []persistExample {
		exs[len(exs)-1].Count = -2
		return exs
	}},
}

// TestLoadRejectsMalformedExamples: both loaders refuse such a file with
// an error naming the loader (and, for the Evolver, the function), where
// they used to accept it and panic at the first prediction.
func TestLoadRejectsMalformedExamples(t *testing.T) {
	ev := NewEvolver(testProg(t), DefaultConfig())
	for _, n := range []int64{30, 4000, 30, 4000} {
		oneRun(t, ev, n)
	}
	var evBlob, gcBlob bytes.Buffer
	if err := ev.Save(&evBlob); err != nil {
		t.Fatal(err)
	}
	if err := trainedSelector(t).Save(&gcBlob); err != nil {
		t.Fatal(err)
	}

	for _, mal := range malformations {
		t.Run("evolver/"+mal.name, func(t *testing.T) {
			st := savedState(t, evBlob.Bytes())
			st.Models[0].Examples = mal.apply(st.Models[0].Examples)
			blob, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			got, err := LoadEvolver(ev.prog, DefaultConfig(), bytes.NewReader(blob))
			if err == nil {
				got.PredictStrategy(features(30))
				t.Fatal("LoadEvolver accepted the malformed state")
			}
			want := `core: load: function "` + st.Models[0].Fn + `": `
			if !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), mal.want) {
				t.Errorf("error %q, want prefix %q and %q", err, want, mal.want)
			}
		})
		t.Run("gcselector/"+mal.name, func(t *testing.T) {
			var st persistGCState
			if err := json.Unmarshal(gcBlob.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			st.Examples = mal.apply(st.Examples)
			blob, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			got, err := LoadGCSelector(DefaultConfig(), bytes.NewReader(blob))
			if err == nil {
				got.Predict(gcFeatures(1))
				t.Fatal("LoadGCSelector accepted the malformed state")
			}
			if want := "core: load gc selector: "; !strings.HasPrefix(err.Error(), want) ||
				!strings.Contains(err.Error(), mal.want) {
				t.Errorf("error %q, want prefix %q and %q", err, want, mal.want)
			}
		})
	}
}
