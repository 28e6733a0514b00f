package core

import (
	"evolvevm/internal/cart"
	"evolvevm/internal/gc"
	"evolvevm/internal/xicl"
)

// GCSelector applies the paper's evolvement loop (Figure 7) to a second
// optimization decision the paper's §VI proposes: input-specific
// selection of garbage collectors (after Mao & Shen, VEE 2009). Across
// production runs it learns the relation between input features and the
// collector that would have been cheapest, guarded by the same decayed
// self-evaluated confidence as the level predictor.
type GCSelector struct {
	cfg   Config
	model *cart.Incremental
	conf  float64
	runs  int
}

// NewGCSelector returns an empty selector with the given learning
// parameters (zero values take the paper's defaults, as in NewEvolver).
func NewGCSelector(cfg Config) *GCSelector {
	if cfg.Decay <= 0 || cfg.Decay > 1 {
		cfg.Decay = 0.7
	}
	if cfg.ConfidenceThreshold == 0 {
		cfg.ConfidenceThreshold = 0.7
	}
	return &GCSelector{cfg: cfg, model: cart.NewIncremental(cfg.Tree)}
}

// Confidence returns the decayed self-evaluated confidence.
func (s *GCSelector) Confidence() float64 { return s.conf }

// Runs returns the number of observed runs.
func (s *GCSelector) Runs() int { return s.runs }

// Predict returns the model's current policy estimate for the features
// (ok is false while the model is empty).
func (s *GCSelector) Predict(features xicl.Vector) (gc.Policy, bool) {
	label, ok := s.model.Predict(features)
	if !ok {
		return gc.None, false
	}
	return gc.Policy(label), true
}

// Choose performs discriminative prediction: it returns the predicted
// policy only when confidence clears the threshold; otherwise the caller
// should fall back to its default collector.
func (s *GCSelector) Choose(features xicl.Vector) (gc.Policy, bool) {
	if s.conf <= s.cfg.ConfidenceThreshold {
		return gc.None, false
	}
	return s.Predict(features)
}

// Observe closes the loop after a run: the recorded collections yield the
// posterior ideal policy (the label), the model's own estimate is scored
// against it, and confidence is updated with the decayed accuracy.
// Runs that never collected teach nothing (either policy was free).
func (s *GCSelector) Observe(features xicl.Vector, stats gc.Stats) gc.Policy {
	s.runs++
	if len(stats.Collections) == 0 {
		return gc.None
	}
	ideal := gc.IdealPolicy(stats.Collections, stats.Allocs)

	acc := 0.0
	if predicted, ok := s.Predict(features); ok && predicted == ideal {
		acc = 1
	}
	s.conf = (1-s.cfg.Decay)*s.conf + s.cfg.Decay*acc

	s.model.Add(cart.Example{Features: features, Label: int(ideal)}, 1)
	return ideal
}
