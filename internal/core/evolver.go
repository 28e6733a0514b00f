// Package core implements the paper's primary contribution: the evolvable
// virtual machine framework. An Evolver persists across production runs of
// one application and learns, per method, the relation between the
// program's input features and the method's ideal optimization level. At
// each new run it performs discriminative prediction: only when its
// decayed self-evaluated confidence exceeds a threshold does it proactively
// install a predicted strategy; otherwise the run falls back to the
// default reactive optimizer. After every run it labels the observed
// profile with the posterior ideal strategy and refines its models —
// the incremental learning loop of the paper's Figure 7.
package core

import (
	"evolvevm/internal/aos"
	"evolvevm/internal/bytecode"
	"evolvevm/internal/cart"
	"evolvevm/internal/vm"
	"evolvevm/internal/xicl"
)

// Config holds the evolvable VM's learning parameters. The paper uses 0.7
// for both the confidence threshold and the decay factor.
type Config struct {
	// ConfidenceThreshold (TH_c): predict only when confidence exceeds
	// it. Larger is more conservative.
	ConfidenceThreshold float64
	// Decay (γ) weights recent runs in the confidence update
	// conf ← (1−γ)·conf + γ·acc.
	Decay float64
	// Tree are the classification-tree induction parameters.
	Tree cart.Params
	// PredictBaseCost and PredictPerFeatureCost model the cycles charged
	// per method prediction (overhead analysis, paper §V-B.2).
	PredictBaseCost       int64
	PredictPerFeatureCost int64
}

// DefaultConfig returns the paper's parameter choices.
func DefaultConfig() Config {
	return Config{
		ConfidenceThreshold:   0.7,
		Decay:                 0.7,
		Tree:                  cart.Params{},
		PredictBaseCost:       120,
		PredictPerFeatureCost: 12,
	}
}

// RunRecord summarizes one run's learning outcome.
type RunRecord struct {
	Run        int
	Predicted  bool        // discriminative guard passed; ô was installed
	Accuracy   float64     // CalAccuracy(ô, o, p)
	Confidence float64     // conf after the update
	Used       vm.Strategy // strategy the run executed with (nil = default)
	Ideal      vm.Strategy // posterior ideal strategy o
	Samples    int64       // total profile samples
}

// Evolver is the persistent cross-run learner for one application. It is
// bound to the program's shape (function indices); the same Evolver must
// be reused across runs of the same program.
type Evolver struct {
	cfg    Config
	prog   *bytecode.Program
	models []*cart.Incremental // one model per method, lazily created
	conf   float64
	runs   int
}

// NewEvolver returns an empty learner for prog.
func NewEvolver(prog *bytecode.Program, cfg Config) *Evolver {
	if cfg.Decay <= 0 || cfg.Decay > 1 {
		cfg.Decay = 0.7
	}
	// The zero value means "paper default". Negative thresholds are
	// legitimate: they disable the discriminative guard entirely (used by
	// the ablation study).
	if cfg.ConfidenceThreshold == 0 {
		cfg.ConfidenceThreshold = 0.7
	}
	return &Evolver{
		cfg:    cfg,
		prog:   prog,
		models: make([]*cart.Incremental, len(prog.Funcs)),
	}
}

// Config returns the learner's parameters.
func (ev *Evolver) Config() Config { return ev.cfg }

// Confidence returns the current self-evaluated confidence.
func (ev *Evolver) Confidence() float64 { return ev.conf }

// Runs returns how many runs the learner has observed.
func (ev *Evolver) Runs() int { return ev.runs }

// WouldPredict reports whether the discriminative guard currently passes.
func (ev *Evolver) WouldPredict() bool {
	return ev.conf > ev.cfg.ConfidenceThreshold
}

// PredictStrategy produces ô for a feature vector from the current
// per-method models. Methods without a model predict baseline.
func (ev *Evolver) PredictStrategy(features xicl.Vector) vm.Strategy {
	s := vm.NewStrategy(len(ev.prog.Funcs))
	for fn, m := range ev.models {
		if m == nil {
			continue
		}
		if level, ok := m.Predict(features); ok {
			s[fn] = level
		}
	}
	return s
}

// predictionCost models the cycles of running every per-method model.
func (ev *Evolver) predictionCost(features xicl.Vector) int64 {
	var n int64
	for _, m := range ev.models {
		if m != nil {
			n++
		}
	}
	return n * (ev.cfg.PredictBaseCost + ev.cfg.PredictPerFeatureCost*int64(len(features)))
}

// ModelFor returns the incremental model of one method (nil if the method
// has never been observed).
func (ev *Evolver) ModelFor(fnIdx int) *cart.Incremental {
	if fnIdx < 0 || fnIdx >= len(ev.models) {
		return nil
	}
	return ev.models[fnIdx]
}

// UsedFeatureNames returns the union of feature names appearing in any
// method's tree — the "Used" column of the paper's Table I.
func (ev *Evolver) UsedFeatureNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, m := range ev.models {
		if m == nil || m.Tree() == nil {
			continue
		}
		for _, n := range m.Tree().UsedFeatureNames() {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	return names
}

// finishRun implements the tail of Figure 7: compute the ideal strategy o
// from the run's profile, evaluate ô against it, update confidence, and
// refine the models. Model construction happens after the run ends, so it
// is not charged to the run (paper §V-B.2).
func (ev *Evolver) finishRun(m *vm.Machine, features xicl.Vector, used vm.Strategy, predictedAtStart bool) RunRecord {
	ideal := aos.IdealStrategy(m)
	if features == nil {
		// No XICL characterization: the system behaves as the default VM
		// and learns nothing (paper §II). Record the run for bookkeeping
		// without touching models or confidence.
		ev.runs++
		return RunRecord{Run: ev.runs, Confidence: ev.conf, Ideal: ideal}
	}

	var oHat vm.Strategy
	if predictedAtStart {
		oHat = used
	} else {
		// Default run: still evaluate what the model *would* have said.
		oHat = ev.PredictStrategy(features)
	}
	acc := vm.Accuracy(oHat, ideal, m.Samples)
	ev.conf = (1-ev.cfg.Decay)*ev.conf + ev.cfg.Decay*acc

	// UpdateModel(M, v, o): one example per invoked method.
	for fn := range ev.prog.Funcs {
		if m.Engine.Invocations[fn] == 0 {
			continue
		}
		if ev.models[fn] == nil {
			ev.models[fn] = cart.NewIncremental(ev.cfg.Tree)
		}
		ev.models[fn].Add(cart.Example{Features: features, Label: ideal[fn]}, 1)
	}

	ev.runs++
	var totalSamples int64
	for _, s := range m.Samples {
		totalSamples += s
	}
	return RunRecord{
		Run:        ev.runs,
		Predicted:  predictedAtStart,
		Accuracy:   acc,
		Confidence: ev.conf,
		Used:       used,
		Ideal:      ideal,
		Samples:    totalSamples,
	}
}

// Controller returns the vm.Controller for one run. features may be nil
// when the XICL spec defers them to runtime constructs; deliver them later
// through SetFeatures (triggered by the translator's Done hook).
// extractionCost is the XICL translator's cycle meter, charged to the run.
func (ev *Evolver) Controller(features xicl.Vector, extractionCost int64) *Controller {
	return &Controller{
		ev:             ev,
		reactive:       aos.NewReactive(),
		features:       features,
		extractionCost: extractionCost,
	}
}

// sanity check: core.Controller must satisfy vm.Controller.
var _ vm.Controller = (*Controller)(nil)
