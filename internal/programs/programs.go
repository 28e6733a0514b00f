// Package programs contains the benchmark suite of the reproduction: the
// eleven applications of the paper's Table I (Compress, Db, Mtrt from
// SPECjvm98; Antlr, Bloat, Fop from DaCapo; Euler, MolDyn, MonteCarlo,
// Search, RayTracer from Java Grande), rebuilt as programs for this VM.
//
// Each benchmark bundles:
//   - the program source in the VM's assembly;
//   - an XICL specification describing its command-line interface;
//   - programmer-defined feature extractors (the paper's XFMethod
//     instances, e.g. mRules for Antlr);
//   - an input model and a corpus generator producing the kind of input
//     variety the paper collected for its experiments.
//
// Inputs change which methods are hot and how much total work a run
// performs, so the ideal per-method optimization levels are a learnable
// function of the XICL features — the property the paper studies.
package programs

import (
	"fmt"
	"math/rand"
	"sync"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/interp"
	"evolvevm/internal/xicl"
)

// Input is one concrete program input: the command line the user would
// type, the files it references, and the parsed form the program reads
// (globals and arrays installed into the engine before the run, standing
// in for the application's own argument/file parsing).
type Input struct {
	// ID names the input for logs and tables.
	ID string
	// Args is the command line (without the program name).
	Args []string
	// Files holds the virtual input files referenced by Args.
	Files xicl.MapFS
	// Setup installs the parsed input into a fresh engine.
	Setup func(e *interp.Engine) error
}

// Benchmark is one application of the suite.
type Benchmark struct {
	// Name matches the paper's Table I.
	Name string
	// Suite is "jvm98", "dacapo", or "grande".
	Suite string
	// Source is the program in VM assembly.
	Source string
	// Spec is the XICL specification source.
	Spec string
	// RegisterMethods installs the benchmark's programmer-defined
	// feature-extraction methods (may be nil).
	RegisterMethods func(reg *xicl.Registry) error
	// GenInputs deterministically generates an input corpus of size n
	// from the rng. Sizes follow the paper: most benchmarks have dozens
	// of inputs, Search only a few.
	GenInputs func(rng *rand.Rand, n int) []Input
	// DefaultCorpusSize is the corpus size used by the experiments
	// (paper Table I, column "# Inputs").
	DefaultCorpusSize int
	// InputSensitive marks the benchmarks the paper found more
	// input-sensitive (Mtrt, Compress, Euler, MolDyn, RayTracer).
	InputSensitive bool
}

// Benchmark constructors (Compress() etc.) build a fresh value per call,
// but every call yields identical Source/Spec/RegisterMethods, so the
// assembled program, parsed spec, and registry are memoized process-wide.
// All three are read-only after construction: engines never mutate a
// Program (the optimizer clones), registries are only Lookup'd, and specs
// are only read — so shared instances are safe, including concurrently.
var (
	memoMu   sync.Mutex
	progMemo = make(map[memoKey]*bytecode.Program)
	specMemo = make(map[memoKey]*xicl.Spec)
	regMemo  = make(map[string]*xicl.Registry)
)

// memoKey keys on name plus the full source text, so a hypothetical
// same-name benchmark with different source can never collide.
type memoKey struct {
	name, src string
}

// Program assembles and verifies the benchmark's source.
func (b *Benchmark) Program() (*bytecode.Program, error) {
	key := memoKey{b.Name, b.Source}
	memoMu.Lock()
	p, ok := progMemo[key]
	memoMu.Unlock()
	if ok {
		return p, nil
	}
	p, err := bytecode.Assemble(b.Name, b.Source)
	if err != nil {
		return nil, err
	}
	memoMu.Lock()
	progMemo[key] = p
	memoMu.Unlock()
	return p, nil
}

// ParsedSpec parses the benchmark's XICL specification.
func (b *Benchmark) ParsedSpec() (*xicl.Spec, error) {
	key := memoKey{b.Name, b.Spec}
	memoMu.Lock()
	s, ok := specMemo[key]
	memoMu.Unlock()
	if ok {
		return s, nil
	}
	s, err := xicl.ParseSpec(b.Spec)
	if err != nil {
		return nil, err
	}
	memoMu.Lock()
	specMemo[key] = s
	memoMu.Unlock()
	return s, nil
}

// Registry returns a method registry with the benchmark's
// programmer-defined extractors installed. Memoized by benchmark name:
// RegisterMethods is fixed per constructor, and registries are read-only
// after construction.
func (b *Benchmark) Registry() (*xicl.Registry, error) {
	memoMu.Lock()
	reg, ok := regMemo[b.Name]
	memoMu.Unlock()
	if ok {
		return reg, nil
	}
	reg = xicl.NewRegistry()
	if b.RegisterMethods != nil {
		if err := b.RegisterMethods(reg); err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
	}
	memoMu.Lock()
	regMemo[b.Name] = reg
	memoMu.Unlock()
	return reg, nil
}

// All returns the full suite in Table I order.
func All() []*Benchmark {
	return []*Benchmark{
		Compress(),
		Db(),
		Mtrt(),
		Antlr(),
		Bloat(),
		Fop(),
		Euler(),
		MolDyn(),
		MonteCarlo(),
		Search(),
		RayTracer(),
	}
}

// Extensions returns the benchmarks outside the paper's Table I suite
// (currently the GC-selection server workload).
func Extensions() []*Benchmark {
	return []*Benchmark{Server()}
}

// ByName returns the named benchmark — from the Table I suite or the
// extensions — or nil.
func ByName(name string) *Benchmark {
	for _, b := range All() {
		if b.Name == name {
			return b
		}
	}
	for _, b := range Extensions() {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// setupGlobals returns a Setup function installing integer globals.
func setupGlobals(globals map[string]int64) func(e *interp.Engine) error {
	return func(e *interp.Engine) error {
		for name, v := range globals {
			if err := e.SetGlobal(name, bytecode.Int(v)); err != nil {
				return err
			}
		}
		return nil
	}
}

// appendArraySetup chains an additional array installation after a setup.
func appendArraySetup(base func(e *interp.Engine) error, arrName string, data []int64) func(e *interp.Engine) error {
	return func(e *interp.Engine) error {
		if err := base(e); err != nil {
			return err
		}
		// The array may be a recycled one holding another run's values:
		// every cell is written here, once.
		ref, cells, err := e.NewArrayCells(int64(len(data)))
		if err != nil {
			return err
		}
		for i, v := range data {
			cells[i] = bytecode.Int(v)
		}
		return e.SetGlobal(arrName, ref)
	}
}

// setupGlobalsAndArray installs integer globals plus one data array.
func setupGlobalsAndArray(globals map[string]int64, arrName string, data []int64) func(e *interp.Engine) error {
	return appendArraySetup(setupGlobals(globals), arrName, data)
}
