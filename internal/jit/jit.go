// Package jit is the multi-level compiler driver of the evolvable VM. It
// turns functions into executable Code forms at optimization levels −1
// (baseline) through 2 by running the internal/opt pipelines, and charges
// deterministic compile cycles according to a Jikes-RVM-style cost model:
// higher levels compile slower per instruction and produce faster code.
// A Cache shares compiled forms across runs and machines; every run still
// pays its own virtual compile charge.
package jit

import (
	"fmt"
	"sync/atomic"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/interp"
	"evolvevm/internal/opt"
)

// MinLevel and MaxLevel bound the compilation levels, matching the four
// levels (−1, 0, 1, 2) of the paper's Jikes RVM substrate.
const (
	MinLevel = -1
	MaxLevel = 2
)

// LevelSpec describes one optimized tier.
type LevelSpec struct {
	// ScalePct is the per-op execution cost relative to the baseline
	// interpreter, in percent.
	ScalePct int
	// CostMult multiplies the optimizer pipeline's intrinsic cycle count
	// to obtain the compile-time charge (higher tiers run heavier
	// analyses than the pass sketches model).
	CostMult int64
	// Speedup is the cost-benefit model's a-priori estimate of how much
	// faster this tier runs than the baseline interpreter. The controller
	// reasons with this estimate, never with measured values — exactly
	// like the hand-tuned constants in Jikes RVM's AOS.
	Speedup float64
}

// Config holds the tier table. Index i describes optimization level i.
type Config struct {
	Levels [MaxLevel + 1]LevelSpec
	// BaseCompileCyclesPerInstr is the level −1 "base compiler" charge
	// applied at a function's first invocation.
	BaseCompileCyclesPerInstr int64
}

// DefaultConfig returns the tier table used throughout the experiments.
func DefaultConfig() Config {
	return Config{
		Levels: [MaxLevel + 1]LevelSpec{
			{ScalePct: 55, CostMult: 2, Speedup: 1.9},
			{ScalePct: 38, CostMult: 5, Speedup: 2.8},
			{ScalePct: 28, CostMult: 12, Speedup: 3.9},
		},
		BaseCompileCyclesPerInstr: 3,
	}
}

// Compiler compiles functions of one program. It memoizes per (function,
// level) within its lifetime — one Compiler per run, so every run pays its
// own compile costs, as in a JVM without a persistent code cache.
type Compiler struct {
	cfg   Config
	prog  *bytecode.Program
	cache map[cacheKey]*compiled
	// shared, when set via UseShared, is a cross-run cache: the host-side
	// compilation work is reused, but each run's virtual compile charge
	// is governed by the per-run cache above, exactly as without sharing.
	shared *Cache
}

type cacheKey struct {
	fnIdx int
	level int
}

type compiled struct {
	code   *interp.Code
	cycles int64
	res    opt.Result
	// building is set while the one build of a shared cache entry runs
	// (Compiler.form), and cleared when it succeeds.
	building atomic.Pointer[pendingBuild]
}

// pendingBuild is a shared cache entry's build in flight: done closes
// when it ends, and err is its failure.
type pendingBuild struct {
	done chan struct{}
	err  error
}

// NewCompiler returns a compiler for prog with the given tier table.
func NewCompiler(prog *bytecode.Program, cfg Config) *Compiler {
	return &Compiler{cfg: cfg, prog: prog, cache: make(map[cacheKey]*compiled)}
}

// Config returns the compiler's tier table.
func (c *Compiler) Config() Config { return c.cfg }

// Reset returns the compiler to its just-constructed state: the per-run
// memo empties, so a subsequent run pays its own virtual compile charges
// again (first request per (function, level) charges, repeats are free),
// and any shared cross-run cache is detached — reattach it with UseShared.
// Pooled vm.Machines reset their compiler between runs this way.
func (c *Compiler) Reset() {
	clear(c.cache)
	c.shared = nil
}

// Baseline returns the level −1 form of a function together with the base
// compiler charge.
func (c *Compiler) Baseline(fnIdx int) (*interp.Code, int64) {
	key := cacheKey{fnIdx, MinLevel}
	if hit, ok := c.cache[key]; ok {
		return hit.code, hit.cycles
	}
	hit, _ := c.form(fnIdx, MinLevel, func(v *compiled) error {
		f := c.prog.Funcs[fnIdx]
		v.code = interp.NewCode(fnIdx, f, MinLevel, interp.BaselineScalePct)
		v.cycles = int64(len(f.Code))*c.cfg.BaseCompileCyclesPerInstr + 20
		return nil
	})
	c.cache[key] = hit
	return hit.code, hit.cycles
}

// Compile produces the Code form of fnIdx at the given level and the
// compile-cycle charge for doing so. Results are memoized: a second
// request for the same (function, level) returns the cached form with a
// zero charge (the code is already installed).
func (c *Compiler) Compile(fnIdx, level int) (*interp.Code, int64, error) {
	if level <= MinLevel {
		code, cycles := c.Baseline(fnIdx)
		return code, cycles, nil
	}
	if level > MaxLevel {
		return nil, 0, fmt.Errorf("jit: level %d out of range", level)
	}
	key := cacheKey{fnIdx, level}
	if hit, ok := c.cache[key]; ok {
		return hit.code, 0, nil
	}
	hit, err := c.form(fnIdx, level, func(v *compiled) error {
		spec := c.cfg.Levels[level]
		f, res, err := opt.Optimize(c.prog, fnIdx, level)
		if err != nil {
			return err
		}
		v.code = interp.NewCode(fnIdx, f, level, spec.ScalePct)
		v.cycles, v.res = res.Cycles*spec.CostMult, res
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	c.cache[key] = hit
	return hit.code, hit.cycles, nil
}

// CompileAll compiles every function of the program at the given level
// and returns the code forms plus the total compile-cycle charge. Used by
// harnesses that pin a whole program to one tier (e.g. the differential
// tester's cross-tier oracle).
func (c *Compiler) CompileAll(level int) ([]*interp.Code, int64, error) {
	codes := make([]*interp.Code, len(c.prog.Funcs))
	var total int64
	for i := range c.prog.Funcs {
		code, cycles, err := c.Compile(i, level)
		if err != nil {
			return nil, total, err
		}
		codes[i] = code
		total += cycles
	}
	return codes, total, nil
}

// EstimateCompileCycles predicts the charge of compiling fnIdx at level
// without doing the work — the quantity the cost-benefit model reasons
// with. The estimate uses the pipeline's per-instruction rates on the
// original code size.
func (c *Compiler) EstimateCompileCycles(fnIdx, level int) int64 {
	if level <= MinLevel {
		return int64(len(c.prog.Funcs[fnIdx].Code))*c.cfg.BaseCompileCyclesPerInstr + 20
	}
	if level > MaxLevel {
		level = MaxLevel
	}
	size := int64(len(c.prog.Funcs[fnIdx].Code))
	perInstr := 8 + opt.PipelineRate(level)
	return (400 + size*perInstr) * c.cfg.Levels[level].CostMult
}

// Speedup returns the a-priori speedup estimate of a level over baseline
// (level −1 returns 1).
func (c *Compiler) Speedup(level int) float64 {
	if level <= MinLevel {
		return 1
	}
	if level > MaxLevel {
		level = MaxLevel
	}
	return c.cfg.Levels[level].Speedup
}
