// Package evolvevm is a from-scratch reproduction of "Cross-Input
// Learning and Discriminative Prediction in Evolvable Virtual Machines"
// (Mao and Shen, CGO 2009) as a Go library.
//
// The paper makes a JIT virtual machine evolve across production runs: an
// extensible input characterization language (XICL) turns program inputs
// into feature vectors, incremental classification trees learn the
// relation between those features and each method's ideal optimization
// level, and discriminative prediction — guarded by decayed self-evaluated
// confidence — proactively installs the predicted per-method compilation
// strategy at the start of a new run.
//
// Since Go is ahead-of-time compiled, the reproduction supplies its own
// substrate: a stack bytecode machine with a deterministic virtual-cycle
// clock, a baseline interpreter and a real multi-pass optimizing compiler
// at levels 0–2, a Jikes-RVM-style sampler and reactive cost-benefit
// controller, and the repository-based comparison baseline of Arnold et
// al. Everything the paper's evaluation needs — eleven benchmarks with
// XICL specifications and input-corpus generators, and a harness
// regenerating Table I and Figures 8–10 — is included. See DESIGN.md for
// the system inventory and EXPERIMENTS.md for measured results.
//
// Layout:
//
//	internal/opspec     declarative op specification (the one source of op semantics)
//	internal/bytecode   instruction set, assembler, verifier
//	internal/interp     execution engine (three host tiers), cycle accounting, sampler
//	internal/opt        optimization passes (fold, DCE, inline, LICM, unroll)
//	internal/jit        multi-level compiler driver, cost model, cross-run code cache
//	internal/gc         garbage-collection policies and their cost models
//	internal/vm         machine = engine + JIT + pluggable controller
//	internal/aos        reactive controller and ideal-strategy oracle
//	internal/xicl       input characterization language and translator
//	internal/cart       classification trees and incremental learning
//	internal/core       the evolvable VM (the paper's contribution)
//	internal/rep        repository-based baseline
//	internal/programs   the 11-benchmark suite
//	internal/stats      summary statistics and named random streams
//	internal/memo       concurrent memo behind the host-side caches
//	internal/exec       stateless per-run executor with cancellation
//	internal/session    cross-run state, work units, checkpoint/resume
//	internal/sched      deterministic bounded-worker task scheduler
//	internal/harness    scenario runner and experiment generators
//	internal/traffic    seeded serving workloads, traces, latency histograms
//	internal/serve      multi-tenant serving front end and load test
//	internal/difftest   cross-tier differential tester and fuzz targets
//	cmd/evolvevm        run programs under a scenario; serve, replay, loadtest
//	cmd/xiclc           XICL spec checker and translator
//	cmd/expdriver       regenerate every table and figure
//	cmd/tiergen         generate the interpreter tiers from internal/opspec
//	cmd/benchreport     benchmark output to JSON trajectory, and compare gate
//	examples/...        quickstart, routefinder, evolution, interactive
package evolvevm
