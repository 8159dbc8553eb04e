// Package repro is a Go reproduction of Andreas Krall, "Improving
// Semi-static Branch Prediction by Code Replication" (PLDI 1994).
//
// It provides, from scratch: the BL benchmark language and compiler
// (lexer, parser, checker, IR lowering), a deterministic IR interpreter
// with branch tracing, the paper's profiling infrastructure (local,
// global, and path pattern tables), a branch predictor zoo (static
// heuristics, dynamic two-level predictors, semi-static strategies), the
// branch prediction state machines of section 4 with exact and greedy
// searches, and the code replication transforms of section 5 —
// plus the benchmark harness that regenerates every table and figure of
// the evaluation.
//
// This package is the public facade; the implementation lives under
// internal/. The most common entry points:
//
//	prog, err := repro.Compile(blSource)        // compile BL to IR
//	res, err := repro.Run(prog, repro.Config{}) // profile → machines → replicate → measure
//	suite, err := repro.NewSuite(repro.DefaultExpConfig())
//	fmt.Println(suite.Table1().Render())        // the paper's Table 1
package repro

import (
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/runner"
)

// Program is a compiled BL program in the register IR.
type Program = ir.Program

// Config parameterises the replication pipeline; the zero value uses the
// paper's defaults (9-bit histories, 5-state machines, 3x size budget).
type Config = core.Config

// Result is the outcome of one pipeline run: the profile, the chosen state
// machines, the transformed program, and the measured rates.
type Result = core.Result

// Workload is one of the eight substitute benchmarks.
type Workload = bench.Workload

// Suite is the experiment driver regenerating the paper's tables and
// figures.
type Suite = bench.Suite

// ExpConfig parameterises the experiment suite. Its Parallel field sets
// the worker count of the experiment engine (0 = GOMAXPROCS, 1 =
// sequential); output is byte-identical at every setting.
type ExpConfig = bench.ExpConfig

// EngineStats reports the experiment engine's job and artifact-cache
// counters; obtain it from Suite.Engine().Stats().
type EngineStats = runner.Stats

// Figure is one misprediction-vs-code-size curve (Figures 6-13).
type Figure = bench.Figure

// Compile compiles BL source text to IR with branch sites numbered.
func Compile(src string) (*Program, error) { return core.CompileBL(src) }

// Run executes the full pipeline on a compiled program: profile it, select
// branch prediction state machines, replicate code, and measure the
// transformed program.
func Run(prog *Program, cfg Config) (*Result, error) { return core.Run(prog, cfg) }

// RunSource compiles and runs the pipeline in one step.
func RunSource(src string, cfg Config) (*Result, error) { return core.RunBL(src, cfg) }

// Workloads returns the benchmark suite in the paper's column order.
func Workloads() []Workload { return bench.Workloads() }

// NewSuite profiles every workload and returns the experiment driver.
func NewSuite(cfg ExpConfig) (*Suite, error) { return bench.NewSuite(cfg) }

// DefaultExpConfig is the full-size experiment configuration (2M branch
// events per workload).
func DefaultExpConfig() ExpConfig { return bench.DefaultConfig() }

// QuickExpConfig is a scaled-down configuration for smoke runs.
func QuickExpConfig() ExpConfig { return bench.QuickConfig() }
