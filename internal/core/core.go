// Package core orchestrates the paper's primary contribution as a single
// pipeline: profile a program, build branch prediction state machines from
// the pattern tables, choose the best strategy per branch, replicate code
// so the machines become program structure, and verify the transformed
// program by executing it.
//
// It is the programmatic equivalent of cmd/replicate and the backing of
// the root package's public facade.
package core

import (
	"errors"
	"fmt"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/replicate"
	"repro/internal/statemachine"
)

// Config parameterises a pipeline run.
type Config struct {
	// MaxStates bounds every state machine (default 5).
	MaxStates int
	// MaxPathLen caps correlated path lengths; 1 (the default) keeps every
	// selected machine realizable by the replicator.
	MaxPathLen int
	// MaxSizeFactor bounds code growth (default 3; 0 = unlimited).
	MaxSizeFactor float64
	// Budget bounds each run's branch events (0 = run to completion).
	Budget uint64
	// LocalK / GlobalK / PathM set the profile history lengths
	// (defaults 9 / 9 / 3, the paper's).
	LocalK, GlobalK, PathM int
	// Globals are int globals set before every run (workload seeds and
	// scales).
	Globals map[string]int64
}

func (c *Config) setDefaults() {
	if c.MaxStates == 0 {
		c.MaxStates = 5
	}
	if c.MaxPathLen == 0 {
		c.MaxPathLen = 1
	}
	if c.MaxSizeFactor == 0 {
		c.MaxSizeFactor = 3
	}
}

// Result is the outcome of one pipeline run.
type Result struct {
	// Original and Replicated are the untouched and transformed programs.
	Original, Replicated *ir.Program
	// Profile is the collected profile of the original program.
	Profile *profile.Profile
	// Choices is the selected strategy per original branch site.
	Choices []statemachine.Choice
	// Stats reports what the replicator did.
	Stats *replicate.Stats
	// BaselineRate and ReplicatedRate are measured misprediction
	// percentages (profile-annotated original vs transformed program).
	BaselineRate, ReplicatedRate float64
	// BaselineChecksum and ReplicatedChecksum prove semantic equivalence
	// when the runs complete naturally (equal budgets make them
	// comparable under truncation too).
	BaselineChecksum, ReplicatedChecksum uint64
}

// SizeFactor is the measured code growth.
func (r *Result) SizeFactor() float64 { return r.Stats.SizeFactor() }

// CompileBL compiles BL source text.
func CompileBL(src string) (*ir.Program, error) { return lang.Compile(src) }

// Run executes the full pipeline on a compiled program.
func Run(prog *ir.Program, cfg Config) (*Result, error) {
	cfg.setDefaults()
	nSites := prog.NumberBranches(true)
	prof := profile.New(nSites, profile.Options{
		LocalK: cfg.LocalK, GlobalK: cfg.GlobalK, PathM: cfg.PathM,
	})
	if _, _, err := execute(prog, cfg, interp.BranchHook(prof), interp.SwitchHook(prof)); err != nil {
		return nil, fmt.Errorf("core: profiling run: %w", err)
	}

	feats := predict.Analyze(prog)
	choices := statemachine.Select(prof, feats, statemachine.Options{
		MaxStates:  cfg.MaxStates,
		MaxPathLen: cfg.MaxPathLen,
	})
	preds := predict.ProfileStatic(prof.Counts).Preds

	baseline := ir.CloneProgram(prog)
	replicate.Annotate(baseline, preds)
	baseRate, baseSum, err := execute(baseline, cfg, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("core: baseline run: %w", err)
	}

	clone := ir.CloneProgram(prog)
	stats, err := replicate.ApplyOpts(clone, choices, preds, replicate.Options{
		MaxSizeFactor: cfg.MaxSizeFactor,
	})
	if err != nil {
		return nil, err
	}
	replRate, replSum, err := execute(clone, cfg, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("core: replicated run: %w", err)
	}

	return &Result{
		Original:           prog,
		Replicated:         clone,
		Profile:            prof,
		Choices:            choices,
		Stats:              stats,
		BaselineRate:       baseRate,
		ReplicatedRate:     replRate,
		BaselineChecksum:   baseSum,
		ReplicatedChecksum: replSum,
	}, nil
}

// RunBL compiles and runs the pipeline on BL source.
func RunBL(src string, cfg Config) (*Result, error) {
	prog, err := lang.Compile(src)
	if err != nil {
		return nil, err
	}
	return Run(prog, cfg)
}

func execute(prog *ir.Program, cfg Config, hook interp.BranchFunc, swHook interp.SwitchFunc) (rate float64, checksum uint64, err error) {
	m := interp.New(prog)
	m.MaxBranches = cfg.Budget
	m.Hook = hook
	m.SwHook = swHook
	for name, v := range cfg.Globals {
		if err := m.SetGlobal(name, v); err != nil {
			return 0, 0, err
		}
	}
	if _, err := m.Run(); err != nil && !errors.Is(err, interp.ErrLimit) {
		return 0, 0, err
	}
	if m.Predicted > 0 {
		rate = 100 * float64(m.Mispredicted) / float64(m.Predicted)
	}
	return rate, m.Checksum, nil
}
