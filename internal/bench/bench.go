// Package bench contains the eight BL workloads substituting for the
// paper's benchmark suite (abalone, c-compiler, compress, ghostview,
// predict, prolog, scheduler, doduc — see DESIGN.md for the archetype
// mapping) and the experiment drivers that regenerate every table and
// figure of the evaluation section.
package bench

import (
	"errors"
	"fmt"

	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Workload is one benchmark program.
type Workload struct {
	// Name matches the paper's benchmark column.
	Name string
	// Source is the BL program text.
	Source string
	// Archetype documents which original benchmark it substitutes.
	Archetype string
}

// Workloads returns the suite in the paper's column order.
func Workloads() []Workload {
	return []Workload{
		{"abalone", abaloneSrc, "board game with alpha-beta search"},
		{"cc", ccSrc, "lcc compiler front end"},
		{"compress", compressSrc, "SPEC compress (LZW)"},
		{"ghostview", ghostviewSrc, "X PostScript previewer"},
		{"predict", predictSrc, "the paper's own profiling tool"},
		{"prolog", prologSrc, "minivip Prolog interpreter"},
		{"scheduler", schedulerSrc, "instruction scheduler"},
		{"doduc", doducSrc, "SPEC doduc hydrocode (floating point)"},
	}
}

// ByName returns a workload by name: the paper suite first, then the
// indirect-dispatch workloads (which stay out of Workloads so the paper's
// pinned tables never change shape).
func ByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	for _, w := range IndirectWorkloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// Compiled is a workload compiled to IR with its static analyses.
type Compiled struct {
	Workload Workload
	Prog     *ir.Program
	NSites   int
	Features []predict.SiteFeatures
}

// Compile builds a workload.
func Compile(w Workload) (*Compiled, error) {
	prog, err := lang.Compile(w.Source)
	if err != nil {
		return nil, fmt.Errorf("bench: compiling %s: %w", w.Name, err)
	}
	n := prog.NumberBranches(true)
	return &Compiled{
		Workload: w,
		Prog:     prog,
		NSites:   n,
		Features: predict.Analyze(prog),
	}, nil
}

// RunConfig controls one execution.
type RunConfig struct {
	// Budget stops the run after this many branch events (0 = run the
	// program to completion). Hitting the budget is normal completion.
	Budget uint64
	// Seed overrides the program's wseed global when non-zero.
	Seed int64
	// Scale overrides the program's wscale global when non-zero; programs
	// default to a size suited to a few-million-branch budget.
	Scale int64
}

// newMachine prepares an interpreter run of prog under the run config.
func newMachine(prog *ir.Program, cfg RunConfig) (*exec.Machine, error) {
	ep, _ := exec.Interp.Compile(prog) // the interpreter's compile never fails
	m := ep.NewMachine()
	m.SetMaxBranches(cfg.Budget)
	if cfg.Seed != 0 {
		if err := m.SetGlobal("wseed", cfg.Seed); err != nil {
			return nil, err
		}
	}
	if cfg.Scale != 0 {
		if err := m.SetGlobal("wscale", cfg.Scale); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Run executes the compiled program on the interpreter, feeding every
// branch event to the collectors, and returns the machine for its counters.
func (c *Compiled) Run(cfg RunConfig, collectors ...trace.Collector) (*exec.Machine, error) {
	return runProgram(c.Prog, cfg, collectors...)
}

// runProgram executes any program on the interpreter under the run config.
func runProgram(prog *ir.Program, cfg RunConfig, collectors ...trace.Collector) (*exec.Machine, error) {
	m, err := newMachine(prog, cfg)
	if err != nil {
		return nil, err
	}
	switch len(collectors) {
	case 0:
	case 1:
		m.SetHook(interp.BranchHook(collectors[0]))
		if sc, ok := collectors[0].(trace.SwitchCollector); ok {
			m.SetSwHook(interp.SwitchHook(sc))
		}
	default:
		// Batch the fan-out: the hot dispatch loop pays one buffer append
		// per event instead of one interface call per collector per event.
		// Switches ride the same buffer, so every collector sees the two
		// kinds in execution order. Release flushes the tail before the
		// collectors are read and returns the buffer to the shared pool.
		b := trace.NewBatcher(collectors...)
		defer b.Release()
		m.SetHook(func(t *ir.Term, taken bool) { b.RecordBranch(t.Site, taken) })
		m.SetSwHook(func(t *ir.Term, outcome int32) { b.RecordSwitch(t.Site, outcome) })
	}
	if _, err := m.Run(); err != nil && !errors.Is(err, interp.ErrLimit) {
		return nil, fmt.Errorf("bench: running %s: %w", prog.Funcs[0].Name, err)
	}
	return m, nil
}

// ProfileRun runs the workload once and returns the full profile bundle.
func (c *Compiled) ProfileRun(cfg RunConfig, opts profile.Options) (*profile.Profile, *exec.Machine, error) {
	p := profile.New(c.NSites, opts)
	m, err := c.Run(cfg, p)
	if err != nil {
		return nil, nil, err
	}
	return p, m, nil
}
