// Package exec is the run interface over the reference interpreter
// (internal/interp): it adapts the interpreter's field-based configuration
// to setters and reports one counter summary per run. Harnesses (the bench
// suite, the service, the krallperf mirrors) compile once with
// Interp.Compile and start one Machine per run.
package exec

import (
	"context"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/trace"
)

// Counters is the observable execution summary of one run.
type Counters struct {
	Steps        uint64
	Branches     uint64
	Predicted    uint64
	Mispredicted uint64
	Checksum     uint64
	Prints       uint64
}

// Interpreter compiles IR programs for the interpreter.
type Interpreter struct{}

// Interp is the interpreter.
var Interp Interpreter

// Compile prepares prog for execution. The interpreter runs the IR as it
// is, so compiling is free and never fails; the error is kept for callers
// that treat compilation as a fallible step.
func (Interpreter) Compile(prog *ir.Program) (Program, error) {
	return Program{prog}, nil
}

// Program is a compiled program, immutable and safe for concurrent
// NewMachine calls.
type Program struct{ prog *ir.Program }

// NewMachine creates a fresh machine with globals initialised.
func (p Program) NewMachine() *Machine { return &Machine{interp.New(p.prog)} }

// Machine is one run of a compiled program. It is not safe for concurrent
// use; create one per run with Program.NewMachine.
type Machine struct{ m *interp.Machine }

// SetHook installs the per-branch observer (nil disables).
func (a *Machine) SetHook(fn func(t *ir.Term, taken bool)) { a.m.Hook = fn }

// SetSwHook installs the per-switch observer (nil disables): it fires for
// every executed switch dispatch and for every taken clustering test, with
// the dispatch outcome.
func (a *Machine) SetSwHook(fn func(t *ir.Term, outcome int32)) { a.m.SwHook = fn }

// SetRec directs branch events into a trace slab (nil disables). When both
// a hook and a slab are set the slab records first.
func (a *Machine) SetRec(s *trace.Slab) { a.m.Rec = s }

// SetMaxSteps bounds executed instructions (0 = unlimited).
func (a *Machine) SetMaxSteps(n uint64) { a.m.MaxSteps = n }

// SetMaxBranches bounds executed conditional branches (0 = unlimited).
func (a *Machine) SetMaxBranches(n uint64) { a.m.MaxBranches = n }

// SetContext installs a cancellation context polled every checkEvery
// executed blocks (0 = the 4096-block default).
func (a *Machine) SetContext(ctx context.Context, checkEvery uint32) {
	a.m.Ctx = ctx
	a.m.CtxCheckEvery = checkEvery
}

// EnableBlockCounts turns on per-block execution counting, indexed by IR
// function and block IDs.
func (a *Machine) EnableBlockCounts() { a.m.EnableBlockCounts() }

// BlockCounts returns the per-function, per-block counts, or nil.
func (a *Machine) BlockCounts() [][]uint64 { return a.m.BlockCounts() }

// SetGlobal overrides a scalar global before a run.
func (a *Machine) SetGlobal(name string, v int64) error { return a.m.SetGlobal(name, v) }

// Run executes func main and returns its value. Limits return
// interp.ErrLimit; traps return *interp.RuntimeError.
func (a *Machine) Run() (int64, error) { return a.m.Run() }

// Counters returns the execution counters.
func (a *Machine) Counters() Counters {
	return Counters{
		Steps: a.m.Steps, Branches: a.m.Branches,
		Predicted: a.m.Predicted, Mispredicted: a.m.Mispredicted,
		Checksum: a.m.Checksum, Prints: a.m.Prints,
	}
}
