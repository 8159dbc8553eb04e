package bench

import (
	"context"

	"repro/internal/exec"
	"repro/internal/ir"
)

// newMachine prepares a run of prog on cfg's dataset cell, for the tests
// that drive the interpreter themselves.
func newMachine(prog *ir.Program, cfg RunConfig) (*exec.Machine, error) {
	return cfg.Machine(context.Background(), prog)
}
