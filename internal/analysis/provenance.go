package analysis

import (
	"repro/internal/ir"
	"repro/internal/statemachine"
)

// BlockID names a block of the pre-transform snapshot positionally: Func is
// the function's index in Program.Funcs, Block the block's index in
// Func.Blocks at snapshot time. ir.CloneProgram preserves both orders, so a
// BlockID recorded against the program under transformation indexes the
// snapshot directly.
type BlockID struct {
	Func  int
	Block int
}

// authKind says which mechanism owns a branch copy's static prediction.
type authKind uint8

const (
	// authProfile: the plain profile prediction vector (replicate.Annotate).
	authProfile authKind = iota
	// authMachine: a loop/exit/joint machine state governs the branch.
	authMachine
	// authPath: a correlated path machine copy or catch-all.
	authPath
)

// predAuth records the prediction authority of one branch copy. The zero
// value (and a missing map entry) means profile authority.
type predAuth struct {
	kind  authKind
	app   *MachineApp
	papp  *PathApp
	state int // machine state, or path state index (-1 = catch-all)
	bi    int // branch index within a joint machine (0 for single machines)
}

// Machine is the verifier's view of a prediction state machine: a total
// deterministic automaton over (state, branch index, outcome) with a
// per-(state, branch) prediction. Next reports false when the transition is
// undefined (an ill-formed machine), which the well-formedness pass turns
// into a diagnostic instead of a crash.
type Machine interface {
	NumStates() int
	InitState() int
	Predict(state, branch int) bool
	Next(state, branch int, taken bool) (int, bool)
}

// LoopMachineModel adapts a statemachine.LoopMachine (single branch, so the
// branch index is ignored).
type LoopMachineModel struct{ M *statemachine.LoopMachine }

func (m LoopMachineModel) NumStates() int { return m.M.NumStates() }
func (m LoopMachineModel) InitState() int { return m.M.Init }
func (m LoopMachineModel) Predict(state, _ int) bool {
	if state < 0 || state >= len(m.M.PredTaken) {
		return false
	}
	return m.M.PredTaken[state]
}
func (m LoopMachineModel) Next(state, _ int, taken bool) (int, bool) {
	if state < 0 || state >= m.M.NumStates() {
		return -1, false
	}
	return m.M.NextIndex(state, taken)
}

// ExitMachineModel adapts a statemachine.ExitMachine.
type ExitMachineModel struct{ M *statemachine.ExitMachine }

func (m ExitMachineModel) NumStates() int { return m.M.N }
func (m ExitMachineModel) InitState() int { return 0 }
func (m ExitMachineModel) Predict(state, _ int) bool {
	if state < 0 || state >= len(m.M.PredTaken) {
		return false
	}
	return m.M.PredTaken[state]
}
func (m ExitMachineModel) Next(state, _ int, taken bool) (int, bool) {
	if state < 0 || state >= m.M.N {
		return -1, false
	}
	return m.M.Next(state, taken), true
}

// JointMachineModel adapts a statemachine.JointMachine (§6 product machine).
type JointMachineModel struct{ M *statemachine.JointMachine }

func (m JointMachineModel) NumStates() int { return m.M.States }
func (m JointMachineModel) InitState() int { return m.M.Init }
func (m JointMachineModel) Predict(state, branch int) bool {
	if state < 0 || state >= m.M.States || branch < 0 || branch >= len(m.M.Branches) {
		return false
	}
	return m.M.Predict(state, branch)
}
func (m JointMachineModel) Next(state, branch int, taken bool) (int, bool) {
	if state < 0 || state >= m.M.States || branch < 0 || branch >= len(m.M.Branches) {
		return -1, false
	}
	n := m.M.Next(state, branch, taken)
	if n < 0 || n >= m.M.States {
		return -1, false
	}
	return n, true
}

// Provenance records, while the replicator runs, where every block of the
// transformed program came from and which machine state governs each branch
// copy's static prediction. The Equivalence pass replays it as a lock-step
// simulation relation against the pre-transform snapshot.
//
// All methods are safe on a nil receiver (they do nothing and return zero
// values), so the replicator threads one pointer through unconditionally and
// only pays for bookkeeping when verification is requested.
type Provenance struct {
	origin map[*ir.Block]BlockID
	auth   map[*ir.Block]predAuth
	apps   []*MachineApp
}

// NewProvenance snapshots prog's current block positions as the identity
// origins. Call it before any transformation (and before Annotate).
func NewProvenance(prog *ir.Program) *Provenance {
	p := &Provenance{
		origin: make(map[*ir.Block]BlockID),
		auth:   make(map[*ir.Block]predAuth),
	}
	for fi, f := range prog.Funcs {
		for bi, b := range f.Blocks {
			p.origin[b] = BlockID{Func: fi, Block: bi}
		}
	}
	return p
}

// Origin returns the snapshot position block b descends from.
func (p *Provenance) Origin(b *ir.Block) (BlockID, bool) {
	if p == nil {
		return BlockID{}, false
	}
	id, ok := p.origin[b]
	return id, ok
}

// RecordClones registers a CloneBlocks original→copy map: each copy inherits
// its source's origin, prediction authority, and per-application machine
// states.
func (p *Provenance) RecordClones(m map[*ir.Block]*ir.Block) {
	if p == nil {
		return
	}
	for src, cp := range m {
		if id, ok := p.origin[src]; ok {
			p.origin[cp] = id
		}
		if a, ok := p.auth[src]; ok {
			p.auth[cp] = a
		}
		for _, app := range p.apps {
			if s, ok := app.stateOf[src]; ok {
				app.stateOf[cp] = s
			}
		}
	}
}

// NewMachineApp opens the record of one machine application (one
// replicateLoop / replicateLoopJoint call).
func (p *Provenance) NewMachineApp(m Machine) *MachineApp {
	if p == nil {
		return nil
	}
	app := &MachineApp{prov: p, M: m, stateOf: make(map[*ir.Block]int)}
	p.apps = append(p.apps, app)
	return app
}

// NewPathApp opens the record of one correlated-machine application (one
// replicatePath call).
func (p *Provenance) NewPathApp(m *statemachine.PathMachine) *PathApp {
	if p == nil {
		return nil
	}
	return &PathApp{prov: p, m: m}
}

// Apps returns every machine application recorded so far.
func (p *Provenance) Apps() []*MachineApp {
	if p == nil {
		return nil
	}
	return p.apps
}

func (p *Provenance) authOf(b *ir.Block) predAuth {
	if p == nil {
		return predAuth{}
	}
	return p.auth[b]
}

// MachineApp is the record of one loop/exit/joint machine application: the
// machine and the state each created block copy belongs to.
type MachineApp struct {
	prov    *Provenance
	M       Machine
	stateOf map[*ir.Block]int
}

// SetState assigns block copy b to machine state s.
func (a *MachineApp) SetState(b *ir.Block, s int) {
	if a == nil {
		return
	}
	a.stateOf[b] = s
}

// SetBranch assigns the governed branch copy b to state s and makes this
// application the authority for b's static prediction, as branch index bi of
// the machine.
func (a *MachineApp) SetBranch(b *ir.Block, s, bi int) {
	if a == nil {
		return
	}
	a.stateOf[b] = s
	a.prov.auth[b] = predAuth{kind: authMachine, app: a, state: s, bi: bi}
}

// StateOf returns the machine state of block b under this application.
func (a *MachineApp) StateOf(b *ir.Block) (int, bool) {
	if a == nil {
		return 0, false
	}
	s, ok := a.stateOf[b]
	return s, ok
}

// PathApp is the record of one correlated-machine application: which blocks
// are state copies, which is the catch-all, and which path states ended up
// routed (unrouted states fold their counts into the catch-all).
type PathApp struct {
	prov   *Provenance
	m      *statemachine.PathMachine
	routed []bool
}

// SetStateCopy makes this application the prediction authority of the
// tail-duplicated copy c for path state index state.
func (a *PathApp) SetStateCopy(c *ir.Block, state int) {
	if a == nil {
		return
	}
	a.prov.auth[c] = predAuth{kind: authPath, papp: a, state: state}
}

// SetCatchAll makes this application the prediction authority of the
// catch-all block b.
func (a *PathApp) SetCatchAll(b *ir.Block) {
	if a == nil {
		return
	}
	a.prov.auth[b] = predAuth{kind: authPath, papp: a, state: -1}
}

// Finish records which path states were actually routed to their own copy.
func (a *PathApp) Finish(stateRouted []bool) {
	if a == nil {
		return
	}
	a.routed = append([]bool(nil), stateRouted...)
}

// expectedCatch recomputes the catch-all's correct prediction: the machine's
// catch-all counts merged with the counts of every unrouted path state
// (mirroring the fold the replicator performs). Before Finish (the
// no-routable-states early return) it is the machine's plain catch-all
// prediction.
func (a *PathApp) expectedCatch() bool {
	if a.routed == nil {
		return a.m.CatchPred
	}
	pair := a.m.CatchPair
	for i := range a.m.Paths {
		if i < len(a.routed) && !a.routed[i] {
			pair.Merge(a.m.StatePairs[i])
		}
	}
	return pair.MajorityTaken()
}
