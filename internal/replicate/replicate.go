// Package replicate implements the paper's code replication transforms
// (sections 4–5): loop replication, which materialises a branch prediction
// state machine as one copy of the enclosing natural loop per state
// (Figure 1), and tail duplication for correlated branches (after Mueller &
// Whalley), which gives each predecessor path its own copy of the branch
// block. Every replicated branch copy carries a static prediction — the
// majority direction of its machine state — so the interpreter can measure
// the transformed program's real misprediction rate.
package replicate

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/statemachine"
)

// ErrVerify wraps the first verifier Error when Options.Verify is set and
// the transformed program fails the equivalence check. Callers test with
// errors.Is; the full diagnostic list is in Stats.Diags.
var ErrVerify = errors.New("replicate: verification failed")

// Stats reports what one Apply call did.
type Stats struct {
	// LoopApplied / ExitApplied / PathApplied count machine applications
	// (one per branch copy present when the machine was applied).
	LoopApplied int
	ExitApplied int
	PathApplied int
	// PathEdgesRouted counts predecessor edges routed to a specific path
	// state; PathEdgesCatchAll counts edges left on the catch-all copy.
	PathEdgesRouted   int
	PathEdgesCatchAll int
	// Skipped counts machines that could not be applied (e.g. the loop
	// disappeared after an earlier transform).
	Skipped int
	// StaticSkipped counts machines dropped because Options.StaticSkip
	// marked their site as statically decided — replication budget is
	// never spent on a branch whose direction is already proven.
	StaticSkipped int
	// InstrsBefore/After measure code size (the paper's size metric).
	InstrsBefore, InstrsAfter int
	// Verified reports that Options.Verify was set and the equivalence
	// verifier found no errors; Diags holds its full output (including
	// warnings). Orig and Prov are the pre-transform snapshot and the copy
	// provenance the verification ran against, for callers that want to
	// re-run or extend the analysis.
	Verified bool
	Diags    []analysis.Diagnostic
	Orig     *ir.Program
	Prov     *analysis.Provenance
}

// SizeFactor is the code growth ratio.
func (s *Stats) SizeFactor() float64 {
	if s.InstrsBefore == 0 {
		return 1
	}
	return float64(s.InstrsAfter) / float64(s.InstrsBefore)
}

// Annotate sets every conditional branch's static prediction from the
// per-original-branch vector (indexed by Orig ID; ir.PredNone entries are
// allowed and left unpredicted). Replicated copies inherit their original's
// prediction until a machine overrides them. SwTest branches are owned by
// the indirect clustering family — their prediction encodes the profiled
// hot outcome and must survive branch-family annotation.
func Annotate(prog *ir.Program, preds []ir.Prediction) {
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			if b.Term.Op != ir.TermBr || b.Term.SwTest {
				continue
			}
			if int(b.Term.Orig) < len(preds) {
				b.Term.Pred = preds[b.Term.Orig]
			}
		}
	}
}

// machine abstracts the two loop-replicable machine families.
type machine interface {
	NumStates() int
	Next(i int, taken bool) int
	predTaken(i int) bool
	initState() int
	model() analysis.Machine
}

type loopM struct{ *statemachine.LoopMachine }

func (m loopM) predTaken(i int) bool    { return m.PredTaken[i] }
func (m loopM) initState() int          { return m.Init }
func (m loopM) model() analysis.Machine { return analysis.LoopMachineModel{M: m.LoopMachine} }

type exitM struct{ *statemachine.ExitMachine }

func (m exitM) predTaken(i int) bool    { return m.PredTaken[i] }
func (m exitM) initState() int          { return 0 }
func (m exitM) model() analysis.Machine { return analysis.ExitMachineModel{M: m.ExitMachine} }

func predOf(taken bool) ir.Prediction {
	if taken {
		return ir.PredTaken
	}
	return ir.PredNotTaken
}

// Options bounds an Apply run.
type Options struct {
	// MaxSizeFactor stops applying further machines once the program has
	// grown past this factor of its original size (0 = unlimited). Two
	// replicated branches in one loop multiply its copies — §6 notes that
	// some programs would grow more than a thousandfold without a cost
	// bound, and §5's optimizer applies replication only where a cost
	// function allows it.
	MaxSizeFactor float64
	// StaticSkip, indexed by original branch site, marks sites the static
	// analysis decided (always-taken, dead, or unreachable branches).
	// Machines targeting a marked site are dropped before the budget is
	// allocated — the "budget: static" selection mode.
	StaticSkip []bool
	// Verify makes Apply record copy provenance while transforming and run
	// the analysis.Verify equivalence suite on the result: any verifier
	// Error fails the call with ErrVerify. The snapshot, provenance, and
	// diagnostics are returned in Stats.
	Verify bool
}

// Apply replicates code for every non-profile choice, after annotating all
// branches with the profile predictions. The program is modified in place
// (clone it first with ir.CloneProgram to keep the original); on return the
// branch sites are renumbered (Orig IDs preserved) and the program is
// revalidated.
//
// Correlated machines are applied through tail duplication with
// length-1 paths (the immediately preceding branch); longer path states are
// served by the catch-all copy — the measured rate is then an upper bound
// of the predicted one. Loop and exit machines are applied in full.
func Apply(prog *ir.Program, choices []statemachine.Choice, profilePreds []ir.Prediction) (*Stats, error) {
	return ApplyOpts(prog, choices, profilePreds, Options{})
}

// ApplyOpts is Apply with a size budget: machines are applied in order of
// decreasing profile improvement, and applications stop once the budget is
// exhausted (remaining machines are counted as Skipped).
func ApplyOpts(prog *ir.Program, choices []statemachine.Choice, profilePreds []ir.Prediction, opts Options) (*Stats, error) {
	st := &Stats{InstrsBefore: prog.NumInstrs()}
	if opts.Verify {
		st.Orig = ir.CloneProgram(prog)
		st.Prov = analysis.NewProvenance(prog)
	}
	Annotate(prog, profilePreds)
	branchy := branchyFuncs(prog)
	loops := loopForests{}
	// Apply in decreasing gain density (correct predictions gained per
	// instruction added) — the ordering rule of the paper's §5 figures.
	// Costs are estimated on the untransformed program.
	type cand struct {
		idx     int
		density float64
	}
	var cands []cand
	for i := range choices {
		c := &choices[i]
		// Statically-decided sites are claimed by the analysis before the
		// profile-static fallback: however the selection classified them,
		// no replication budget is spent there.
		if int(c.Site) < len(opts.StaticSkip) && opts.StaticSkip[c.Site] {
			st.StaticSkipped++
			continue
		}
		if c.Kind == statemachine.KindProfile {
			continue
		}
		cost := 1.0
		if c.Kind != statemachine.KindPath {
			for _, f := range prog.Funcs {
				for _, b := range f.Blocks {
					if b.Term.Op == ir.TermBr && !b.Term.SwTest && b.Term.Orig == c.Site {
						if est := loops.growth(f, b, c.NumStates()); est > 0 {
							cost += float64(est)
						}
					}
				}
			}
		}
		cands = append(cands, cand{idx: i, density: c.Gain() / cost})
	}
	sort.SliceStable(cands, func(a, b int) bool {
		return cands[a].density > cands[b].density
	})
	order := make([]int, len(cands))
	for i, c := range cands {
		order[i] = c.idx
	}
	budget := 0
	if opts.MaxSizeFactor > 0 {
		budget = int(float64(st.InstrsBefore) * opts.MaxSizeFactor)
	}
	for _, i := range order {
		c := &choices[i]
		if budget > 0 && prog.NumInstrs() > budget {
			st.Skipped++
			continue
		}
		// Locate every current block descending from the original branch.
		type site struct {
			f *ir.Func
			b *ir.Block
		}
		var sites []site
		for _, f := range prog.Funcs {
			for _, b := range f.Blocks {
				if b.Term.Op == ir.TermBr && !b.Term.SwTest && b.Term.Orig == c.Site {
					sites = append(sites, site{f, b})
				}
			}
		}
		for _, s := range sites {
			if budget > 0 {
				cur := prog.NumInstrs()
				if cur > budget {
					st.Skipped++
					continue
				}
				if c.Kind == statemachine.KindLoop || c.Kind == statemachine.KindExit {
					if cur+loops.growth(s.f, s.b, c.NumStates()) > budget {
						st.Skipped++
						continue
					}
				}
			}
			var err error
			switch c.Kind {
			case statemachine.KindLoop:
				err = replicateLoop(s.f, s.b, loops.innermost(s.f, s.b), loopM{c.Loop}, st.Prov)
				if err == nil {
					st.LoopApplied++
				}
			case statemachine.KindExit:
				err = replicateLoop(s.f, s.b, loops.innermost(s.f, s.b), exitM{c.Exit}, st.Prov)
				if err == nil {
					st.ExitApplied++
				}
			case statemachine.KindPath:
				routed, catch := replicatePath(prog, s.f, s.b, c.Path, branchy, st.Prov)
				st.PathEdgesRouted += routed
				st.PathEdgesCatchAll += catch
				st.PathApplied++
			}
			// Both transforms rewrite s.f and no other function.
			delete(loops, s.f)
			if err != nil {
				st.Skipped++
			}
		}
	}
	prog.NumberBranches(false)
	if err := prog.Validate(); err != nil {
		return st, fmt.Errorf("replicate: transformed program invalid: %w", err)
	}
	st.InstrsAfter = prog.NumInstrs()
	if err := verify(st, prog, choices, profilePreds, opts); err != nil {
		return st, err
	}
	return st, nil
}

// verify runs the equivalence suite over the transformed program when
// Options.Verify is set, recording the diagnostics in st.
func verify(st *Stats, prog *ir.Program, choices []statemachine.Choice, profilePreds []ir.Prediction, opts Options) error {
	if !opts.Verify {
		return nil
	}
	st.Diags = analysis.Verify(st.Orig, prog, st.Prov, choices, profilePreds)
	if d := analysis.FirstError(st.Diags); d != nil {
		return fmt.Errorf("%w: %s", ErrVerify, d)
	}
	st.Verified = true
	return nil
}

// loopForests memoises each function's loop forest for one ApplyOpts or
// ApplyJoint run. A transform invalidates only the function it rewrites,
// whose entry the caller drops.
type loopForests map[*ir.Func]*cfg.LoopForest

// forest returns f's loop forest, building it on first use.
func (lfs loopForests) forest(f *ir.Func) *cfg.LoopForest {
	lf, ok := lfs[f]
	if !ok {
		lf = cfg.FindLoops(cfg.Build(f))
		lfs[f] = lf
	}
	return lf
}

// innermost returns the innermost natural loop of f containing b, or nil.
func (lfs loopForests) innermost(f *ir.Func, b *ir.Block) *cfg.Loop {
	return lfs.forest(f).InnermostLoop(b)
}

// growth bounds the instruction growth of replicating the innermost loop
// of block b into n state copies (pruning can only shrink the real figure).
func (lfs loopForests) growth(f *ir.Func, b *ir.Block, n int) int {
	l := lfs.innermost(f, b)
	if l == nil {
		return 0
	}
	return (n - 1) * l.NumInstrs()
}

// replicateLoop materialises a state machine for the branch in block b by
// copying l, b's innermost natural loop, once per state (Figure 1): all
// edges stay within their copy except the replicated branch, whose taken
// and not-taken successors jump into the copies designated by the
// transition function. Entries into the loop go to the initial state's
// copy; exits leave unchanged; unreachable copies are pruned.
func replicateLoop(f *ir.Func, b *ir.Block, l *cfg.Loop, m machine, prov *analysis.Provenance) error {
	n := m.NumStates()
	if n < 2 {
		return nil
	}
	if l == nil {
		return fmt.Errorf("replicate: branch block %s is not in a loop", b)
	}
	if l.Contains(f.Entry) {
		return fmt.Errorf("replicate: loop of %s contains the function entry", b)
	}
	preClone := make([]*ir.Block, len(f.Blocks))
	copy(preClone, f.Blocks)

	app := prov.NewMachineApp(m.model())
	copies := make([]map[*ir.Block]*ir.Block, n)
	for s := 0; s < n; s++ {
		copies[s] = ir.CloneBlocks(f, l.Blocks, fmt.Sprintf(".q%d", s))
		prov.RecordClones(copies[s])
		for _, cp := range copies[s] {
			app.SetState(cp, s)
		}
	}
	// Wire the replicated branch: state transitions happen only here.
	origThen, origElse := b.Term.Then, b.Term.Else
	for s := 0; s < n; s++ {
		bc := copies[s][b]
		bc.Term.Pred = predOf(m.predTaken(s))
		app.SetBranch(bc, s, 0)
		if l.Contains(origThen) {
			bc.Term.Then = copies[m.Next(s, true)][origThen]
		}
		if l.Contains(origElse) {
			bc.Term.Else = copies[m.Next(s, false)][origElse]
		}
	}
	// Route loop entries to the initial state's copy of the header.
	initHeader := copies[m.initState()][l.Header]
	for _, u := range preClone {
		if l.Contains(u) {
			continue
		}
		if u.Term.Then == l.Header {
			u.Term.Then = initHeader
		}
		if (u.Term.Op == ir.TermBr || u.Term.Op == ir.TermSwitch) && u.Term.Else == l.Header {
			u.Term.Else = initHeader
		}
		for ti, tb := range u.Term.Targets {
			if tb == l.Header {
				u.Term.Targets[ti] = initHeader
			}
		}
	}
	ir.RemoveUnreachable(f)
	return nil
}

// branchyFuncs computes which functions may (transitively) execute a
// conditional branch when called; a call to such a function between a
// predecessor branch and a correlated branch invalidates static path
// knowledge.
func branchyFuncs(prog *ir.Program) []bool {
	n := len(prog.Funcs)
	direct := make([]bool, n)
	callees := make([][]int, n)
	for i, f := range prog.Funcs {
		seen := map[int]bool{}
		for _, b := range f.Blocks {
			if b.Term.Op == ir.TermBr {
				direct[i] = true
			}
			for j := range b.Instrs {
				if b.Instrs[j].Op == ir.OpCall {
					c := int(b.Instrs[j].Imm)
					if !seen[c] {
						seen[c] = true
						callees[i] = append(callees[i], c)
					}
				}
			}
		}
	}
	// Propagate to fixpoint (call graphs are tiny).
	changed := true
	for changed {
		changed = false
		for i := range direct {
			if direct[i] {
				continue
			}
			for _, c := range callees[i] {
				if direct[c] {
					direct[i] = true
					changed = true
					break
				}
			}
		}
	}
	return direct
}

// blockCallsBranchy reports whether any call in the block can execute a
// branch.
func blockCallsBranchy(b *ir.Block, branchy []bool) bool {
	for i := range b.Instrs {
		if b.Instrs[i].Op == ir.OpCall && branchy[b.Instrs[i].Imm] {
			return true
		}
	}
	return false
}
