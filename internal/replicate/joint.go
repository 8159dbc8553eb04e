package replicate

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/statemachine"
)

// ApplyJoint is the §6 variant of Apply: branches that share an innermost
// loop are replicated together with a single minimised joint machine
// (statemachine.BuildJoint) instead of sequentially — sequential
// application multiplies loop copies (n1·n2·…), the joint machine needs
// only its minimised product's states. Correlated (path) machines and
// branches alone in their loop are handled exactly as Apply does.
func ApplyJoint(prog *ir.Program, choices []statemachine.Choice, profilePreds []ir.Prediction, opts Options) (*Stats, error) {
	st := &Stats{InstrsBefore: prog.NumInstrs()}
	if opts.Verify {
		st.Orig = ir.CloneProgram(prog)
		st.Prov = analysis.NewProvenance(prog)
	}
	Annotate(prog, profilePreds)
	branchy := branchyFuncs(prog)
	budget := 0
	if opts.MaxSizeFactor > 0 {
		budget = int(float64(st.InstrsBefore) * opts.MaxSizeFactor)
	}

	choiceBySite := map[int32]*statemachine.Choice{}
	for i := range choices {
		c := &choices[i]
		// Statically-decided sites never enter the joint groups — same
		// "budget: static" rule as the sequential driver.
		if int(c.Site) < len(opts.StaticSkip) && opts.StaticSkip[c.Site] {
			st.StaticSkipped++
			continue
		}
		if c.Kind != statemachine.KindProfile {
			choiceBySite[c.Site] = c
		}
	}

	// Fixpoint over (loop, machine branches) groups: each pass re-analyses
	// the current CFG, picks one unprocessed group per function, and
	// replicates it jointly. Branch copies created by one pass are
	// themselves groups in later passes (nested loops replicate
	// multiplicatively, as in sequential application, but same-loop
	// branches share one minimised machine).
	processed := map[*ir.Block]bool{}
	loops := loopForests{}
	for pass := 0; pass < 1000; pass++ {
		progress := false
		for _, f := range prog.Funcs {
			lf := loops.forest(f)
			groups := map[*cfg.Loop][]*ir.Block{}
			var loopOrder []*cfg.Loop
			for _, b := range f.Blocks {
				if b.Term.Op != ir.TermBr || b.Term.SwTest || processed[b] {
					continue
				}
				c := choiceBySite[b.Term.Orig]
				if c == nil || (c.Kind != statemachine.KindLoop && c.Kind != statemachine.KindExit) {
					continue
				}
				l := lf.InnermostLoop(b)
				if l == nil {
					processed[b] = true
					continue
				}
				if _, seen := groups[l]; !seen {
					loopOrder = append(loopOrder, l)
				}
				groups[l] = append(groups[l], b)
			}
			if len(loopOrder) == 0 {
				continue
			}
			// One group per pass per function keeps every later group's
			// analysis fresh.
			l := loopOrder[0]
			blocks := groups[l]
			// Cap the product: joint-replicate the highest-gain branches
			// whose product stays tractable; the rest stay unprocessed and
			// replicate over the copies in later passes (sequentially,
			// exactly as Apply would).
			sort.SliceStable(blocks, func(a, b int) bool {
				return choiceBySite[blocks[a].Term.Orig].Gain() > choiceBySite[blocks[b].Term.Orig].Gain()
			})
			const maxProduct = 4096
			prod := 1
			sel := blocks[:0]
			for _, b := range blocks {
				n := choiceBySite[b.Term.Orig].NumStates()
				if prod*n <= maxProduct {
					prod *= n
					sel = append(sel, b)
				}
			}
			blocks = sel
			for _, b := range blocks {
				processed[b] = true
			}
			progress = true
			if budget > 0 && prog.NumInstrs() > budget {
				st.Skipped += len(blocks)
				continue
			}
			var cs []*statemachine.Choice
			for _, b := range blocks {
				cs = append(cs, choiceBySite[b.Term.Orig])
			}
			jm, err := statemachine.BuildJoint(cs)
			if err != nil {
				return st, err
			}
			// If the joint machine blows the size budget, drop the
			// lowest-gain branches (the list is gain-sorted) until it
			// fits, rather than skipping the whole loop.
			for budget > 0 && len(cs) > 0 &&
				prog.NumInstrs()+(jm.States-1)*l.NumInstrs() > budget {
				st.Skipped++
				cs = cs[:len(cs)-1]
				blocks = blocks[:len(blocks)-1]
				if len(cs) == 0 {
					break
				}
				jm, err = statemachine.BuildJoint(cs)
				if err != nil {
					return st, err
				}
			}
			if len(cs) == 0 {
				continue
			}
			clones, err := replicateLoopJoint(f, l, blocks, jm, st.Prov)
			if err != nil {
				st.Skipped += len(blocks)
				continue
			}
			if jm.States >= 2 {
				// Copying the loop rewrote f's CFG, and no other function's.
				delete(loops, f)
			}
			for _, cb := range clones {
				processed[cb] = true
			}
			st.LoopApplied += len(blocks)
		}
		if !progress {
			break
		}
	}

	// Correlated machines as usual.
	for i := range choices {
		c := &choices[i]
		if c.Kind != statemachine.KindPath {
			continue
		}
		for _, f := range prog.Funcs {
			for _, b := range f.Blocks {
				if b.Term.Op == ir.TermBr && !b.Term.SwTest && b.Term.Orig == c.Site {
					routed, catch := replicatePath(prog, f, b, c.Path, branchy, st.Prov)
					st.PathEdgesRouted += routed
					st.PathEdgesCatchAll += catch
					st.PathApplied++
				}
			}
		}
	}

	prog.NumberBranches(false)
	if err := prog.Validate(); err != nil {
		return st, fmt.Errorf("replicate: joint-transformed program invalid: %w", err)
	}
	st.InstrsAfter = prog.NumInstrs()
	if err := verify(st, prog, choices, profilePreds, opts); err != nil {
		return st, err
	}
	return st, nil
}

// replicateLoopJoint copies loop l once per joint-machine state and wires
// every machine branch's successors through the joint transition function.
// It returns the branch-block clones it created so the driver can mark
// them processed.
func replicateLoopJoint(f *ir.Func, l *cfg.Loop, branches []*ir.Block, jm *statemachine.JointMachine, prov *analysis.Provenance) ([]*ir.Block, error) {
	if jm.States < 2 {
		// One state: just annotate the branches.
		app := prov.NewMachineApp(analysis.JointMachineModel{M: jm})
		for bi, b := range branches {
			b.Term.Pred = predOf(jm.Predict(0, bi))
			app.SetBranch(b, 0, bi)
		}
		return nil, nil
	}
	if l.Contains(f.Entry) {
		return nil, fmt.Errorf("replicate: loop contains the function entry")
	}
	preClone := make([]*ir.Block, len(f.Blocks))
	copy(preClone, f.Blocks)

	app := prov.NewMachineApp(analysis.JointMachineModel{M: jm})
	copies := make([]map[*ir.Block]*ir.Block, jm.States)
	for s := 0; s < jm.States; s++ {
		copies[s] = ir.CloneBlocks(f, l.Blocks, fmt.Sprintf(".j%d", s))
		prov.RecordClones(copies[s])
		for _, cp := range copies[s] {
			app.SetState(cp, s)
		}
	}
	for bi, b := range branches {
		origThen, origElse := b.Term.Then, b.Term.Else
		for s := 0; s < jm.States; s++ {
			bc := copies[s][b]
			bc.Term.Pred = predOf(jm.Predict(s, bi))
			app.SetBranch(bc, s, bi)
			if l.Contains(origThen) {
				bc.Term.Then = copies[jm.Next(s, bi, true)][origThen]
			}
			if l.Contains(origElse) {
				bc.Term.Else = copies[jm.Next(s, bi, false)][origElse]
			}
		}
	}
	initHeader := copies[jm.Init][l.Header]
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
	var clones []*ir.Block
	for s := 0; s < jm.States; s++ {
		for _, b := range branches {
			clones = append(clones, copies[s][b])
		}
	}
	return clones, nil
}
