// Package indirect implements the second replication family: case
// clustering of hot switch dispatches. Where the branch family replicates
// code so each copy of a two-way branch carries a sharper static
// prediction, the indirect family rewrites an N-way dispatch whose profiled
// target distribution is skewed into a fast path of predicted equality
// tests — one per hot case — followed by a residual switch that serves the
// cold outcomes and predicts the hottest of them.
//
// The transform preserves the trace format's observable behaviour exactly:
// a taken clustering test emits the same (site, outcome) switch event the
// original dispatch would have, and the residual switch keeps the original
// Site/Orig identity, so clustered programs produce byte-identical traces
// (pinned by the indirect tests and FuzzIndirectEquivalence). Site numbering is also stable: the inserted
// blocks sit directly after the original block in walk order and the
// residual switch occupies the original's site position, so renumbering a
// clustered program is a no-op.
package indirect

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/trace"
)

// Options bounds the clustering transform.
type Options struct {
	// MaxTests caps the number of equality tests per clustered switch
	// (default 2). The chain covers at most the MaxTests hottest cases.
	MaxTests int
	// MinShare is the minimum fraction of a site's dispatches an outcome
	// must hold to earn an equality test (default 0.25).
	MinShare float64
	// MinCount is the minimum number of profiled dispatches a site needs
	// before it is considered hot at all (default 16).
	MinCount uint64
}

func (o *Options) setDefaults() {
	if o.MaxTests == 0 {
		o.MaxTests = 2
	}
	if o.MinShare == 0 {
		o.MinShare = 0.25
	}
	if o.MinCount == 0 {
		o.MinCount = 16
	}
}

// Stats reports what the transform did.
type Stats struct {
	// Switches is the number of switch dispatch sites inspected.
	Switches int
	// Clustered is the number of sites rewritten.
	Clustered int
	// Tests is the total number of equality tests inserted.
	Tests int
	// BlocksAdded counts the new chain and residual blocks.
	BlocksAdded int
	// InstrsBefore/InstrsAfter measure code growth.
	InstrsBefore, InstrsAfter int
}

// SizeFactor is the measured code growth.
func (s *Stats) SizeFactor() float64 {
	if s.InstrsBefore == 0 {
		return 1
	}
	return float64(s.InstrsAfter) / float64(s.InstrsBefore)
}

// TestRecord describes one equality test of a clustered site's chain.
type TestRecord struct {
	// Outcome is the case outcome the test covers.
	Outcome int32
	// Block holds the test; the first test lives in the original switch
	// block, later ones in inserted blocks.
	Block *ir.Block
	// Pred is the static prediction the transform assigned to the test.
	Pred ir.Prediction
}

// SiteRecord is the provenance of one clustered switch site, enough for
// Verify to re-derive the transform and for diagnostics to locate it.
type SiteRecord struct {
	// Site is the switch's prediction site ID.
	Site int32
	// FuncID is the index of the containing function.
	FuncID int
	// Tests is the fast-path chain in test order.
	Tests []TestRecord
	// Residual holds the residual switch terminator.
	Residual *ir.Block
	// PredIdx is the residual switch's predicted outcome, or -1 when no
	// residual outcome was ever profiled (the residual stays unpredicted).
	PredIdx int32
}

// Provenance records every clustered site, in transform order.
type Provenance struct {
	Sites []SiteRecord
}

// Record returns the provenance entry for a site, or nil.
func (p *Provenance) Record(site int32) *SiteRecord {
	for i := range p.Sites {
		if p.Sites[i].Site == site {
			return &p.Sites[i]
		}
	}
	return nil
}

// Annotate sets every switch dispatch's static prediction to its hottest
// profiled outcome — the indirect analog of replicate.Annotate, and the
// baseline the clustering transform is scored against. Sites with no
// profiled dispatches stay unpredicted. Conditional branches (including
// clustering tests) are untouched.
func Annotate(prog *ir.Program, targets *trace.TargetCounts) {
	if targets == nil {
		return
	}
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			if b.Term.Op != ir.TermSwitch {
				continue
			}
			rank := targets.Rank(b.Term.Orig)
			if len(rank) == 0 {
				continue
			}
			b.Term.Pred = ir.PredTaken
			b.Term.PredIdx = rank[0].Outcome
		}
	}
}

// Cluster applies case clustering to every hot switch of prog, guided by
// the profiled per-site target distributions (indexed by Orig site ID). It
// mutates prog in place and returns the transform statistics and the
// provenance Verify consumes. The program must have numbered sites.
func Cluster(prog *ir.Program, targets *trace.TargetCounts, opts Options) (*Stats, *Provenance, error) {
	opts.setDefaults()
	st := &Stats{InstrsBefore: prog.NumInstrs()}
	prov := &Provenance{}
	if targets == nil {
		st.InstrsAfter = st.InstrsBefore
		return st, prov, nil
	}
	for fi, f := range prog.Funcs {
		// Snapshot the switch blocks first: clustering splices new blocks
		// into f.Blocks.
		var switches []*ir.Block
		for _, b := range f.Blocks {
			if b.Term.Op == ir.TermSwitch {
				switches = append(switches, b)
			}
		}
		changed := false
		for _, b := range switches {
			st.Switches++
			rec, ok := clusterSite(f, b, targets, opts, st)
			if !ok {
				continue
			}
			rec.FuncID = fi
			prov.Sites = append(prov.Sites, rec)
			st.Clustered++
			changed = true
		}
		if changed {
			f.Renumber()
		}
	}
	st.InstrsAfter = prog.NumInstrs()
	if st.Clustered > 0 {
		if err := prog.Validate(); err != nil {
			return nil, nil, fmt.Errorf("indirect: clustered program is invalid: %w", err)
		}
	}
	return st, prov, nil
}

// clusterSite rewrites one switch block when its profile warrants it.
func clusterSite(f *ir.Func, b *ir.Block, targets *trace.TargetCounts, opts Options, st *Stats) (SiteRecord, bool) {
	sw := b.Term // the original switch terminator, copied
	total := targets.Total(sw.Orig)
	if total < opts.MinCount {
		return SiteRecord{}, false
	}
	rank := targets.Rank(sw.Orig)
	// Pick the hottest equality-testable outcomes: case outcomes only (the
	// default arm has no single tag value to test). Rank is sorted by
	// descending count, so the first outcome below the share floor ends
	// the scan.
	var chosen []trace.RankedOutcome
	for _, r := range rank {
		if len(chosen) >= opts.MaxTests {
			break
		}
		if float64(r.Count) < opts.MinShare*float64(total) {
			break
		}
		if int(r.Outcome) >= len(sw.Targets) {
			continue // default outcome: not clusterable
		}
		chosen = append(chosen, r)
	}
	if len(chosen) == 0 {
		return SiteRecord{}, false
	}

	// When the original dispatch carried a target annotation (Annotate ran
	// before clustering), retarget the residual's prediction to the hottest
	// outcome the chain does not cover — the annotated target itself is now
	// caught by the chain and would always miss. An unannotated dispatch
	// stays unannotated: the transform never invents a prediction policy.
	residualPred := int32(-1)
	if sw.Pred != ir.PredNone {
		for _, r := range rank {
			covered := false
			for _, c := range chosen {
				if c.Outcome == r.Outcome {
					covered = true
					break
				}
			}
			if !covered {
				residualPred = r.Outcome
				break
			}
		}
	}

	// Two fresh registers shared by every test in the chain: the case
	// constant and the equality result. The switch condition register is
	// only read, never written, so the chain cannot clobber it.
	rc, rt := f.NewReg(), f.NewReg()

	// Build the chain: the original block keeps its body and gets the
	// first test; each later test and the residual switch live in new
	// blocks spliced in directly after it (walk order preserved, so site
	// renumbering is a no-op).
	newBlocks := make([]*ir.Block, 0, len(chosen))
	for i := 1; i < len(chosen); i++ {
		newBlocks = append(newBlocks, &ir.Block{Name: fmt.Sprintf("swtest%d", i)})
	}
	residual := &ir.Block{Name: "swresid"}
	newBlocks = append(newBlocks, residual)

	rec := SiteRecord{Site: sw.Site, Residual: residual, PredIdx: residualPred}
	remaining := total
	cur := b
	for i, c := range chosen {
		next := residual
		if i+1 < len(chosen) {
			next = newBlocks[i]
		}
		// Predict the test from its conditional profile: it runs only
		// when every earlier test failed, so its taken count is c.Count
		// out of the dispatches still unresolved here.
		pred := ir.PredNotTaken
		if 2*c.Count > remaining {
			pred = ir.PredTaken
		}
		cur.Instrs = append(cur.Instrs,
			ir.Instr{Op: ir.OpConstI, Dst: rc, Imm: int64(c.Outcome)},
			ir.Instr{Op: ir.OpEqI, Dst: rt, A: sw.Cond, B: rc},
		)
		cur.Term = ir.Term{
			Op: ir.TermBr, Cond: rt,
			Then: sw.Targets[c.Outcome], Else: next,
			Site: sw.Site, Orig: sw.Orig,
			Pred:   pred,
			SwTest: true, SwOutcome: c.Outcome,
		}
		rec.Tests = append(rec.Tests, TestRecord{Outcome: c.Outcome, Block: cur, Pred: pred})
		remaining -= c.Count
		cur = next
		st.Tests++
	}
	residual.Term = sw
	if residualPred >= 0 {
		residual.Term.Pred = ir.PredTaken
		residual.Term.PredIdx = residualPred
	} else {
		residual.Term.Pred = ir.PredNone
		residual.Term.PredIdx = -1
	}

	// Splice the new blocks in after b.
	pos := -1
	for i, bb := range f.Blocks {
		if bb == b {
			pos = i
			break
		}
	}
	blocks := make([]*ir.Block, 0, len(f.Blocks)+len(newBlocks))
	blocks = append(blocks, f.Blocks[:pos+1]...)
	blocks = append(blocks, newBlocks...)
	blocks = append(blocks, f.Blocks[pos+1:]...)
	f.Blocks = blocks
	st.BlocksAdded += len(newBlocks)
	return rec, true
}
