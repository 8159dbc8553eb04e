// Package core is the paper's method as one pipeline (PAPER.md §1):
// record a program on one dataset cell, fold the recording into a
// profile, build branch prediction state machines from the pattern
// tables and choose the best strategy per branch, replicate code so the
// machines become program structure, and measure the transformed program.
//
// Every caller builds on these stages, the indirect family's (Cluster)
// included: the facade (Run), cmd/replicate, krallcheck, kralld's
// /v1/replicate and the krallbench suite. It is also the one place that
// sets up an interpreter machine for a dataset cell (Cell.Machine), so
// every run, recorded or live, follows the same budget, backstop and
// dataset rules.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/exec"
	"repro/internal/indirect"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/replicate"
	"repro/internal/statemachine"
	"repro/internal/trace"
)

// Cell is one dataset cell: the branch budget of a run and the workload's
// dataset knobs.
type Cell struct {
	// Budget stops a run after this many branch events (0 = run the
	// program to completion). Reaching it is normal completion.
	Budget uint64
	// Seed and Scale override the program's wseed and wscale globals
	// (0 = the program's default).
	Seed  int64
	Scale int64
}

// FullScale is the wscale of a budgeted run that should end at its
// budget, not when the program's default-size input runs out.
const FullScale = 1 << 30

// ErrDataset reports a Seed or Scale override the program cannot take.
var ErrDataset = errors.New("dataset override")

// Fill returns c with the overrides it leaves at the program's default
// taken from seed and scale, each only where prog declares the global:
// a program without wseed or wscale runs on its own dataset. Machine
// refuses an override the program has no global for; Fill is for the
// overrides a caller applies only to programs that have the knob.
func (c Cell) Fill(prog *ir.Program, seed, scale int64) Cell {
	if c.Seed == 0 && prog.Global("wseed") != nil {
		c.Seed = seed
	}
	if c.Scale == 0 && prog.Global("wscale") != nil {
		c.Scale = scale
	}
	return c
}

// maxSteps is the instruction backstop of a budgeted run: it bounds even
// branch-free loops.
func (c Cell) maxSteps() uint64 { return 512 * c.Budget }

// Machine prepares a run of prog on the cell: the branch budget and its
// step backstop, the seed and scale overrides, and ctx, which the run loop
// polls, so a cancelled context stops the machine.
func (c Cell) Machine(ctx context.Context, prog *ir.Program) (*exec.Machine, error) {
	ep, _ := exec.Interp.Compile(prog) // the interpreter's compile never fails
	m := ep.NewMachine()
	m.SetContext(ctx, 0)
	m.SetMaxBranches(c.Budget)
	m.SetMaxSteps(c.maxSteps())
	for _, g := range []struct {
		name string
		v    int64
	}{{"wseed", c.Seed}, {"wscale", c.Scale}} {
		if g.v == 0 {
			continue
		}
		if err := m.SetGlobal(g.name, g.v); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrDataset, err)
		}
	}
	return m, nil
}

// run executes m and returns main's value. A limit ends the run normally;
// truncated reports it.
func run(m *exec.Machine) (ret int64, truncated bool, err error) {
	ret, err = m.Run()
	if err != nil {
		if errors.Is(err, interp.ErrLimit) {
			return 0, true, nil
		}
		return 0, false, err
	}
	return ret, false, nil
}

// Recording is the record-once product of running a program on one cell:
// its complete branch-event stream as a sealed slab, safe for concurrent
// replay, and what the run observed. Immutable once returned.
type Recording struct {
	// Slab is nil when the run was folded into its profile as it ran
	// (Run), which walks no clone.
	Slab *trace.Slab
	// Counters are the run's; a recording decoded from a stored payload
	// keeps only Branches, Steps and Checksum of them.
	exec.Counters
	// Ret is main's return value (0 when the run stopped at a limit).
	Ret int64
	// Truncated reports that the run stopped at a limit instead of
	// returning from main.
	Truncated bool
	// BlockCounts are the per-function, per-block execution counts (nil
	// when the recording was decoded from a stored payload).
	BlockCounts [][]uint64
}

// Record runs prog on the cell with its branch events going straight into
// a slab, one append per branch.
func Record(ctx context.Context, prog *ir.Program, cell Cell) (*Recording, error) {
	m, err := cell.Machine(ctx, prog)
	if err != nil {
		return nil, err
	}
	m.EnableBlockCounts()
	slab := trace.NewSlab(int(cell.Budget))
	m.SetRec(slab)
	ret, truncated, err := run(m)
	if err != nil {
		return nil, err
	}
	slab.Seal()
	return &Recording{Slab: slab, Counters: m.Counters(), Ret: ret, Truncated: truncated, BlockCounts: m.BlockCounts()}, nil
}

// Measurement is what a run of a program on a recording's dataset
// observed: its static prediction score, its executed switch dispatches,
// its output (checksum, print count and main's return value) and, when
// measured against a recording or by Count, its per-site branch outcomes
// and per-block executions.
type Measurement struct {
	Predicted, Mispredicted uint64
	Dispatches              uint64
	Checksum, Prints        uint64
	Ret                     int64
	Counts                  *trace.Counts
	BlockCounts             [][]uint64
	// Walked reports that the program was walked along the recording
	// instead of run.
	Walked bool
}

// Rate is the misprediction percentage.
func (m Measurement) Rate() float64 {
	if m.Predicted == 0 {
		return 0
	}
	return 100 * float64(m.Mispredicted) / float64(m.Predicted)
}

// Effective is the indirect family's cost model: a semi-static front end
// carries its predictions in the instructions, so it cannot predict an
// indirect transfer, and every executed dispatch costs one
// misprediction-equivalent fetch redirect on top of the conditional
// mispredictions. It returns the effective misses and prediction events.
func (m Measurement) Effective() (misses, events uint64) {
	return m.Mispredicted + m.Dispatches, m.Predicted + m.Dispatches
}

// MissReduction is the percentage of base's effective misses that m
// avoids (0 when base has none).
func (m Measurement) MissReduction(base Measurement) float64 {
	bm, _ := base.Effective()
	cm, _ := m.Effective()
	if bm == 0 {
		return 0
	}
	return 100 * (float64(bm) - float64(cm)) / float64(bm)
}

// Measure measures prog, the recorded program or a transformed clone of
// it, on cell's dataset. Given walk, a recording of that cell, it walks
// prog along it (replicate.Walk) instead of interpreting it: a clone
// follows its original's block path, so the walk observes what a live run
// would, and reports the recording's checksum. Pass walk only when the
// caller takes no checksum from the result or the equivalence verifier
// proved prog; a walk that leaves the recorded path then fails with
// replicate.ErrWalkMismatch. Without walk, and where the walk cannot
// reproduce the run's stop (replicate.ErrWalkFallback), prog runs live.
// A measurement against a recording carries the branch and block counts
// the walk observes, also when it ran live instead; a run without one
// counts nothing but its score and checksum.
func Measure(ctx context.Context, prog *ir.Program, cell Cell, walk *Recording) (Measurement, error) {
	if walk != nil {
		res, err := replicate.Walk(ctx, prog, walk.Slab, replicate.WalkLimits{
			MaxBranches: cell.Budget, MaxSteps: cell.maxSteps(), Truncated: walk.Truncated,
		})
		if err == nil {
			return Measurement{
				Predicted: res.Predicted, Mispredicted: res.Mispredicted, Dispatches: res.Dispatches,
				Checksum: walk.Checksum, Prints: walk.Prints, Ret: walk.Ret,
				Counts: res.Counts, BlockCounts: res.BlockCounts, Walked: true,
			}, nil
		}
		if !errors.Is(err, replicate.ErrWalkFallback) {
			return Measurement{}, err
		}
	}
	return live(ctx, prog, cell, walk != nil)
}

// Count runs prog live on the cell and reports the branch and block counts
// a walk would: the live oracle of Measure's walk.
func Count(ctx context.Context, prog *ir.Program, cell Cell) (Measurement, error) {
	return live(ctx, prog, cell, true)
}

// live runs prog on the cell, with the counting hooks only when counted.
func live(ctx context.Context, prog *ir.Program, cell Cell, counted bool) (Measurement, error) {
	m, err := cell.Machine(ctx, prog)
	if err != nil {
		return Measurement{}, err
	}
	var counts *trace.Counts
	if counted {
		counts = trace.NewCounts(prog.NumberBranches(false))
		m.SetHook(interp.BranchHook(counts))
		m.EnableBlockCounts()
	}
	ret, _, err := run(m)
	if err != nil {
		return Measurement{}, err
	}
	mc := m.Counters()
	return Measurement{
		Predicted: mc.Predicted, Mispredicted: mc.Mispredicted, Dispatches: mc.Dispatches,
		Checksum: mc.Checksum, Prints: mc.Prints, Ret: ret,
		Counts: counts, BlockCounts: m.BlockCounts(),
	}, nil
}

// Profiled is a program with a recording of it on one cell and the
// profile folded from that recording: what machine selection, the
// baseline and the measurement of every clone read.
type Profiled struct {
	Prog  *ir.Program
	Feats []predict.SiteFeatures
	Cell  Cell
	Rec   *Recording
	Prof  *profile.Profile
}

// Profile numbers prog's branch sites, records it on the cell and folds
// the recording into the tables machine selection reads: the paper's
// 9-bit local and 3-branch path tables, and no global table. The
// recording is kept for the walk of a verified clone; it grows with the
// run, by a few hundred kilobytes to a few megabytes per two million
// branch events.
func Profile(ctx context.Context, prog *ir.Program, cell Cell) (*Profiled, error) {
	nSites := prog.NumberBranches(true)
	rec, err := Record(ctx, prog, cell)
	if err != nil {
		return nil, err
	}
	prof := profile.New(nSites, profile.Options{})
	rec.Slab.ReplayInto(prof)
	return &Profiled{Prog: prog, Feats: predict.Analyze(prog), Cell: cell, Rec: rec, Prof: prof}, nil
}

// ProfileLive is Profile without a recording: the run folds each branch
// and switch event into the profile as it executes, so its memory grows
// with the program's branch sites, not with the run's length. Its Rec
// holds the run's counters and no slab, so no clone can walk along it.
func ProfileLive(ctx context.Context, prog *ir.Program, cell Cell) (*Profiled, error) {
	prof := profile.New(prog.NumberBranches(true), profile.Options{})
	m, err := cell.Machine(ctx, prog)
	if err != nil {
		return nil, err
	}
	m.SetHook(interp.BranchHook(prof))
	m.SetSwHook(interp.SwitchHook(prof))
	ret, truncated, err := run(m)
	if err != nil {
		return nil, err
	}
	return &Profiled{Prog: prog, Feats: predict.Analyze(prog), Cell: cell,
		Rec: &Recording{Counters: m.Counters(), Ret: ret, Truncated: truncated}, Prof: prof}, nil
}

// Select chooses every site's strategy from the profile.
func (p *Profiled) Select(opts statemachine.Options) []statemachine.Choice {
	return statemachine.Select(p.Prof, p.Feats, opts)
}

// Preds is the profile's majority direction per site, the static
// annotation of the baseline and of every replicated clone.
func (p *Profiled) Preds() []ir.Prediction { return predict.ProfileStatic(p.Prof.Counts).Preds }

// Baseline is the measured run of the recorded program annotated with
// preds. replicate.Annotate changes only Term.Pred, so the annotated run
// is the recording: preds scored over the recorded outcomes, with the
// recording's dispatches and output. StaticScore is order-insensitive, so
// folding the profile's per-site totals scores it exactly as a replay
// would.
func (p *Profiled) Baseline(preds []ir.Prediction) Measurement {
	score := &predict.StaticScore{Preds: preds}
	for site := range p.Prof.Counts.Taken {
		score.RecordRun(int32(site), true, p.Prof.Counts.Taken[site])
		score.RecordRun(int32(site), false, p.Prof.Counts.NotTaken[site])
	}
	return Measurement{
		Predicted: score.Predicted, Mispredicted: score.Mispredicted, Dispatches: p.Rec.Dispatches,
		Checksum: p.Rec.Checksum, Prints: p.Rec.Prints, Ret: p.Rec.Ret,
	}
}

// Apply is a replication driver: replicate.ApplyOpts, or
// replicate.ApplyJoint for the §6 joint machines.
type Apply func(*ir.Program, []statemachine.Choice, []ir.Prediction, replicate.Options) (*replicate.Stats, error)

// Transform applies choices to a clone of the program with apply and
// returns the clone and the driver's stats, also on error (the stats then
// carry the verifier's diagnostics).
func (p *Profiled) Transform(apply Apply, choices []statemachine.Choice, preds []ir.Prediction, opts replicate.Options) (*ir.Program, *replicate.Stats, error) {
	clone := ir.CloneProgram(p.Prog)
	st, err := apply(clone, choices, preds, opts)
	return clone, st, err
}

// Clustering is the indirect family's transform of a profiled program:
// case clustering of its hot switch dispatches (package indirect).
type Clustering struct {
	// Baseline is the program annotated with the profile's majority
	// directions (Preds); Clustered is a clone of it with every hot
	// dispatch clustered against the profiled switch targets.
	Baseline, Clustered *ir.Program
	Stats               *indirect.Stats
	// Diags are the structural verifier's findings (indirect.Verify), one
	// Error each: none when it accepted the transform or did not run.
	Diags []analysis.Diagnostic
}

// Cluster is the indirect family's stage after profiling: it annotates a
// clone of the program with Preds, clusters a clone of that baseline and,
// given verify, re-derives the transform structurally. The baseline's
// measurement on the profiled cell is Baseline(Preds()); the clustered
// program adds chain tests, so it runs live (Measure).
func (p *Profiled) Cluster(verify bool) (*Clustering, error) {
	base := ir.CloneProgram(p.Prog)
	replicate.Annotate(base, p.Preds())
	clus := ir.CloneProgram(base)
	st, prov, err := indirect.Cluster(clus, p.Prof.Targets, indirect.Options{})
	if err != nil {
		return nil, err
	}
	c := &Clustering{Baseline: base, Clustered: clus, Stats: st}
	if verify {
		for _, err := range indirect.Verify(base, clus, prov) {
			c.Diags = append(c.Diags, analysis.Diagnostic{Pass: "indirect-equivalence", Sev: analysis.Error,
				Pos: analysis.Pos{Block: -1, Instr: -1}, Msg: err.Error()})
		}
	}
	return c, nil
}

// Config parameterises a pipeline run.
type Config struct {
	// MaxStates bounds every state machine (default 5).
	MaxStates int
	// MaxPathLen caps correlated path lengths; 1 (the default) keeps every
	// selected machine realizable by the replicator.
	MaxPathLen int
	// MaxSizeFactor bounds code growth (default 3; 0 = unlimited).
	MaxSizeFactor float64
	// Budget, Seed and Scale are the dataset cell every run uses.
	Budget uint64
	Seed   int64
	Scale  int64
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
	// Baseline and Replica are the measured runs of the profile-annotated
	// original and of the transformed program. Equal checksums show the
	// transform kept the program's semantics (equal budgets make them
	// comparable under truncation too).
	Baseline, Replica Measurement
}

// SizeFactor is the measured code growth.
func (r *Result) SizeFactor() float64 { return r.Stats.SizeFactor() }

// Replicate is the pipeline after profiling: it selects machines under
// sel, applies them to a clone with apply under opts, and measures the
// baseline and the clone. A clone the verifier proved (opts.Verify) is
// walked along the recording, where there is one; any other clone runs
// live, without counting hooks. A transform the verifier rejects fails
// with replicate.ErrVerify, a walked clone that leaves the recorded path
// with replicate.ErrWalkMismatch.
func (p *Profiled) Replicate(ctx context.Context, sel statemachine.Options, apply Apply, opts replicate.Options) (*Result, error) {
	choices := p.Select(sel)
	preds := p.Preds()
	clone, st, err := p.Transform(apply, choices, preds, opts)
	if err != nil {
		return nil, err
	}
	var walk *Recording
	if st.Verified && p.Rec.Slab != nil {
		walk = p.Rec
	}
	repl, err := Measure(ctx, clone, p.Cell, walk)
	if err != nil {
		return nil, fmt.Errorf("core: measuring the replicated program: %w", err)
	}
	return &Result{
		Original: p.Prog, Replicated: clone, Profile: p.Prof, Choices: choices, Stats: st,
		Baseline: p.Baseline(preds), Replica: repl,
	}, nil
}

// CompileBL compiles BL source text.
func CompileBL(src string) (*ir.Program, error) { return lang.Compile(src) }

// Run executes the full pipeline on a compiled program. It does not verify
// the transform, so it walks no clone: its profiling run folds each branch
// event into the profile as it executes and keeps no recording, so its
// memory grows with the program's branch sites, not with the run's length.
func Run(prog *ir.Program, cfg Config) (*Result, error) {
	ctx := context.Background()
	p, err := ProfileLive(ctx, prog, Cell{Budget: cfg.Budget, Seed: cfg.Seed, Scale: cfg.Scale})
	if err != nil {
		return nil, fmt.Errorf("core: profiling run: %w", err)
	}
	cfg.setDefaults()
	return p.Replicate(ctx, statemachine.Options{MaxStates: cfg.MaxStates, MaxPathLen: cfg.MaxPathLen},
		replicate.ApplyOpts, replicate.Options{MaxSizeFactor: cfg.MaxSizeFactor})
}

// RunBL compiles and runs the pipeline on BL source.
func RunBL(src string, cfg Config) (*Result, error) {
	prog, err := lang.Compile(src)
	if err != nil {
		return nil, err
	}
	return Run(prog, cfg)
}
