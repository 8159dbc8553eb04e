package replicate

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/ir"
	"repro/internal/trace"
)

// ErrWalkFallback reports that Walk cannot reproduce the run it was asked
// for exactly, so the caller must measure the program live: the recording
// stopped below the branch budget, the walk reached MaxSteps or the
// call-depth bound (where the live run would stop at a point the
// recording never saw), or the program has no walkable entry or contains
// clustering tests.
var ErrWalkFallback = errors.New("replicate: walk cannot reproduce the run; measure it live")

// ErrWalkMismatch reports that the program left the recorded path: a
// branch met an event of another site or kind, or the trace ended early
// or ran on past main's return. For a replicated clone this refutes the
// transform, since a correct clone follows its original's path exactly.
var ErrWalkMismatch = errors.New("replicate: program diverged from the recorded trace")

// maxDepth is the interpreter's default call-depth bound, which
// every run a walk stands in for keeps.
const maxDepth = 100000

// WalkLimits are the limits of the live run a walk stands in for, and how
// the recording being walked ended.
type WalkLimits struct {
	// MaxBranches and MaxSteps are the live run's limits, with the
	// interpreter's meanings (0 = unlimited).
	MaxBranches uint64
	MaxSteps    uint64
	// Truncated reports that the recording stopped at a limit instead of
	// returning from main. Unless it stopped at MaxBranches, its trace
	// ends at a point the walked program need not reach, so Walk falls
	// back.
	Truncated bool
}

// WalkResult is what a live run of the walked program with a per-site
// branch hook and block counting would observe.
type WalkResult struct {
	Branches, Steps, Dispatches uint64
	Predicted, Mispredicted     uint64
	// Counts holds the conditional-branch outcomes per site of the walked
	// program; BlockCounts the executions per function and block ID.
	Counts      *trace.Counts
	BlockCounts [][]uint64
}

// Walk measures a replicated program by walking it along a trace recorded
// from its original, instead of interpreting it. Replication turns branch
// history into program state (PAPER.md §1): on the same input the clone
// executes the original's block path and only chooses between copies, and
// which copy it enters is decided by the branch outcomes the trace already
// holds. So every conditional branch or switch the walk reaches takes the
// next recorded event, whose site must equal the branch's Orig, and
// follows the edge for that outcome; calls and returns run on an explicit
// stack. A site or kind mismatch is ErrWalkMismatch, which makes a
// successful walk a trace-level translation validation of the clone.
//
// The walk stops where the live run would — at lim.MaxBranches, or when
// main returns — and polls ctx as the interpreter does. It returns
// ErrWalkFallback whenever it cannot reproduce the stop exactly. prog must
// be valid with its sites numbered, as Apply leaves it; it is not
// modified.
func Walk(ctx context.Context, prog *ir.Program, slab *trace.Slab, lim WalkLimits) (*WalkResult, error) {
	w, err := compileWalk(prog)
	if err != nil {
		return nil, err
	}
	return w.walk(ctx, slab, lim)
}

// walkBlock is one block of the dense table a walk steps through: block
// indices replace pointers, and a block's calls are the entry blocks of
// its callees in execution order.
type walkBlock struct {
	op ir.TermOp
	// steps is the block's instruction count plus its terminator.
	steps uint64
	orig  int32
	site  int32
	// succ[1] is a Br's Then (taken) successor and a Jmp's target;
	// succ[0] a Br's Else and a switch's default. A switch's case
	// targets are succs[tgt:tgt+ntgt].
	succ      [2]int32
	tgt, ntgt int32
	// Calls of the block are calls[callLo:callHi].
	callLo, callHi int32
}

// walker is a program compiled for walking.
type walker struct {
	tab   []walkBlock
	succs []int32
	calls []int32
	entry int32
	// preds and predIdx are each site's static prediction, predIdx the
	// predicted outcome of a switch.
	preds   []ir.Prediction
	predIdx []int32
	// base[f] is the table index of function f's block 0; the table is
	// laid out function by function in block-ID order.
	base   []int32
	blocks []*ir.Block // for diagnostics
	fnOf   []*ir.Func
}

// compileWalk builds the dense table for prog.
func compileWalk(prog *ir.Program) (*walker, error) {
	main := prog.Func("main")
	if main == nil || main.NParams != 0 {
		return nil, fmt.Errorf("%w: no parameterless main", ErrWalkFallback)
	}
	w := &walker{base: make([]int32, len(prog.Funcs))}
	n, nsites := 0, 0
	for fi, f := range prog.Funcs {
		if f.ID != fi {
			return nil, fmt.Errorf("replicate: walk: function %s has ID %d at index %d", f.Name, f.ID, fi)
		}
		w.base[fi] = int32(n)
		n += len(f.Blocks)
		for _, b := range f.Blocks {
			if b.Term.Op == ir.TermBr || b.Term.Op == ir.TermSwitch {
				nsites++
			}
		}
	}
	w.tab = make([]walkBlock, n)
	w.blocks = make([]*ir.Block, n)
	w.fnOf = make([]*ir.Func, n)
	w.preds = make([]ir.Prediction, nsites)
	w.predIdx = make([]int32, nsites)
	idx := func(f *ir.Func, b *ir.Block) int32 { return w.base[f.ID] + int32(b.ID) }
	for _, f := range prog.Funcs {
		for bi, b := range f.Blocks {
			if b.ID != bi {
				return nil, fmt.Errorf("replicate: walk: block %s of %s has ID %d at index %d", b, f.Name, b.ID, bi)
			}
			t := &b.Term
			if t.SwTest {
				// A clustering test's not-taken edge emits no event, so
				// the trace alone cannot place it.
				return nil, fmt.Errorf("%w: clustering test in %s", ErrWalkFallback, f.Name)
			}
			wb := walkBlock{
				op: t.Op, steps: uint64(len(b.Instrs)) + 1,
				orig: t.Orig, site: t.Site,
				succ:   [2]int32{-1, -1},
				callLo: int32(len(w.calls)),
			}
			for k := range b.Instrs {
				if in := &b.Instrs[k]; in.Op == ir.OpCall {
					callee := prog.Funcs[in.Imm]
					w.calls = append(w.calls, idx(callee, callee.Entry))
				}
			}
			wb.callHi = int32(len(w.calls))
			switch t.Op {
			case ir.TermJmp:
				wb.succ[1] = idx(f, t.Then)
			case ir.TermBr, ir.TermSwitch:
				if t.Site < 0 || int(t.Site) >= nsites {
					return nil, fmt.Errorf("replicate: walk: site %d of %s is outside the dense numbering [0,%d)",
						t.Site, b, nsites)
				}
				w.preds[t.Site], w.predIdx[t.Site] = t.Pred, t.PredIdx
				if t.Op == ir.TermBr {
					wb.succ = [2]int32{idx(f, t.Else), idx(f, t.Then)}
					break
				}
				wb.succ[0] = idx(f, t.Else)
				wb.tgt, wb.ntgt = int32(len(w.succs)), int32(len(t.Targets))
				for _, tb := range t.Targets {
					w.succs = append(w.succs, idx(f, tb))
				}
			}
			i := idx(f, b)
			w.tab[i] = wb
			w.blocks[i], w.fnOf[i] = b, f
		}
	}
	w.entry = idx(main, main.Entry)
	return w, nil
}

// walkFrame is a suspended caller: its block and the next call to make.
type walkFrame struct{ b, call int32 }

// ctxCheckEvery matches the interpreter's default cancellation polling
// interval in executed blocks.
const ctxCheckEvery = 4096

// walk runs the compiled program along the slab's events. The hot loop
// keeps to what the stop and the path need — steps, branches, block and
// per-outcome counts — and indexes a Br's successor by its outcome; the
// Br prediction scores are folded from the outcome counts at the end.
func (w *walker) walk(ctx context.Context, slab *trace.Slab, lim WalkLimits) (*WalkResult, error) {
	if lim.Truncated && (lim.MaxBranches == 0 || slab.Len() < lim.MaxBranches) {
		return nil, fmt.Errorf("%w: the recording stopped below the branch budget", ErrWalkFallback)
	}
	maxSteps, maxBranches := lim.MaxSteps, lim.MaxBranches
	if maxSteps == 0 {
		maxSteps = math.MaxUint64
	}
	if maxBranches == 0 {
		maxBranches = math.MaxUint64
	}
	tab := w.tab
	bc := make([]uint64, len(tab))
	// outcomes[2*site+taken] counts a Br site's outcomes.
	outcomes := make([]uint64, 2*len(w.preds))
	cur := slab.Cursor()
	var steps, branches, dispatches, swPredicted, swMispredicted uint64
	var stack []walkFrame
	var poll uint32
	b := w.entry
	for {
		blk := &tab[b]
		if ctx != nil {
			if poll == 0 {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("replicate: walk cancelled: %w", err)
				}
				poll = ctxCheckEvery
			}
			poll--
		}
		bc[b]++
		call := blk.callLo
	resume:
		if call < blk.callHi {
			if len(stack)+1 > maxDepth {
				return nil, fmt.Errorf("%w: call depth limit", ErrWalkFallback)
			}
			stack = append(stack, walkFrame{b, call + 1})
			b = w.calls[call]
			continue
		}
		if steps += blk.steps; steps >= maxSteps {
			return nil, fmt.Errorf("%w: step limit", ErrWalkFallback)
		}
		switch blk.op {
		case ir.TermJmp:
			b = blk.succ[1]
			continue
		case ir.TermBr:
			ev, ok := cur.Next()
			if !ok || ev.Switch || ev.Site != blk.orig {
				return nil, w.mismatch(b, branches, ev, ok)
			}
			var t int32
			if ev.Taken {
				t = 1
			}
			outcomes[2*blk.site+t]++
			b = blk.succ[t]
		case ir.TermSwitch:
			ev, ok := cur.Next()
			if !ok || !ev.Switch || ev.Site != blk.orig || ev.Outcome < 0 || ev.Outcome > blk.ntgt {
				return nil, w.mismatch(b, branches, ev, ok)
			}
			dispatches++
			if w.preds[blk.site] != ir.PredNone {
				swPredicted++
				if w.predIdx[blk.site] != ev.Outcome {
					swMispredicted++
				}
			}
			if ev.Outcome < blk.ntgt {
				b = w.succs[blk.tgt+ev.Outcome]
			} else {
				b = blk.succ[0]
			}
		case ir.TermRet:
			if len(stack) == 0 {
				if ev, ok := cur.Next(); ok {
					return nil, fmt.Errorf("%w: main returned with event %+v still recorded", ErrWalkMismatch, ev)
				}
				return w.result(steps, branches, dispatches, swPredicted, swMispredicted, outcomes, bc), nil
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			b, call = top.b, top.call
			blk = &tab[b]
			goto resume
		default:
			return nil, fmt.Errorf("replicate: walk: block %s has no terminator", w.blocks[b])
		}
		if branches++; branches >= maxBranches {
			return w.result(steps, branches, dispatches, swPredicted, swMispredicted, outcomes, bc), nil
		}
	}
}

// mismatch describes where the walk left the recorded path.
func (w *walker) mismatch(b int32, branches uint64, ev trace.Event, ok bool) error {
	blk := &w.tab[b]
	at := fmt.Sprintf("%s in %s (orig %d) at branch %d", w.blocks[b], w.fnOf[b].Name, blk.orig, branches)
	if !ok {
		return fmt.Errorf("%w: trace ended at %s", ErrWalkMismatch, at)
	}
	return fmt.Errorf("%w: %s met event %+v", ErrWalkMismatch, at, ev)
}

// result packages the counters: it splits the per-outcome counts into
// taken and not-taken, scores each Br site's prediction over them (a
// switch site has no outcome counts, so adds nothing here), and splits
// the flat block counts per function.
func (w *walker) result(steps, branches, dispatches, swPredicted, swMispredicted uint64, outcomes, bc []uint64) *WalkResult {
	r := &WalkResult{
		Steps: steps, Branches: branches, Dispatches: dispatches,
		Predicted: swPredicted, Mispredicted: swMispredicted,
		Counts: trace.NewCounts(len(w.preds)),
	}
	for site, p := range w.preds {
		nt, tk := outcomes[2*site], outcomes[2*site+1]
		r.Counts.Taken[site], r.Counts.NotTaken[site] = tk, nt
		switch p {
		case ir.PredTaken:
			r.Predicted += tk + nt
			r.Mispredicted += nt
		case ir.PredNotTaken:
			r.Predicted += tk + nt
			r.Mispredicted += tk
		}
	}
	r.BlockCounts = make([][]uint64, len(w.base))
	for fi, lo := range w.base {
		hi := int32(len(bc))
		if fi+1 < len(w.base) {
			hi = w.base[fi+1]
		}
		r.BlockCounts[fi] = bc[lo:hi:hi]
	}
	return r
}
