// Package interp executes IR programs deterministically. It is the
// substitute for the paper's instrumented MIPS binaries: a branch hook
// exposes every conditional branch outcome to the profiling and prediction
// machinery, and static prediction annotations left by the replicator are
// scored during execution.
package interp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/ir"
	"repro/internal/trace"
)

// ErrLimit is returned when an execution limit (steps, branches, or call
// depth) is reached. Harnesses that trace with a branch budget treat it as
// normal completion.
var ErrLimit = errors.New("interp: execution limit reached")

// ErrNoMain and ErrMainParams reject degenerate entry points. They are
// sentinels (wrapped with an "interp:" prefix) so callers can match the
// condition by identity.
var (
	ErrNoMain     = errors.New("program has no main function")
	ErrMainParams = errors.New("main must take no parameters")
)

// RuntimeError describes a trap during execution (division by zero,
// out-of-bounds array access).
type RuntimeError struct {
	Func  string
	Block string
	Msg   string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("interp: %s in %s at %s", e.Msg, e.Func, e.Block)
}

// BranchFunc observes one executed conditional branch. The *ir.Term carries
// the site/orig identity and the static prediction annotation.
type BranchFunc func(t *ir.Term, taken bool)

// SwitchFunc observes one executed switch dispatch with its outcome index
// (len(t.Targets) is the default). Clustering test branches report through
// it too — on their taken edge only — so observers see exactly the event
// stream the trace records.
type SwitchFunc func(t *ir.Term, outcome int32)

// BranchHook adapts a collector into a live branch hook keyed on t.Site,
// the key Rec writes into the slab, so a live run and a replay of its
// trace feed the collector identical events.
func BranchHook(c trace.Collector) BranchFunc {
	return func(t *ir.Term, taken bool) { c.RecordBranch(t.Site, taken) }
}

// SwitchHook is BranchHook for switch dispatch events.
func SwitchHook(c trace.SwitchCollector) SwitchFunc {
	return func(t *ir.Term, outcome int32) { c.RecordSwitch(t.Site, outcome) }
}

// Machine executes one program. A Machine is not safe for concurrent use.
type Machine struct {
	// Hook, when non-nil, is invoked for every executed conditional branch.
	Hook BranchFunc
	// SwHook, when non-nil, is invoked for every executed switch dispatch
	// (and for every taken clustering test standing in for one).
	SwHook SwitchFunc
	// Rec, when non-nil, records every executed conditional branch into the
	// event slab — the record-once path of the trace-replay engine. Unlike
	// Hook it is a direct call on the concrete slab, so recording costs an
	// append rather than an interface dispatch per branch. Rec and Hook may
	// be set together; Rec observes the event first.
	Rec *trace.Slab
	// MaxSteps bounds executed instructions (0 = unlimited).
	MaxSteps uint64
	// MaxBranches bounds executed conditional branches (0 = unlimited).
	MaxBranches uint64
	// MaxDepth bounds the call stack; the default is 100000 frames.
	MaxDepth int
	// Ctx, when non-nil, is polled for cancellation during execution, so a
	// server whose client disconnected (or whose request deadline expired)
	// can stop a long run without pinning a worker. Polling happens every
	// CtxCheckEvery executed blocks; Run/Call return the context's error
	// (wrapped, so errors.Is(err, context.Canceled) holds).
	Ctx context.Context
	// CtxCheckEvery is the cancellation polling interval in executed basic
	// blocks (0 = the default of 4096). Smaller values cancel faster at a
	// slightly higher per-block cost.
	CtxCheckEvery uint32

	// Steps is the number of instructions executed (terminators included).
	Steps uint64
	// Branches is the number of conditional branches executed.
	Branches uint64
	// Dispatches is the number of executed switch dispatches: TermSwitch
	// transfers only, since a clustering test is a conditional branch.
	Dispatches uint64
	// Predicted and Mispredicted score branches that carry a static
	// prediction annotation (ir.PredNone branches are not counted).
	Predicted    uint64
	Mispredicted uint64
	// Checksum accumulates every OpPrint value; workloads print a digest
	// so their computations stay observable.
	Checksum uint64
	// Prints counts OpPrint executions.
	Prints uint64

	prog    *ir.Program
	globals [][]int64
	pool    [][]int64
	// blockCounts[funcID][blockID] counts block executions when enabled.
	blockCounts [][]uint64
	// ctxLeft counts down executed blocks until the next Ctx poll.
	ctxLeft uint32
}

// defaultCtxCheckEvery is the cancellation polling interval when
// CtxCheckEvery is 0: cheap enough to be invisible (one counter decrement
// per block), frequent enough that cancellation lands within microseconds.
const defaultCtxCheckEvery = 4096

// EnableBlockCounts turns on per-block execution counting (used by the
// code-layout analyses). Call before Run; counting adds one increment per
// executed block.
func (m *Machine) EnableBlockCounts() {
	m.blockCounts = make([][]uint64, len(m.prog.Funcs))
	for i, f := range m.prog.Funcs {
		m.blockCounts[i] = make([]uint64, len(f.Blocks))
	}
}

// BlockCounts returns the per-function, per-block execution counts, or nil
// when counting was not enabled.
func (m *Machine) BlockCounts() [][]uint64 { return m.blockCounts }

// New creates a machine for prog with globals initialised. The program must
// be valid (ir.Program.Validate).
func New(prog *ir.Program) *Machine {
	m := &Machine{prog: prog, MaxDepth: 100000}
	m.Reset()
	return m
}

// Reset re-initialises globals and clears all counters, so the same machine
// can run the program again from scratch.
func (m *Machine) Reset() {
	m.globals = make([][]int64, len(m.prog.Globals))
	for i, g := range m.prog.Globals {
		buf := make([]int64, g.Len)
		copy(buf, g.Init)
		m.globals[i] = buf
	}
	m.Steps, m.Branches, m.Dispatches, m.Predicted, m.Mispredicted = 0, 0, 0, 0, 0
	m.Checksum, m.Prints = 0, 0
	m.ctxLeft = 0
}

// SetGlobal overrides a scalar global before a run; the harness uses it to
// select workload sizes and random seeds.
func (m *Machine) SetGlobal(name string, v int64) error {
	g := m.prog.Global(name)
	if g == nil {
		return fmt.Errorf("interp: no global %q", name)
	}
	if g.Array {
		return fmt.Errorf("interp: global %q is an array", name)
	}
	m.globals[g.ID][0] = v
	return nil
}

// SetGlobalFloat overrides a float scalar global.
func (m *Machine) SetGlobalFloat(name string, v float64) error {
	return m.SetGlobal(name, int64(math.Float64bits(v)))
}

// GlobalValue reads a scalar global after a run.
func (m *Machine) GlobalValue(name string) (int64, error) {
	g := m.prog.Global(name)
	if g == nil {
		return 0, fmt.Errorf("interp: no global %q", name)
	}
	if g.Array {
		return 0, fmt.Errorf("interp: global %q is an array", name)
	}
	return m.globals[g.ID][0], nil
}

// Run executes func main with no arguments and returns its value.
func (m *Machine) Run() (int64, error) {
	f := m.prog.Func("main")
	if f == nil {
		return 0, fmt.Errorf("interp: %w", ErrNoMain)
	}
	if f.NParams != 0 {
		return 0, fmt.Errorf("interp: %w", ErrMainParams)
	}
	return m.Call(f)
}

// Call executes an arbitrary function with the given arguments.
func (m *Machine) Call(f *ir.Func, args ...int64) (int64, error) {
	if len(args) != f.NParams {
		return 0, fmt.Errorf("interp: %s expects %d args, got %d", f.Name, f.NParams, len(args))
	}
	frame := m.getFrame(f.NRegs)
	copy(frame, args)
	ret, err := m.exec(f, frame, 0)
	m.putFrame(frame)
	return ret, err
}

func (m *Machine) getFrame(n int) []int64 {
	if k := len(m.pool); k > 0 {
		f := m.pool[k-1]
		m.pool = m.pool[:k-1]
		if cap(f) >= n {
			f = f[:n]
			for i := range f {
				f[i] = 0
			}
			return f
		}
	}
	return make([]int64, n)
}

func (m *Machine) putFrame(f []int64) {
	if len(m.pool) < 256 {
		m.pool = append(m.pool, f)
	}
}

func trap(f *ir.Func, b *ir.Block, msg string) error {
	return &RuntimeError{Func: f.Name, Block: b.String(), Msg: msg}
}

func f64(bits int64) float64 { return math.Float64frombits(uint64(bits)) }
func fbits(v float64) int64  { return int64(math.Float64bits(v)) }
func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

func (m *Machine) exec(f *ir.Func, regs []int64, depth int) (int64, error) {
	if depth > m.MaxDepth {
		return 0, ErrLimit
	}
	funcs := m.prog.Funcs
	b := f.Entry
	for {
		if m.Ctx != nil {
			if m.ctxLeft == 0 {
				if err := m.Ctx.Err(); err != nil {
					return 0, fmt.Errorf("interp: run cancelled: %w", err)
				}
				if m.ctxLeft = m.CtxCheckEvery; m.ctxLeft == 0 {
					m.ctxLeft = defaultCtxCheckEvery
				}
			}
			m.ctxLeft--
		}
		if m.blockCounts != nil {
			m.blockCounts[f.ID][b.ID]++
		}
		instrs := b.Instrs
		for i := range instrs {
			in := &instrs[i]
			switch in.Op {
			case ir.OpNop:
			case ir.OpConstI, ir.OpConstF:
				regs[in.Dst] = in.Imm
			case ir.OpMov:
				regs[in.Dst] = regs[in.A]
			case ir.OpAddI:
				regs[in.Dst] = regs[in.A] + regs[in.B]
			case ir.OpSubI:
				regs[in.Dst] = regs[in.A] - regs[in.B]
			case ir.OpMulI:
				regs[in.Dst] = regs[in.A] * regs[in.B]
			case ir.OpDivI:
				d := regs[in.B]
				if d == 0 {
					return 0, trap(f, b, "integer division by zero")
				}
				if d == -1 && regs[in.A] == math.MinInt64 {
					// Two's-complement wrap, like the hardware the paper
					// targets (Go would panic).
					regs[in.Dst] = math.MinInt64
				} else {
					regs[in.Dst] = regs[in.A] / d
				}
			case ir.OpModI:
				d := regs[in.B]
				if d == 0 {
					return 0, trap(f, b, "integer modulo by zero")
				}
				if d == -1 {
					regs[in.Dst] = 0
				} else {
					regs[in.Dst] = regs[in.A] % d
				}
			case ir.OpAndI:
				regs[in.Dst] = regs[in.A] & regs[in.B]
			case ir.OpOrI:
				regs[in.Dst] = regs[in.A] | regs[in.B]
			case ir.OpXorI:
				regs[in.Dst] = regs[in.A] ^ regs[in.B]
			case ir.OpShlI:
				regs[in.Dst] = regs[in.A] << (uint64(regs[in.B]) & 63)
			case ir.OpShrI:
				regs[in.Dst] = regs[in.A] >> (uint64(regs[in.B]) & 63)
			case ir.OpNegI:
				regs[in.Dst] = -regs[in.A]
			case ir.OpNotI:
				regs[in.Dst] = b2i(regs[in.A] == 0)
			case ir.OpAddF:
				regs[in.Dst] = fbits(f64(regs[in.A]) + f64(regs[in.B]))
			case ir.OpSubF:
				regs[in.Dst] = fbits(f64(regs[in.A]) - f64(regs[in.B]))
			case ir.OpMulF:
				regs[in.Dst] = fbits(f64(regs[in.A]) * f64(regs[in.B]))
			case ir.OpDivF:
				regs[in.Dst] = fbits(f64(regs[in.A]) / f64(regs[in.B]))
			case ir.OpNegF:
				regs[in.Dst] = fbits(-f64(regs[in.A]))
			case ir.OpEqI:
				regs[in.Dst] = b2i(regs[in.A] == regs[in.B])
			case ir.OpNeI:
				regs[in.Dst] = b2i(regs[in.A] != regs[in.B])
			case ir.OpLtI:
				regs[in.Dst] = b2i(regs[in.A] < regs[in.B])
			case ir.OpLeI:
				regs[in.Dst] = b2i(regs[in.A] <= regs[in.B])
			case ir.OpGtI:
				regs[in.Dst] = b2i(regs[in.A] > regs[in.B])
			case ir.OpGeI:
				regs[in.Dst] = b2i(regs[in.A] >= regs[in.B])
			case ir.OpEqF:
				regs[in.Dst] = b2i(f64(regs[in.A]) == f64(regs[in.B]))
			case ir.OpNeF:
				regs[in.Dst] = b2i(f64(regs[in.A]) != f64(regs[in.B]))
			case ir.OpLtF:
				regs[in.Dst] = b2i(f64(regs[in.A]) < f64(regs[in.B]))
			case ir.OpLeF:
				regs[in.Dst] = b2i(f64(regs[in.A]) <= f64(regs[in.B]))
			case ir.OpGtF:
				regs[in.Dst] = b2i(f64(regs[in.A]) > f64(regs[in.B]))
			case ir.OpGeF:
				regs[in.Dst] = b2i(f64(regs[in.A]) >= f64(regs[in.B]))
			case ir.OpItoF:
				regs[in.Dst] = fbits(float64(regs[in.A]))
			case ir.OpFtoI:
				v := f64(regs[in.A])
				if math.IsNaN(v) || v > math.MaxInt64 || v < math.MinInt64 {
					return 0, trap(f, b, "float to int conversion out of range")
				}
				regs[in.Dst] = int64(v)
			case ir.OpSqrtF:
				regs[in.Dst] = fbits(math.Sqrt(f64(regs[in.A])))
			case ir.OpAbsI:
				v := regs[in.A]
				if v < 0 {
					v = -v
				}
				regs[in.Dst] = v
			case ir.OpAbsF:
				regs[in.Dst] = fbits(math.Abs(f64(regs[in.A])))
			case ir.OpMinI:
				regs[in.Dst] = min64(regs[in.A], regs[in.B])
			case ir.OpMaxI:
				regs[in.Dst] = max64(regs[in.A], regs[in.B])
			case ir.OpMinF:
				regs[in.Dst] = fbits(math.Min(f64(regs[in.A]), f64(regs[in.B])))
			case ir.OpMaxF:
				regs[in.Dst] = fbits(math.Max(f64(regs[in.A]), f64(regs[in.B])))
			case ir.OpLoadG:
				regs[in.Dst] = m.globals[in.Imm][0]
			case ir.OpStoreG:
				m.globals[in.Imm][0] = regs[in.A]
			case ir.OpLoadElem:
				arr := m.globals[in.Imm]
				idx := regs[in.A]
				if idx < 0 || idx >= int64(len(arr)) {
					return 0, trap(f, b, fmt.Sprintf("index %d out of range [0,%d) in %s",
						idx, len(arr), m.prog.Globals[in.Imm].Name))
				}
				regs[in.Dst] = arr[idx]
			case ir.OpStoreElem:
				arr := m.globals[in.Imm]
				idx := regs[in.A]
				if idx < 0 || idx >= int64(len(arr)) {
					return 0, trap(f, b, fmt.Sprintf("index %d out of range [0,%d) in %s",
						idx, len(arr), m.prog.Globals[in.Imm].Name))
				}
				arr[idx] = regs[in.B]
			case ir.OpCall:
				callee := funcs[in.Imm]
				frame := m.getFrame(callee.NRegs)
				for ai, ar := range in.Args {
					frame[ai] = regs[ar]
				}
				ret, err := m.exec(callee, frame, depth+1)
				m.putFrame(frame)
				if err != nil {
					return 0, err
				}
				if in.Dst != ir.NoReg {
					regs[in.Dst] = ret
				}
			case ir.OpPrint:
				m.Checksum = m.Checksum*1099511628211 + uint64(regs[in.A])
				m.Prints++
			default:
				return 0, trap(f, b, "invalid opcode "+in.Op.String())
			}
		}
		m.Steps += uint64(len(instrs)) + 1
		if m.MaxSteps != 0 && m.Steps >= m.MaxSteps {
			return 0, ErrLimit
		}
		switch b.Term.Op {
		case ir.TermJmp:
			b = b.Term.Then
		case ir.TermBr:
			t := &b.Term
			taken := regs[t.Cond] != 0
			m.Branches++
			if t.Pred != ir.PredNone {
				m.Predicted++
				if (t.Pred == ir.PredTaken) != taken {
					m.Mispredicted++
				}
			}
			if t.SwTest {
				// A clustering test is trace-invisible except that its taken
				// edge emits the governed switch's event, keeping clustered
				// traces byte-identical to their originals.
				if taken {
					if m.Rec != nil {
						m.Rec.RecordSwitch(t.Site, t.SwOutcome)
					}
					if m.SwHook != nil {
						m.SwHook(t, t.SwOutcome)
					}
				}
			} else {
				if m.Rec != nil {
					m.Rec.Record(t.Site, taken)
				}
				if m.Hook != nil {
					m.Hook(t, taken)
				}
			}
			if m.MaxBranches != 0 && m.Branches >= m.MaxBranches {
				return 0, ErrLimit
			}
			if taken {
				b = t.Then
			} else {
				b = t.Else
			}
		case ir.TermSwitch:
			t := &b.Term
			v := regs[t.Cond]
			outcome := int32(len(t.Targets))
			if v >= 0 && v < int64(len(t.Targets)) {
				outcome = int32(v)
			}
			m.Branches++
			m.Dispatches++
			if t.Pred != ir.PredNone {
				m.Predicted++
				if t.PredIdx != outcome {
					m.Mispredicted++
				}
			}
			if m.Rec != nil {
				m.Rec.RecordSwitch(t.Site, outcome)
			}
			if m.SwHook != nil {
				m.SwHook(t, outcome)
			}
			if m.MaxBranches != 0 && m.Branches >= m.MaxBranches {
				return 0, ErrLimit
			}
			if int(outcome) < len(t.Targets) {
				b = t.Targets[outcome]
			} else {
				b = t.Else
			}
		case ir.TermRet:
			if b.Term.HasVal {
				return regs[b.Term.A], nil
			}
			return 0, nil
		default:
			return 0, trap(f, b, "missing terminator")
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
