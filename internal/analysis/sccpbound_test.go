package analysis

import (
	"runtime"
	"testing"

	"repro/internal/ir"
	"repro/internal/ssa"
)

// hostileFunc builds one function shaped to punish per-register × per-block
// state: a loop around a chain of diamonds, every arm defining a different
// register out of nregs, all branching on the parameter so SCCP must keep
// every edge. Each register needs a phi at the loop header and at most one
// diamond join, so the SSA form stays linear in the size of the program.
func hostileFunc(diamonds, nregs int) *ir.Program {
	p := ir.NewProgram()
	f := &ir.Func{Name: "hostile", NParams: 1, NRegs: nregs, RetType: ir.TInt}
	if err := p.AddFunc(f); err != nil {
		panic(err)
	}
	entry := f.NewBlock("entry")
	f.Entry = entry
	reg := func(i int) ir.Reg { return ir.Reg(1 + i%(nregs-1)) }
	var prev *ir.Block
	var header *ir.Block
	for i := 0; i < diamonds; i++ {
		head, a, b, join := f.NewBlock("head"), f.NewBlock("a"), f.NewBlock("b"), f.NewBlock("join")
		if prev == nil {
			header = head
			entry.Term = ir.Term{Op: ir.TermJmp, Then: head}
		} else {
			prev.Term = ir.Term{Op: ir.TermJmp, Then: head}
		}
		head.Term = ir.Term{Op: ir.TermBr, Cond: 0, Then: a, Else: b}
		a.Instrs = append(a.Instrs, ir.Instr{Op: ir.OpConstI, Dst: reg(i), Imm: int64(i)})
		a.Term = ir.Term{Op: ir.TermJmp, Then: join}
		b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpAddI, Dst: reg(i + 1), A: reg(i), B: reg(i + 2)})
		b.Term = ir.Term{Op: ir.TermJmp, Then: join}
		prev = join
	}
	exit := f.NewBlock("exit")
	prev.Term = ir.Term{Op: ir.TermBr, Cond: 0, Then: header, Else: exit}
	exit.Term = ir.Term{Op: ir.TermRet, HasVal: true, A: reg(0)}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	p.NumberBranches(true)
	return p
}

// TestSCCPMemoryLinearOnHostileShapes holds SSA construction plus SCCP on a
// function with thousands of registers and blocks to an allocation budget
// linear in values + edges: a table sized registers × blocks (here 24M
// cells) would blow it many times over.
func TestSCCPMemoryLinearOnHostileShapes(t *testing.T) {
	const diamonds, nregs = 2000, 3000
	prog := hostileFunc(diamonds, nregs)
	sp, err := ssa.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	fn := sp.Funcs[0]
	if err := ssa.Verify(fn); err != nil {
		t.Fatal(err)
	}
	size := fn.NumValues()
	for _, b := range fn.Blocks {
		size += len(b.Preds)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := SCCP(prog)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	// Every site executes both ways: the branch condition is a parameter.
	for site, fact := range res.Facts {
		if fact != FactNone {
			t.Fatalf("site %d decided %v on an unknown condition", site, fact)
		}
	}
	const perItem = 512 // bytes per value or edge
	if used := after.TotalAlloc - before.TotalAlloc; used > perItem*uint64(size) {
		t.Fatalf("SSA + SCCP allocated %d bytes for %d values + edges (%d blocks, %d registers); budget %d",
			used, size, len(fn.Blocks), nregs, perItem*size)
	}
}
