package core_test

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/replicate"
	"repro/internal/statemachine"
)

// catalogPrograms compiles the catalog workloads, their branch sites
// numbered.
func catalogPrograms(b *testing.B) []*ir.Program {
	var progs []*ir.Program
	for _, w := range bench.Workloads() {
		c, err := bench.Compile(w)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, c.Prog)
	}
	return progs
}

// coldCell is op i's dataset: a 200k-branch budget on a seed no earlier op
// used, as a cold /v1/replicate request that the store cannot answer.
func coldCell(prog *ir.Program, i int) core.Cell {
	return core.Cell{Budget: 200_000}.Fill(prog, int64(i+1), core.FullScale)
}

// BenchmarkReplicateCold is the cold replicate pipeline without HTTP, JSON
// or the store: record and fold a profile (core.Profile), then select,
// replicate, verify and walk the clone (Profiled.Replicate with Verify),
// round-robin over the catalog workloads.
func BenchmarkReplicateCold(b *testing.B) {
	ctx := context.Background()
	progs := catalogPrograms(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog := progs[i%len(progs)]
		p, err := core.Profile(ctx, prog, coldCell(prog, i))
		if err != nil {
			b.Fatal(err)
		}
		res, err := p.Replicate(ctx, statemachine.Options{MaxStates: 5, MaxPathLen: 1},
			replicate.ApplyOpts, replicate.Options{MaxSizeFactor: 3, Verify: true})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Replica.Walked {
			b.Fatal("verified clone was not walked")
		}
	}
}

// BenchmarkRecordCatalog is the recording layer of BenchmarkReplicateCold
// alone: the same cells, core.Record only.
func BenchmarkRecordCatalog(b *testing.B) {
	ctx := context.Background()
	progs := catalogPrograms(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog := progs[i%len(progs)]
		if _, err := core.Record(ctx, prog, coldCell(prog, i)); err != nil {
			b.Fatal(err)
		}
	}
}
