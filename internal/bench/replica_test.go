package bench

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/predict"
	"repro/internal/replicate"
	"repro/internal/statemachine"
	"repro/internal/superblock"
)

// TestReplicaMatchesPerSectionRuns holds the shared replica to the
// construction it replaced: every execution-bound section at the replica's
// size building its own clone, transforming it with ApplyOpts and running
// it live for what it measures. Each section's table must render
// byte-identical to the same table with its replicated rows rebuilt that
// way, at one and at eight workers.
func TestReplicaMatchesPerSectionRuns(t *testing.T) {
	for _, p := range []int{1, 8} {
		t.Run(fmt.Sprintf("parallel%d", p), func(t *testing.T) {
			cfg := QuickConfig()
			cfg.Parallel = p
			s, err := NewSuite(cfg)
			if err != nil {
				t.Fatal(err)
			}
			run := func(seed int64) RunConfig {
				return RunConfig{Budget: cfg.Budget, Seed: seed, Scale: scaleFor(cfg)}
			}
			// clone is one section's own replicated program.
			clone := func(d *WorkloadData) (*ir.Program, *replicate.Stats) {
				choices, err := s.selectFor(d, statemachine.Options{MaxStates: replicaStates, MaxPathLen: 1})
				if err != nil {
					t.Fatal(err)
				}
				prog := ir.CloneProgram(d.C.Prog)
				st, err := replicate.ApplyOpts(prog, choices, predict.ProfileStatic(d.Prof.Counts).Preds,
					replicate.Options{MaxSizeFactor: 3})
				if err != nil {
					t.Fatal(err)
				}
				return prog, st
			}
			rate := func(prog *ir.Program, seed int64) Cell {
				m, err := core.Measure(context.Background(), prog, run(seed), nil)
				if err != nil {
					t.Fatal(err)
				}
				return rateCell(m.Mispredicted, m.Predicted)
			}
			// counted runs one section's own clone with branch and block
			// counts and evaluates both layouts and trace formation.
			counted := func(d *WorkloadData) (naive, ph Cell, scope superblock.Stats) {
				prog, _ := clone(d)
				m, err := core.Count(context.Background(), prog, run(cfg.Seed))
				if err != nil {
					t.Fatal(err)
				}
				naive, ph = layoutCells(prog, m.BlockCounts, m.Counts)
				return naive, ph, superblock.MeasureProgram(prog, m.BlockCounts, m.Counts)
			}
			type section struct {
				build func() (*Table, error)
				// rows rebuilds the replicated rows of one workload's
				// column, keyed by row index.
				rows func(d *WorkloadData) map[int]Cell
			}
			sections := map[string]section{
				"measured": {
					func() (*Table, error) { return s.MeasuredReplication(replicaStates) },
					func(d *WorkloadData) map[int]Cell {
						prog, st := clone(d)
						return map[int]Cell{1: rate(prog, cfg.Seed), 2: {Value: st.SizeFactor(), Valid: true}}
					},
				},
				"crossdataset": {
					s.CrossDataset,
					func(d *WorkloadData) map[int]Cell {
						prog, _ := clone(d)
						return map[int]Cell{2: rate(prog, cfg.Seed), 3: rate(prog, cfg.CrossSeed)}
					},
				},
				"layout": {
					s.LayoutTable,
					func(d *WorkloadData) map[int]Cell {
						naive, ph, _ := counted(d)
						return map[int]Cell{2: naive, 3: ph}
					},
				},
				"scope": {
					s.ScopeTable,
					func(d *WorkloadData) map[int]Cell {
						_, _, st := counted(d)
						return map[int]Cell{
							1: {Value: st.AvgDynamicLength(), Valid: true},
							2: countCell(uint64(st.Traces)),
						}
					},
				},
			}
			for _, id := range []string{"measured", "crossdataset", "layout", "scope"} {
				sec := sections[id]
				got, err := sec.build()
				if err != nil {
					t.Fatal(err)
				}
				want := *got
				want.Rows = make([]Row, len(got.Rows))
				for ri, r := range got.Rows {
					want.Rows[ri] = Row{Name: r.Name, Cells: append([]Cell(nil), r.Cells...)}
				}
				for ci, d := range s.Data {
					for ri, c := range sec.rows(d) {
						want.Rows[ri].Cells[ci] = c
					}
				}
				if g, w := got.Render(), want.Render(); g != w {
					t.Fatalf("%s: replica-served table differs from per-section runs\ngot:\n%s\nwant:\n%s", id, g, w)
				}
			}
		})
	}
}

// TestReplicaConcurrentReaders renders the four replica-served sections
// from concurrent goroutines on one suite, so the single-flight build and
// the shared clone's readers race each other, and requires the output of
// sequential rendering on a fresh suite. Run it under -race.
func TestReplicaConcurrentReaders(t *testing.T) {
	cfg := QuickConfig()
	cfg.Budget = 20_000
	cfg.Parallel = 4
	sections := func(s *Suite) []func() (*Table, error) {
		return []func() (*Table, error){
			func() (*Table, error) { return s.MeasuredReplication(replicaStates) },
			s.CrossDataset, s.LayoutTable, s.ScopeTable,
		}
	}
	render := func(f func() (*Table, error)) string {
		tab, err := f()
		if err != nil {
			return "error: " + err.Error()
		}
		return tab.Render()
	}
	seq, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, f := range sections(seq) {
		want = append(want, render(f))
	}
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(want))
	var wg sync.WaitGroup
	for i, f := range sections(s) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = render(f)
		}()
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("section %d rendered concurrently differs:\n%s\nwant:\n%s", i, got[i], want[i])
		}
	}
}
