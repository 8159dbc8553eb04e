package bench

import (
	"fmt"

	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/runner"
	"repro/internal/statemachine"
	"repro/internal/trace"
)

// ExpConfig parameterises the experiment suite.
type ExpConfig struct {
	// Budget is the branch-event budget per workload run (the paper traced
	// up to 100M branches; the default here is 2M, which is where the
	// rates stabilise on these workloads).
	Budget uint64
	// Seed/Scale override the workload inputs (0 = program defaults).
	Seed, Scale int64
	// CrossSeed is the alternate dataset for the cross-dataset experiment.
	CrossSeed int64
	// Table3States / Table4States / Table5States are the machine sizes
	// swept by the respective tables.
	Table3States []int
	Table4States []int
	Table5States []int
	// MaxPathLen caps correlated path lengths in Table 5 selection and in
	// the figures (1 keeps selections realizable by the replicator).
	MaxPathLen int
	// Parallel is the experiment engine's worker count: 0 uses
	// runtime.GOMAXPROCS(0), 1 runs every job inline (the sequential
	// path). Parallel runs produce byte-identical output — results merge
	// by job index, never by completion order.
	Parallel int
	// ForceLive disables the record-once/replay-many trace engine: every
	// experiment interprets the workload live, as the suite did before
	// traces existed. It exists for the replay-equivalence tests; results
	// are identical either way, only slower.
	ForceLive bool
}

// DefaultConfig is the configuration used by cmd/krallbench.
func DefaultConfig() ExpConfig {
	return ExpConfig{
		Budget:       2_000_000,
		CrossSeed:    424243,
		Table3States: []int{3, 4, 5, 6, 7, 8, 9, 10},
		Table4States: []int{2, 3, 4, 5, 6, 7},
		Table5States: []int{2, 3, 4, 5, 6, 7, 8, 9, 10},
		MaxPathLen:   3,
	}
}

// QuickConfig is a scaled-down configuration for tests and smoke runs.
func QuickConfig() ExpConfig {
	return ExpConfig{
		Budget:       60_000,
		CrossSeed:    424243,
		Table3States: []int{3, 5, 8},
		Table4States: []int{2, 4},
		Table5States: []int{2, 4, 8},
		MaxPathLen:   2,
	}
}

// Cell is one table entry.
type Cell struct {
	Value float64
	// Count marks integer cells (branch counts) as opposed to percentage
	// rates.
	Count bool
	Valid bool
}

// Rate makes a percentage cell.
func rateCell(misses, total uint64) Cell {
	if total == 0 {
		return Cell{}
	}
	return Cell{Value: 100 * float64(misses) / float64(total), Valid: true}
}

func countCell(n uint64) Cell { return Cell{Value: float64(n), Count: true, Valid: true} }

// Row is one table row.
type Row struct {
	Name  string
	Cells []Cell
}

// Table is one reproduced result table.
type Table struct {
	ID    string
	Title string
	Cols  []string
	Rows  []Row
}

// WorkloadData is everything collected from one profiled run of one
// workload. It is immutable once NewSuite returns; every experiment only
// reads it, which is what makes the parallel engine race-free.
type WorkloadData struct {
	C    *Compiled
	Prof *profile.Profile
	// Local1/Global1 are the 1-bit history tables for Table 1's 1-bit
	// rows; Local1 is derived from Prof's streams.
	Local1  *profile.LocalHistory
	Global1 *profile.GlobalHistory
	// Dynamic predictor scores.
	Last, TwoBit, TwoLevel, GShare predict.Eval
	// Branches is the number of traced events; Steps the executed
	// instructions (for the [FF92] instructions-per-mispredict metric).
	Branches uint64
	Steps    uint64
	// Art is the recorded trace artifact of the profiling run (nil when
	// the suite runs with ForceLive). Experiments that only consume the
	// branch stream replay it instead of re-interpreting the workload.
	Art *RunArtifact
}

// Suite holds the profiled data of all workloads plus the experiment
// engine whose artifact cache shares per-size strategy selections between
// Table 5, the figures, and the measured experiments.
type Suite struct {
	Cfg  ExpConfig
	Data []*WorkloadData

	eng *runner.Engine
	// prefix namespaces this suite's cache keys, so suites with different
	// budgets or datasets can share one engine without collisions.
	prefix string
}

// NewSuite compiles and profiles every workload under the configuration,
// one parallel job per workload.
func NewSuite(cfg ExpConfig) (*Suite, error) {
	return NewSuiteEngine(cfg, runner.New(cfg.Parallel))
}

// NewSuiteEngine is NewSuite with a caller-provided engine, so several
// suites (or repeated sweeps) can share one artifact cache.
func NewSuiteEngine(cfg ExpConfig, eng *runner.Engine) (*Suite, error) {
	s := &Suite{
		Cfg:    cfg,
		eng:    eng,
		prefix: fmt.Sprintf("b%d/s%d/x%d/", cfg.Budget, cfg.Seed, scaleFor(cfg)),
	}
	if cfg.ForceLive {
		// Live-profiled data is identical to replayed data, but the
		// equivalence tests compare the two paths, so they must not share
		// cache entries.
		s.prefix += "live/"
	}
	data, err := runner.Map(eng, Workloads(), func(_ int, w Workload) (*WorkloadData, error) {
		return s.profileWorkload(w)
	})
	if err != nil {
		return nil, err
	}
	s.Data = data
	return s, nil
}

// Engine returns the suite's experiment engine (counters, cache).
func (s *Suite) Engine() *runner.Engine { return s.eng }

// profileWorkload compiles and profiles one workload through the artifact
// cache: repeated suites on one engine profile each workload once.
func (s *Suite) profileWorkload(w Workload) (*WorkloadData, error) {
	key := s.prefix + "profile/" + w.Name
	return runner.Cached(s.eng.Cache(), key, func() (*WorkloadData, error) {
		c, err := Compile(w)
		if err != nil {
			return nil, err
		}
		d := &WorkloadData{
			C:       c,
			Prof:    profile.New(c.NSites, profile.Options{LocalK: 9, GlobalK: 9, PathM: 3}),
			Global1: profile.NewGlobalHistory(c.NSites, 1),
			Last:    predict.Eval{P: predict.NewLastDirection(c.NSites)},
			TwoBit:  predict.Eval{P: predict.NewTwoBit(c.NSites)},
			TwoLevel: predict.Eval{
				P: predict.NewTwoLevel(predict.PaperTwoLevel()),
			},
			GShare: predict.Eval{P: predict.NewGShare(12)},
		}
		if s.Cfg.ForceLive {
			m, err := c.Run(RunConfig{Budget: s.Cfg.Budget, Seed: s.Cfg.Seed, Scale: scaleFor(s.Cfg)},
				d.Prof, d.Global1, &d.Last, &d.TwoBit, &d.TwoLevel, &d.GShare)
			if err != nil {
				return nil, err
			}
			s.countLiveRun()
			mc := m.Counters()
			d.Branches = mc.Branches
			d.Steps = mc.Steps
		} else {
			// Record once, replay into every collector: the profile bundle
			// and the dynamic predictors see the exact event stream of the
			// run.
			art, err := s.artifactFor(c, s.Cfg.Seed)
			if err != nil {
				return nil, err
			}
			d.Art = art
			s.replay(art, d.Prof, d.Global1, &d.Last, &d.TwoBit, &d.TwoLevel, &d.GShare)
			d.Branches = art.Branches
			d.Steps = art.Steps
		}
		d.Local1 = profile.LocalFromStreams(d.Prof.Streams, 1)
		return d, nil
	})
}

// countsFor runs workload d under an alternate dataset seed and returns
// its branch counts, memoised per (workload, seed) so the cross-dataset
// and repeated sweeps decode each trace once.
func (s *Suite) countsFor(d *WorkloadData, seed int64) (*trace.Counts, error) {
	key := fmt.Sprintf("%scounts/%s/seed%d", s.prefix, d.C.Workload.Name, seed)
	return runner.Cached(s.eng.Cache(), key, func() (*trace.Counts, error) {
		counts := trace.NewCounts(d.C.NSites)
		if s.Cfg.ForceLive {
			if _, err := d.C.Run(RunConfig{
				Budget: s.Cfg.Budget, Seed: seed, Scale: scaleFor(s.Cfg),
			}, counts); err != nil {
				return nil, err
			}
			s.countLiveRun()
			return counts, nil
		}
		art, err := s.artifactFor(d.C, seed)
		if err != nil {
			return nil, err
		}
		s.replay(art, counts)
		return counts, nil
	})
}

// selectFor returns the per-branch strategy choices for one workload under
// opts, memoised in the artifact cache. The measured experiments
// (cross-dataset, measured replication, layout, scope) all request the
// same realizable sweep, so only the first computes it.
func (s *Suite) selectFor(d *WorkloadData, opts statemachine.Options) ([]statemachine.Choice, error) {
	key := fmt.Sprintf("%sselect/%s/n%d/len%d/paper%t/d%t%t%t", s.prefix, d.C.Workload.Name,
		opts.MaxStates, opts.MaxPathLen, opts.PaperCounting,
		opts.DisableLoop, opts.DisableExit, opts.DisablePath)
	return runner.Cached(s.eng.Cache(), key, func() ([]statemachine.Choice, error) {
		return statemachine.Select(d.Prof, d.C.Features, opts), nil
	})
}

// scaleFor makes budgeted runs never finish early: with a budget set, the
// workload scale is raised far beyond it.
func scaleFor(cfg ExpConfig) int64 {
	if cfg.Scale != 0 {
		return cfg.Scale
	}
	if cfg.Budget != 0 {
		return 1 << 30
	}
	return 0
}

// colNames returns the workload column headers.
func (s *Suite) colNames() []string {
	out := make([]string, len(s.Data))
	for i, d := range s.Data {
		out[i] = d.C.Workload.Name
	}
	return out
}

// buildColumns assembles a table from per-workload columns computed in
// parallel: col(i, d) returns workload i's cells, one per row name, and
// the transpose into rows happens after every job finished, in workload
// order — so the rendered bytes never depend on completion order.
func (s *Suite) buildColumns(t *Table, rowNames []string, col func(i int, d *WorkloadData) ([]Cell, error)) error {
	t.Cols = s.colNames()
	cols, err := runner.Map(s.eng, s.Data, col)
	if err != nil {
		return err
	}
	t.Rows = make([]Row, len(rowNames))
	for ri, name := range rowNames {
		cells := make([]Cell, len(cols))
		for ci, c := range cols {
			if ri < len(c) {
				cells[ci] = c[ri]
			}
		}
		t.Rows[ri] = Row{Name: name, Cells: cells}
	}
	return nil
}

// rowSpec is one table row: a name plus the per-workload cell function.
type rowSpec struct {
	name string
	cell func(i int, d *WorkloadData) Cell
}

// buildTable evaluates rowSpecs column-by-column in parallel.
func (s *Suite) buildTable(t *Table, specs []rowSpec) *Table {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	// The specs are pure functions of immutable profile data; no error path.
	_ = s.buildColumns(t, names, func(i int, d *WorkloadData) ([]Cell, error) {
		cells := make([]Cell, len(specs))
		for ri, sp := range specs {
			cells[ri] = sp.cell(i, d)
		}
		return cells, nil
	})
	return t
}

// Table1 reproduces the paper's Table 1: misprediction rates of the
// dynamic and semi-static strategies plus the branch population counts.
func (s *Suite) Table1() *Table {
	t := &Table{ID: "table1", Title: "Misprediction rates of different branch prediction strategies (%)"}
	var specs []rowSpec
	add := func(name string, f func(d *WorkloadData) Cell) {
		specs = append(specs, rowSpec{name: name, cell: func(_ int, d *WorkloadData) Cell { return f(d) }})
	}
	add("last direction", func(d *WorkloadData) Cell { return rateCell(d.Last.Misses, d.Last.Total) })
	add("2 bit counter", func(d *WorkloadData) Cell { return rateCell(d.TwoBit.Misses, d.TwoBit.Total) })
	add("two level 1K/9bit", func(d *WorkloadData) Cell { return rateCell(d.TwoLevel.Misses, d.TwoLevel.Total) })
	add("profile", func(d *WorkloadData) Cell {
		r := predict.ProfileResult(d.Prof.Counts)
		return rateCell(r.Misses, r.Total)
	})
	add("1 bit correlation", func(d *WorkloadData) Cell {
		r := predict.CorrelationResult(d.Global1)
		return rateCell(r.Misses, r.Total)
	})
	add("9 bit correlation", func(d *WorkloadData) Cell {
		r := predict.CorrelationResult(d.Prof.Global)
		return rateCell(r.Misses, r.Total)
	})
	add("1 bit loop", func(d *WorkloadData) Cell {
		r := predict.LoopResult(d.Local1)
		return rateCell(r.Misses, r.Total)
	})
	add("9 bit loop", func(d *WorkloadData) Cell {
		r := predict.LoopResult(d.Prof.Local())
		return rateCell(r.Misses, r.Total)
	})
	add("loop-correlation", func(d *WorkloadData) Cell {
		r, _ := predict.LoopCorrelationResult(d.Prof.Local(), d.Prof.Global, d.Prof.Counts)
		return rateCell(r.Misses, r.Total)
	})
	// Fisher–Freudenberger's alternative metric: executed instructions per
	// mispredicted branch (higher is better).
	add("instrs/mispredict (profile)", func(d *WorkloadData) Cell {
		r := predict.ProfileResult(d.Prof.Counts)
		if r.Misses == 0 {
			return Cell{}
		}
		return countCell(d.Steps / r.Misses)
	})
	add("instrs/mispredict (loop-corr)", func(d *WorkloadData) Cell {
		r, _ := predict.LoopCorrelationResult(d.Prof.Local(), d.Prof.Global, d.Prof.Counts)
		if r.Misses == 0 {
			return Cell{}
		}
		return countCell(d.Steps / r.Misses)
	})
	add("static branches", func(d *WorkloadData) Cell { return countCell(uint64(d.C.NSites)) })
	add("executed branches", func(d *WorkloadData) Cell { return countCell(uint64(d.Prof.Counts.Executed())) })
	add("improved branches", func(d *WorkloadData) Cell {
		_, improved := predict.LoopCorrelationResult(d.Prof.Local(), d.Prof.Global, d.Prof.Counts)
		n := uint64(0)
		for _, b := range improved {
			if b {
				n++
			}
		}
		return countCell(n)
	})
	return s.buildTable(t, specs)
}

// Table2 reproduces Table 2: fill rates of the pattern tables for history
// lengths 1..9, over local (loop) histories as in the paper, with the
// global tables as a companion block.
func (s *Suite) Table2() *Table {
	t := &Table{ID: "table2", Title: "Fill rate of the history tables (%)"}
	names := make([]string, 0, 18)
	for j := 0; j < 9; j++ {
		names = append(names, fmt.Sprintf("%d bit local history", j+1))
	}
	for j := 0; j < 9; j++ {
		names = append(names, fmt.Sprintf("%d bit global history", j+1))
	}
	_ = s.buildColumns(t, names, func(_ int, d *WorkloadData) ([]Cell, error) {
		local := d.Prof.Local().FillRates()
		global := d.Prof.Global.FillRates()
		cells := make([]Cell, 0, 18)
		for j := 0; j < 9; j++ {
			cells = append(cells, Cell{Value: local[j].Rate(), Valid: true})
		}
		for j := 0; j < 9; j++ {
			cells = append(cells, Cell{Value: global[j].Rate(), Valid: true})
		}
		return cells, nil
	})
	return t
}

// siteClass partitions a workload's branch sites the way section 4 does.
type siteClass struct {
	intra []int32 // inside a loop, neither edge leaves it
	exit  []int32 // inside a loop, an edge leaves it
	other []int32
}

func classify(d *WorkloadData) siteClass {
	var sc siteClass
	for i := 0; i < d.C.NSites; i++ {
		if d.Prof.Counts.Total(int32(i)) == 0 {
			continue
		}
		ft := d.C.Features[i]
		switch {
		case ft.LoopDepth > 0 && !ft.TakenExits && !ft.ElseExits:
			sc.intra = append(sc.intra, int32(i))
		case ft.LoopDepth > 0:
			sc.exit = append(sc.exit, int32(i))
		default:
			sc.other = append(sc.other, int32(i))
		}
	}
	return sc
}

// Table3 reproduces Table 3: misprediction rates of intra-loop and
// loop-exit branches under full (n-1)-bit histories versus n-state
// machines, using the paper's pattern-table counting. Each workload's
// whole sweep is one job: the siteClass partition is computed once per
// column and every swept size reuses it.
func (s *Suite) Table3() *Table {
	t := &Table{ID: "table3", Title: "Misprediction rates of loop and loop exit branches (%)"}
	profMisses := func(d *WorkloadData, sites []int32) (uint64, uint64) {
		var m, tot uint64
		for _, site := range sites {
			p := profile.Pair{Taken: d.Prof.Counts.Taken[site], NotTaken: d.Prof.Counts.NotTaken[site]}
			m += p.Misses()
			tot += p.Total()
		}
		return m, tot
	}
	histMisses := func(d *WorkloadData, sites []int32, bits int) (uint64, uint64) {
		var m, tot uint64
		for _, site := range sites {
			if d.Prof.Local().Table(site) == nil {
				continue
			}
			for _, p := range d.Prof.Local().Project(site, bits) {
				m += p.Misses()
				tot += p.Total()
			}
		}
		return m, tot
	}
	names := []string{"profile (loop)", "profile (exit)"}
	for _, n := range s.Cfg.Table3States {
		bits := n - 1
		if bits > 9 {
			bits = 9
		}
		names = append(names,
			fmt.Sprintf("%d bit hist (loop)", bits),
			fmt.Sprintf("%d states (loop)", n),
			fmt.Sprintf("%d bit hist (exit)", bits),
			fmt.Sprintf("%d states (exit)", n))
	}
	_ = s.buildColumns(t, names, func(_ int, d *WorkloadData) ([]Cell, error) {
		sc := classify(d)
		cells := make([]Cell, 0, len(names))
		cells = append(cells, rateCell(profMisses(d, sc.intra)), rateCell(profMisses(d, sc.exit)))
		for _, n := range s.Cfg.Table3States {
			bits := n - 1
			if bits > 9 {
				bits = 9
			}
			cells = append(cells, rateCell(histMisses(d, sc.intra, bits)))
			var m, tot uint64
			for _, site := range sc.intra {
				lm := statemachine.BestLoopMachine(d.Prof.Local().Table(site), 9, n)
				m += lm.Misses()
				tot += lm.Total
			}
			cells = append(cells, rateCell(m, tot))
			cells = append(cells, rateCell(histMisses(d, sc.exit, bits)))
			m, tot = 0, 0
			for _, site := range sc.exit {
				ft := d.C.Features[site]
				em := statemachine.NewExitMachine(d.Prof.Local().Table(site), 9, n, ft.TakenExits)
				m += em.Misses()
				tot += em.Total
			}
			cells = append(cells, rateCell(m, tot))
		}
		return cells, nil
	})
	return t
}

// Table4 reproduces Table 4: misprediction rates of correlated branches —
// all executed branches predicted by path machines of increasing size,
// with path length capped at the state count as in the paper.
func (s *Suite) Table4() *Table {
	t := &Table{ID: "table4", Title: "Misprediction rates of correlated branches (%)"}
	names := []string{"profile", "full path table"}
	for _, n := range s.Cfg.Table4States {
		names = append(names, fmt.Sprintf("%d states", n))
	}
	_ = s.buildColumns(t, names, func(_ int, d *WorkloadData) ([]Cell, error) {
		cells := make([]Cell, 0, len(names))
		r := predict.ProfileResult(d.Prof.Counts)
		cells = append(cells, rateCell(r.Misses, r.Total))
		var m, tot uint64
		for i := 0; i < d.C.NSites; i++ {
			sm, st := d.Prof.Path.SiteMisses(int32(i))
			m += sm
			tot += st
		}
		cells = append(cells, rateCell(m, tot))
		for _, n := range s.Cfg.Table4States {
			m, tot = 0, 0
			for i := 0; i < d.C.NSites; i++ {
				if d.Prof.Counts.Total(int32(i)) == 0 {
					continue
				}
				pm := statemachine.BestPathMachine(d.Prof.Path, int32(i), n, n)
				m += pm.Misses()
				tot += pm.Total
			}
			cells = append(cells, rateCell(m, tot))
		}
		return cells, nil
	})
	return t
}

// Selections computes the per-branch best strategies at a given machine
// size for every workload, one parallel job per workload, memoised in the
// artifact cache (Table 5 and the figures sweep the same sizes, so the
// second requester reuses the first's sweep). With paperCounting, loop
// machines are scored with the paper's pattern counting (used by Table 5
// and the figures, like the paper's own numbers); otherwise exact stream
// replay is used (what the measured experiments need).
func (s *Suite) Selections(n int, paperCounting bool) [][]statemachine.Choice {
	key := fmt.Sprintf("%sselsweep/n%d/len%d/paper%t", s.prefix, n, s.Cfg.MaxPathLen, paperCounting)
	out, err := runner.Cached(s.eng.Cache(), key, func() ([][]statemachine.Choice, error) {
		return runner.Map(s.eng, s.Data, func(_ int, d *WorkloadData) ([]statemachine.Choice, error) {
			return s.selectFor(d, statemachine.Options{
				MaxStates:     n,
				MaxPathLen:    s.Cfg.MaxPathLen,
				PaperCounting: paperCounting,
			})
		})
	})
	if err != nil {
		// Selection is a pure function of immutable profiles; the only
		// conceivable failure is a job panic, which should crash loudly.
		panic(err)
	}
	return out
}

// prefetchSelections populates the selection cache for several sizes in
// parallel (sizes × workloads jobs), so the sequential assembly that
// follows only performs cache hits.
func (s *Suite) prefetchSelections(sizes []int, paperCounting bool) {
	_, _ = runner.Map(s.eng, sizes, func(_ int, n int) (struct{}, error) {
		s.Selections(n, paperCounting)
		return struct{}{}, nil
	})
}

// Table5 reproduces Table 5: best achievable misprediction rates when every
// branch uses its best strategy under a state budget.
func (s *Suite) Table5() *Table {
	t := &Table{ID: "table5", Title: "Best achievable misprediction rates (%)", Cols: s.colNames()}
	s.prefetchSelections(s.Cfg.Table5States, true)
	prow := Row{Name: "profile"}
	for _, d := range s.Data {
		r := predict.ProfileResult(d.Prof.Counts)
		prow.Cells = append(prow.Cells, rateCell(r.Misses, r.Total))
	}
	t.Rows = append(t.Rows, prow)
	for _, n := range s.Cfg.Table5States {
		sel := s.Selections(n, true)
		row := Row{Name: fmt.Sprintf("%d states", n)}
		for i := range s.Data {
			m, tot := statemachine.Aggregate(sel[i])
			row.Cells = append(row.Cells, rateCell(m, tot))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
