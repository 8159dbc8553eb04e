package bench

// Experiment describes one experiment of the suite for drivers such as
// cmd/krallbench. TraceSufficient experiments consume only recorded branch
// traces and data derived from them, so the replay engine serves them
// without any live interpreter run; execution-bound experiments measure
// transformed program clones. The suite walks replicated clones along
// the original's recorded trace (replicate.Walk) instead of running them,
// so of these only the indirect experiment's clustered clones still run
// live.
type Experiment struct {
	ID              string
	Title           string
	TraceSufficient bool
}

// Experiments lists the suite in krallbench's output order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Misprediction rates of different branch prediction strategies", true},
		{"table2", "Fill rate of the history tables", true},
		{"table3", "Misprediction rates of loop and loop exit branches", true},
		{"table4", "Misprediction rates of correlated branches", true},
		{"table5", "Best achievable misprediction rates", true},
		{"staticpred", "Static (profile-free) prediction vs the profiled oracle", true},
		{"figures", "Misprediction rate vs code size factor (Figures 6-13)", true},
		{"measured", "Measured replication: interpreter-verified rates and sizes", false},
		{"crossdataset", "Dataset sensitivity", false},
		{"layout", "Code positioning [PH90]", false},
		{"scope", "Scheduler scope", false},
		{"joint", "Sequential vs joint replication", false},
		{"indirect", "Indirect dispatch: switch clustering vs annotated baseline", false},
		{"headline", "Headline summary (§5 operating point)", true},
	}
}

// TraceSufficient reports whether the experiment with the given ID can be
// served entirely from recorded traces; unknown IDs report false.
func TraceSufficient(id string) bool {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.TraceSufficient
		}
	}
	return false
}
