package statemachine

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/predict"
	"repro/internal/profile"
)

// buildProfile compiles and profiles a BL program.
func buildProfile(t *testing.T, src string) (*profile.Profile, []predict.SiteFeatures) {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	n := prog.NumberBranches(true)
	prof := profile.New(n, profile.Options{})
	m := interp.New(prog)
	m.Hook = interp.BranchHook(prof)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return prof, predict.Analyze(prog)
}

const mixedSrc = `
var seed int = 5;

func rnd() int {
    seed = (seed * 1103515245 + 12345) & 1073741823;
    return seed;
}

func main() int {
    var s int = 0;
    for var i int = 0; i < 4000; i = i + 1 {
        // alternating: loop machine material
        if i % 2 == 0 { s = s + 1; }
        // counted inner loop: exit machine material
        for var j int = 0; j < 3; j = j + 1 { s = s + j; }
        // correlated pair: path machine material
        var x int = 0;
        if (rnd() >> 5) % 2 == 0 { x = 1; }
        if x == 1 { s = s + 2; }
    }
    print(s);
    return s;
}`

func TestSelectPicksExpectedFamilies(t *testing.T) {
	prof, feats := buildProfile(t, mixedSrc)
	choices := Select(prof, feats, Options{MaxStates: 4, MaxPathLen: 1})
	byKind := map[Kind]int{}
	for i := range choices {
		byKind[choices[i].Kind]++
	}
	if byKind[KindLoop] == 0 {
		t.Error("no loop machine selected for the alternating branch")
	}
	if byKind[KindExit] == 0 {
		t.Error("no exit machine selected for the counted inner loop")
	}
	if byKind[KindPath] == 0 {
		t.Error("no path machine selected for the correlated branch")
	}
	// Every choice must be at least as good as profile on its own branch.
	for i := range choices {
		c := &choices[i]
		if c.Total == 0 {
			continue
		}
		profRate := missRate(c.ProfileHits, c.ProfileTotal)
		if missRate(c.Hits, c.Total) > profRate+1e-9 {
			t.Errorf("site %d: selected %v rate worse than profile", c.Site, c.Kind)
		}
		if c.NumStates() > 4 {
			t.Errorf("site %d: %d states exceeds budget", c.Site, c.NumStates())
		}
	}
}

func TestSelectDisables(t *testing.T) {
	prof, feats := buildProfile(t, mixedSrc)
	all := Select(prof, feats, Options{MaxStates: 4, MaxPathLen: 1})
	noLoop := Select(prof, feats, Options{MaxStates: 4, MaxPathLen: 1, DisableLoop: true})
	noPath := Select(prof, feats, Options{MaxStates: 4, MaxPathLen: 1, DisablePath: true})
	for i := range noLoop {
		if noLoop[i].Kind == KindLoop {
			t.Fatal("DisableLoop ignored")
		}
		if noPath[i].Kind == KindPath {
			t.Fatal("DisablePath ignored")
		}
	}
	am, at := Aggregate(all)
	nm, nt := Aggregate(noLoop)
	if float64(am)/float64(at) > float64(nm)/float64(nt)+1e-9 {
		t.Error("removing a family must not improve the aggregate")
	}
}

func TestSelectPaperCountingDiffers(t *testing.T) {
	prof, feats := buildProfile(t, mixedSrc)
	exact := Select(prof, feats, Options{MaxStates: 5, MaxPathLen: 1})
	paper := Select(prof, feats, Options{MaxStates: 5, MaxPathLen: 1, PaperCounting: true})
	if len(exact) != len(paper) {
		t.Fatal("selection lengths differ")
	}
	// Paper counting is an upper bound on the realizable score, so its
	// aggregated rate can only look equal or better.
	em, et := Aggregate(exact)
	pm, pt := Aggregate(paper)
	if float64(pm)/float64(pt) > float64(em)/float64(et)+0.01 {
		t.Errorf("paper counting (%.4f) looks worse than exact (%.4f)",
			float64(pm)/float64(pt), float64(em)/float64(et))
	}
}

func TestSelectGain(t *testing.T) {
	prof, feats := buildProfile(t, mixedSrc)
	choices := Select(prof, feats, Options{MaxStates: 4, MaxPathLen: 1})
	for i := range choices {
		c := &choices[i]
		if c.Kind != KindProfile && c.Gain() < 0 {
			t.Errorf("site %d: machine selected with negative gain %.1f", c.Site, c.Gain())
		}
	}
}

func TestSelectValidation(t *testing.T) {
	prof, feats := buildProfile(t, mixedSrc)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for MaxStates < 2")
		}
	}()
	Select(prof, feats, Options{MaxStates: 1})
}

func TestKindString(t *testing.T) {
	for k := KindProfile; k <= KindPath; k++ {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
}
