package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/predict"
	"repro/internal/progen"
)

// Golden static predictions: one SHA-256 per catalog workload and per
// progen seed over every per-site output of the static heuristics — the
// Dempster–Shafer report rows (site, function, exact probability bits,
// fired heuristics, loop depth, SCCP fact, direction) and the three
// first-match vectors (BallLarus, BackwardTaken, OpcodeStatic). The Table 1
// and staticpred goldens pin only aggregates; this pins each site, so a
// refactor of the feature extraction cannot trade one site's direction for
// another's unnoticed.
var goldenStaticSHA256 = map[string]string{
	"abalone":   "c80f011900276ac0460ded11bf0b1760b8056eebdfeba7c3c7101874a9b43e43",
	"cc":        "a995de180ce8243bdece2aa9388755bf74a640e571dc3782b371ff59667c1b49",
	"compress":  "34f755376e4211b1b1da40d23683f71c2446698a68b24bb43417a310b71cd69f",
	"ghostview": "83f96ee6b9d6fcefcf636d6ff4e354fb0681a7d7a6b4c7b084a6c1dde393f38b",
	"predict":   "b14dde5db259b4969b9599062997d65b5795997932793210168ff48fa5580997",
	"prolog":    "5d4af0649c611f296cf7b32e539a60206ae2263db69c9ce2148a396aa3c6c443",
	"scheduler": "f760af36e1a16c22be0889b872bbbf703f4a6e891612d03bc0fcf2bec65adcd7",
	"doduc":     "a784b2dbd27fa6371e9d264300cffb7488e2a7bfcbb228aba4e169dc2bd133b9",
	"progen-0":  "57fa8aa805d0be7120193d86ca4bf80422b89cbb0375099237c158b79745f470",
	"progen-1":  "75af8ba329b2b5840c7fc8e6d20727ab8d1dc407476983a4ab5b1203827a27f0",
	"progen-2":  "4f8072d02556a4b57f5076520e906b9e5d3de8de1fde40df2d9abae5aa36ffd6",
	"progen-3":  "db3c714f769c27ac72bed63e219a8a2deec6db1e566bd6f2401cd3b539495ebf",
	"progen-4":  "cece04bcf4160a5837e6f417436aa4d14c47ec253b167941a28d296c39a68ce6",
	"progen-5":  "8fba7ea6db0746d83cad0bd6e1a4a2f944d402ad09d7b01bf8404868d34a914b",
	"progen-6":  "e85ca66b7d27876b07b8bf78039573b4d1b0097b14ccfd33e655065699500722",
	"progen-7":  "9e9cdde7d9147bae55e3fb09009eab5094ff476b4d962dc4dbb90b153b87bd62",
}

const goldenStaticSeeds = 8

// staticDigest hashes the per-site static predictions of a branch-numbered
// program.
func staticDigest(t *testing.T, prog *ir.Program) string {
	t.Helper()
	rep, err := analysis.BuildStaticReport(prog)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := range rep.Sites {
		s := &rep.Sites[i]
		fmt.Fprintf(h, "%d %s %016x %s %d %s %d %v\n",
			s.Site, s.Func, math.Float64bits(s.Prob), s.Heuristics(), s.LoopDepth, s.Fact, s.Pred, s.Switch)
	}
	feats := predict.Analyze(prog)
	for _, st := range []*predict.Static{predict.BallLarus(feats), predict.BackwardTaken(feats), predict.OpcodeStatic(feats)} {
		writePreds(h, st)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writePreds(h hash.Hash, st *predict.Static) {
	fmt.Fprintf(h, "%s:", st.Strategy)
	for _, p := range st.Preds {
		fmt.Fprintf(h, " %d", p)
	}
	fmt.Fprintln(h)
}

func TestGoldenStaticPredictions(t *testing.T) {
	check := func(name string, prog *ir.Program) {
		got := staticDigest(t, prog)
		if want, ok := goldenStaticSHA256[name]; !ok || got != want {
			t.Errorf("%s: static prediction hash drifted:\n  got  %s\n  want %s", name, got, want)
		}
	}
	for _, w := range Workloads() {
		c, err := Compile(w)
		if err != nil {
			t.Fatal(err)
		}
		check(w.Name, c.Prog)
	}
	for seed := int64(0); seed < goldenStaticSeeds; seed++ {
		prog, err := lang.Compile(progen.Generate(seed, progen.DefaultConfig()))
		if err != nil {
			t.Fatalf("progen seed %d: %v", seed, err)
		}
		prog.NumberBranches(true)
		check(fmt.Sprintf("progen-%d", seed), prog)
	}
	if n := len(Workloads()) + goldenStaticSeeds; len(goldenStaticSHA256) != n {
		t.Errorf("goldenStaticSHA256 has %d entries, want %d", len(goldenStaticSHA256), n)
	}
}
