package lang_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/bench"
	"repro/internal/lang"
)

// goldenIRSHA256 pins the lowering's output: the SHA-256 of
// prog.String() for every catalog and indirect workload, as lang.Compile
// returns it (branch sites numbered). The golden trace hashes pin only
// what the lowered code does at run time; these pin the code itself, so
// a change to checking or lowering that renames a register, reorders a
// block or moves a branch site must update them deliberately.
var goldenIRSHA256 = map[string]string{
	"abalone":   "eb2e1a8bb8f2fd8439d6641099b0e94e43d715152d8d9fceab74ae30d94f8f06",
	"cc":        "c668ddd7426a1d78c0ea0c15c0b60fe2e290d81b5211a51333b46b0bff5a0b81",
	"compress":  "173d60543ee424b1d6b0003678c0fc6503b1403b557317677facc052788ca4b6",
	"ghostview": "873e922cea7a9985adc75c87721d525ade7a37d9d8473e8f53cd30fe756936ff",
	"predict":   "b20b64f0e0549949c4ceb2685f3b5aa3aad245d580ca6b2148720c7f197d2c42",
	"prolog":    "dd2426f4c5295d6e2a40ede124f9fc9e186b99f6e5dbc57187de7c3e93830146",
	"scheduler": "adfad2ef9646c7ed603a0696ce98994ec814ffa2ab689b4039c35efedec8a7e8",
	"doduc":     "87d3d9d8b1815742e4e02161e59e8ca131f87b4c7ce425bd8e00620695482cff",
	"svm":       "6249cfbb20a8de0b691cf50ec34c3bfe6e6b66bde5ea10575e25bfc688d0a1cd",
	"lex":       "70dd6c7fa3371bcbcd6d3369cd5afab32cdcd876629065c1cf6081710705a385",
	"auto":      "ab65efbbf9aaeac68af0fd3eb631127c275a5f8821b22f52f5ac9b153d6e086f",
}

func TestGoldenLoweredIR(t *testing.T) {
	ws := append(bench.Workloads(), bench.IndirectWorkloads()...)
	for _, w := range ws {
		t.Run(w.Name, func(t *testing.T) {
			prog, err := lang.Compile(w.Source)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(prog.String()))
			got := hex.EncodeToString(sum[:])
			if want, ok := goldenIRSHA256[w.Name]; !ok {
				t.Errorf("no golden IR hash for %q (got %s)", w.Name, got)
			} else if got != want {
				t.Errorf("lowered IR hash drifted:\n  got  %s\n  want %s", got, want)
			}
		})
	}
	if len(goldenIRSHA256) != len(ws) {
		t.Errorf("goldenIRSHA256 has %d entries, want %d", len(goldenIRSHA256), len(ws))
	}
}
