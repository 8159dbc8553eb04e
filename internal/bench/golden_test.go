package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/interp"
	"repro/internal/trace"
)

// Golden-trace regression: one slab per catalog workload, recorded with
// the reference interpreter at a fixed (budget, seed, scale) cell and
// pinned by SHA-256 of its serialized (BLTRACE1) bytes. The hashes below
// were produced by the interpreter and are committed. This pins the
// branch-event plane across time: a workload or trace-format change must
// update the hash deliberately. No network, no timing dependence — the
// runs are deterministic.
const (
	goldenBudget = 100_000
	goldenSeed   = 1
	goldenScale  = 1 << 30
)

var goldenTraceSHA256 = map[string]string{
	"abalone":   "e4ee9b85549c67fdcd1faa353366ca03500bb4f4cef8e1a0049072712527f96c",
	"cc":        "4016a32b3a2930b11a2d445b0c2da8eb0941ad12ac30ada7a54c235e7185dc6d",
	"compress":  "cd80167270b8ec3a4e80aa2c044cf3626061a7f1aeb221db8405348b170abe54",
	"doduc":     "fb38a4ba30a1ff4f544975124156f6176de1c645968e4d8d25fe656bb0308231",
	"ghostview": "609c7cfb28622fb1ab527da4744b30f8ba1478deedf3e4973ca642d06412e036",
	"predict":   "cbf20dc6a79dfd7e2c65df9457d169c4b861332747e2f3d80d4e40852e0f70c6",
	"prolog":    "c3f796637b1f4027032eef8629fa6f77426b2f71cd83777016e44cc9b623da80",
	"scheduler": "d35f6238980cba7a79db2e90cb7fd5de6d2e45fe7fc7b1dddec6752b9d3357a1",
}

// goldenRecord runs one workload under the golden cell and returns the
// serialized slab.
func goldenRecord(t *testing.T, c *Compiled) []byte {
	t.Helper()
	m, err := newMachine(c.Prog, RunConfig{Budget: goldenBudget, Seed: goldenSeed, Scale: goldenScale})
	if err != nil {
		t.Fatalf("%s: %v", c.Workload.Name, err)
	}
	slab := trace.NewSlab(goldenBudget)
	m.SetRec(slab)
	if _, err := m.Run(); err != nil && !errors.Is(err, interp.ErrLimit) {
		t.Fatalf("%s: run: %v", c.Workload.Name, err)
	}
	slab.Seal()
	var buf bytes.Buffer
	if _, err := slab.WriteTo(&buf); err != nil {
		t.Fatalf("%s: serialize: %v", c.Workload.Name, err)
	}
	return buf.Bytes()
}

func TestGoldenTraces(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			want, ok := goldenTraceSHA256[w.Name]
			if !ok {
				t.Fatalf("no golden hash committed for workload %q — add it to goldenTraceSHA256", w.Name)
			}
			c, err := Compile(w)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(goldenRecord(t, c))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("interpreter trace hash drifted:\n  got  %s\n  want %s\n(if the workload or trace format changed deliberately, update goldenTraceSHA256)", got, want)
			}
		})
	}
	if len(goldenTraceSHA256) != len(Workloads()) {
		t.Errorf("goldenTraceSHA256 has %d entries, catalog has %d workloads", len(goldenTraceSHA256), len(Workloads()))
	}
}
