// Tracing: the profiling-tool workflow of section 3 — run a workload with
// the trace writer, persist the compressed branch trace to disk, read it
// back, and rebuild the analyses from the file instead of a live run.
//
//	go run ./examples/tracing
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/trace"
)

func main() {
	w, err := bench.ByName("compress")
	if err != nil {
		log.Fatal(err)
	}
	c, err := bench.Compile(w)
	if err != nil {
		log.Fatal(err)
	}

	path := filepath.Join(os.TempDir(), "compress.bltrace")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	tw, err := trace.NewWriter(f)
	if err != nil {
		log.Fatal(err)
	}
	const budget = 300_000
	if _, err := c.Run(bench.RunConfig{Budget: budget, Scale: 1 << 30}, tw); err != nil {
		log.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		log.Fatal(err)
	}
	info, err := f.Stat()
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("traced %d branch events of %q to %s\n", budget, w.Name, path)
	fmt.Printf("trace file: %d bytes (%.2f bits/branch; the paper reports ~1.7)\n",
		info.Size(), 8*float64(info.Size())/budget)

	// Read the trace back and rebuild the analyses offline.
	rf, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer rf.Close()
	slab, err := trace.ReadSlab(rf, trace.DefaultLimits())
	if err != nil {
		log.Fatal(err)
	}
	prof := profile.New(c.NSites, profile.Options{})
	slab.ReplayInto(prof)
	fmt.Printf("replayed %d events from disk\n", slab.Len())

	show := func(name string, r predict.Result) {
		fmt.Printf("  %-22s %6.2f%%\n", name, r.Rate())
	}
	fmt.Println("analyses rebuilt from the trace file:")
	show("profile", predict.ProfileResult(prof.Counts))
	show("9 bit loop", predict.LoopResult(prof.Local))
	show("9 bit correlation", predict.CorrelationResult(prof.Global))
	lc, _ := predict.LoopCorrelationResult(prof.Local, prof.Global, prof.Counts)
	show("loop-correlation", lc)
	for _, fr := range prof.Local.FillRates() {
		if fr.Length == 9 {
			fmt.Printf("  9-bit table fill rate: %.2f%%\n", fr.Rate())
		}
	}
	if err := os.Remove(path); err != nil {
		log.Fatal(err)
	}
}
