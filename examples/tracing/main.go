// Tracing: the profiling-tool workflow of section 3 — run a workload while
// recording its branch trace into a slab, persist the compressed trace to
// disk, read it back, and rebuild the analyses from the file instead of a
// live run.
//
//	go run ./examples/tracing
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/interp"
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

	// Record through the interpreter's direct slab hook, then write the
	// slab out: its bytes are the file's event stream.
	const budget = 300_000
	ep, _ := exec.Interp.Compile(c.Prog) // the interpreter's compile never fails
	m := ep.NewMachine()
	m.SetMaxBranches(budget)
	if err := m.SetGlobal("wscale", 1<<30); err != nil {
		log.Fatal(err)
	}
	slab := trace.NewSlab(budget)
	m.SetRec(slab)
	if _, err := m.Run(); err != nil && !errors.Is(err, interp.ErrLimit) {
		log.Fatal(err)
	}
	slab.Seal()
	path := filepath.Join(os.TempDir(), "compress.bltrace")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	size, err := slab.WriteTo(f)
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("traced %d branch events of %q to %s\n", budget, w.Name, path)
	fmt.Printf("trace file: %d bytes (%.2f bits/branch; the paper reports ~1.7)\n",
		size, 8*float64(size)/budget)

	// Read the trace back and rebuild the analyses offline.
	rf, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer rf.Close()
	read, err := trace.ReadSlab(rf, trace.DefaultLimits())
	if err != nil {
		log.Fatal(err)
	}
	prof := profile.New(c.NSites, profile.Options{GlobalK: 9})
	read.ReplayInto(prof)
	fmt.Printf("replayed %d events from disk\n", read.Len())

	show := func(name string, r predict.Result) {
		fmt.Printf("  %-22s %6.2f%%\n", name, r.Rate())
	}
	fmt.Println("analyses rebuilt from the trace file:")
	show("profile", predict.ProfileResult(prof.Counts))
	show("9 bit loop", predict.LoopResult(prof.Local()))
	show("9 bit correlation", predict.CorrelationResult(prof.Global))
	lc, _ := predict.LoopCorrelationResult(prof.Local(), prof.Global, prof.Counts)
	show("loop-correlation", lc)
	for _, fr := range prof.Local().FillRates() {
		if fr.Length == 9 {
			fmt.Printf("  9-bit table fill rate: %.2f%%\n", fr.Rate())
		}
	}
	if err := os.Remove(path); err != nil {
		log.Fatal(err)
	}
}
