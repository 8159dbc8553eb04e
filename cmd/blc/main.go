// Command blc is the BL language driver: it compiles a BL source file and
// can dump the IR, run the program, or write a branch trace — the
// counterpart of the paper's profiling tool front end.
//
// Usage:
//
//	blc [flags] file.bl
//
//	-dump          print the lowered IR and exit
//	-check         run the static analysis suite and exit
//	-run           execute main and print the result (default)
//	-trace FILE    write the branch trace to FILE while running
//	-budget N      stop after N branch events (0 = run to completion)
//	-set NAME=VAL  override an int global (repeatable)
//	-stats         print execution statistics
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/trace"
)

type setFlags []string

func (s *setFlags) String() string { return strings.Join(*s, ",") }
func (s *setFlags) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code: 0 on
// success, 1 on runtime or analysis failure, 2 on malformed input or an
// internal fault.
func run(args []string, stdout, stderr io.Writer) (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "blc: internal error: %v\n", r)
			code = 2
		}
	}()
	fs := flag.NewFlagSet("blc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dump      = fs.Bool("dump", false, "print the lowered IR and exit")
		check     = fs.Bool("check", false, "run the static analysis suite and exit")
		doRun     = fs.Bool("run", true, "execute main")
		traceFile = fs.String("trace", "", "write the branch trace to this file")
		budget    = fs.Uint64("budget", 0, "stop after this many branch events")
		stats     = fs.Bool("stats", false, "print execution statistics")
		sets      setFlags
	)
	fs.Var(&sets, "set", "override an int global, NAME=VALUE (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: blc [flags] file.bl")
		fs.Usage()
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "blc:", err)
		return 1
	}
	prog, err := lang.Compile(string(src))
	if err != nil {
		fmt.Fprintln(stderr, "blc:", err)
		return 2
	}
	if *dump {
		fmt.Fprint(stdout, prog.String())
		return 0
	}
	if *check {
		diags := analysis.Lint(prog, nil, nil)
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s: %s\n", fs.Arg(0), d)
		}
		if analysis.HasErrors(diags) {
			return 1
		}
		fmt.Fprintf(stdout, "%s: ok (%d warnings)\n", fs.Arg(0), len(diags))
		return 0
	}
	if !*doRun {
		return 0
	}
	m := interp.New(prog)
	m.MaxBranches = *budget
	for _, s := range sets {
		name, val, ok := strings.Cut(s, "=")
		if !ok {
			fmt.Fprintf(stderr, "blc: bad -set %q, want NAME=VALUE\n", s)
			return 1
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "blc: bad -set value %q: %v\n", val, err)
			return 1
		}
		if err := m.SetGlobal(name, v); err != nil {
			fmt.Fprintln(stderr, "blc:", err)
			return 1
		}
	}
	var slab *trace.Slab
	if *traceFile != "" {
		// Through the branch hook, not m.Rec: blc's trace files hold
		// conditional branches only, and Rec would add switch events.
		slab = trace.NewSlab(int(*budget))
		m.Hook = interp.BranchHook(slab)
	}
	ret, err := m.Run()
	if err != nil && err != interp.ErrLimit {
		fmt.Fprintln(stderr, "blc:", err)
		return 1
	}
	if slab != nil {
		if werr := writeTrace(*traceFile, slab); werr != nil {
			fmt.Fprintln(stderr, "blc:", werr)
			return 1
		}
	}
	fmt.Fprintf(stdout, "result: %d\n", ret)
	if err == interp.ErrLimit {
		fmt.Fprintln(stdout, "stopped: execution budget reached")
	}
	if *stats {
		fmt.Fprintf(stdout, "steps: %d\nbranches: %d\nchecksum: %d\nprints: %d\n",
			m.Steps, m.Branches, m.Checksum, m.Prints)
	}
	return 0
}

// writeTrace seals the recorded slab and writes it to path as a BLTRACE1
// stream.
func writeTrace(path string, slab *trace.Slab) error {
	slab.Seal()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := slab.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
